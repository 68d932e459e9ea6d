// Corpus: the database instance — a collection of XML documents, their
// shared label table, and the primary on-disk storage (Figure 3's "primary
// storage" box).
//
// Documents are kept in memory for navigation (the refinement engine is a
// NoK-style in-memory navigational operator) and mirrored to an append-only
// record store on disk; unclustered index values are NodeRefs whose
// resolution is charged as one random primary-storage read.

#ifndef FIX_CORE_CORPUS_H_
#define FIX_CORE_CORPUS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "storage/record_store.h"
#include "xml/document.h"
#include "xml/label_table.h"

namespace fix {

class Corpus {
 public:
  Corpus() = default;
  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;
  Corpus(Corpus&&) = default;
  Corpus& operator=(Corpus&&) = default;

  LabelTable* labels() { return &labels_; }
  const LabelTable& labels() const { return labels_; }

  /// Adds a document; returns its doc id. The document is complete: its
  /// construction scratch is released.
  uint32_t AddDocument(Document doc) {
    doc.ReleaseConstructionScratch();
    docs_.push_back(std::move(doc));
    return static_cast<uint32_t>(docs_.size() - 1);
  }

  /// Parses XML text and adds the document.
  [[nodiscard]] Result<uint32_t> AddXml(std::string_view xml);

  const Document& doc(uint32_t id) const { return docs_[id]; }
  size_t num_docs() const { return docs_.size(); }

  /// Writes every document (encoded) to a record store at `path`. Must be
  /// called after all documents are added and before unclustered-index
  /// refinement wants I/O accounting.
  [[nodiscard]] Status WritePrimaryStorage(const std::string& path);

  bool has_primary() const { return primary_.is_open(); }
  const RecordStore& primary() const { return primary_; }
  RecordStore* mutable_primary() { return &primary_; }

  /// Total elements across all documents.
  size_t TotalElements() const;

  /// Persists the whole corpus into `dir`: the label table (labels.dat),
  /// every document in the primary record store (primary.dat), and the
  /// manifest mapping doc ids to record offsets (manifest.dat). Writes the
  /// primary store if it was not written yet.
  [[nodiscard]] Status Save(const std::string& dir);

  /// Restores a corpus saved with Save(). Documents are decoded back into
  /// memory; the primary store stays open for refinement-time accounting.
  [[nodiscard]] static Result<Corpus> Load(const std::string& dir);

 private:
  LabelTable labels_;
  std::vector<Document> docs_;
  RecordStore primary_;
  std::vector<RecordId> primary_ids_;
};

}  // namespace fix

#endif  // FIX_CORE_CORPUS_H_
