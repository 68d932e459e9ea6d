#include "core/corpus.h"

#include "core/persist.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace fix {

Result<uint32_t> Corpus::AddXml(std::string_view xml) {
  Document doc;
  FIX_ASSIGN_OR_RETURN(doc, ParseXml(xml, &labels_));
  return AddDocument(std::move(doc));
}

Status Corpus::WritePrimaryStorage(const std::string& path) {
  FIX_RETURN_IF_ERROR(primary_.Open(path, /*create=*/true));
  primary_ids_.clear();
  primary_ids_.reserve(docs_.size());
  for (const Document& doc : docs_) {
    std::string buf;
    EncodeDocument(doc, &buf);
    RecordId id;
    FIX_ASSIGN_OR_RETURN(id, primary_.Append(buf));
    primary_ids_.push_back(id);
  }
  return primary_.Sync();
}

size_t Corpus::TotalElements() const {
  size_t n = 0;
  for (const Document& d : docs_) n += d.CountElements();
  return n;
}

Status Corpus::Save(const std::string& dir) {
  if (!primary_.is_open()) {
    FIX_RETURN_IF_ERROR(WritePrimaryStorage(dir + "/primary.dat"));
  } else if (primary_ids_.size() < docs_.size()) {
    // Documents appended since the corpus was loaded (or last saved) have
    // no records yet; append them before rewriting the manifest, or they
    // would silently vanish on the next Load. Records are synced before the
    // manifest that references them is written, so a crash in between
    // leaves at worst unreferenced (harmless) trailing records.
    for (size_t i = primary_ids_.size(); i < docs_.size(); ++i) {
      std::string buf;
      EncodeDocument(docs_[i], &buf);
      RecordId id;
      FIX_ASSIGN_OR_RETURN(id, primary_.Append(buf));
      primary_ids_.push_back(id);
    }
    FIX_RETURN_IF_ERROR(primary_.Sync());
  }
  FIX_RETURN_IF_ERROR(
      WriteFile(dir + "/labels.dat", EncodeLabelTable(labels_)));
  return WriteFile(dir + "/manifest.dat", EncodeManifest(primary_ids_));
}

Result<Corpus> Corpus::Load(const std::string& dir) {
  Corpus corpus;
  std::string labels_buf;
  FIX_ASSIGN_OR_RETURN(labels_buf, ReadFile(dir + "/labels.dat"));
  FIX_RETURN_IF_ERROR(DecodeLabelTable(labels_buf, &corpus.labels_));

  FIX_RETURN_IF_ERROR(
      corpus.primary_.Open(dir + "/primary.dat", /*create=*/false));
  std::string manifest_buf;
  FIX_ASSIGN_OR_RETURN(manifest_buf, ReadFile(dir + "/manifest.dat"));
  FIX_ASSIGN_OR_RETURN(corpus.primary_ids_, DecodeManifest(manifest_buf));

  corpus.docs_.reserve(corpus.primary_ids_.size());
  for (const RecordId& id : corpus.primary_ids_) {
    std::string record;
    FIX_ASSIGN_OR_RETURN(record, corpus.primary_.Read(id));
    Document doc;
    FIX_ASSIGN_OR_RETURN(doc, DecodeDocument(record));
    corpus.AddDocument(std::move(doc));
  }
  corpus.primary_.ResetCounters();  // loading reads are not query I/O
  return corpus;
}

}  // namespace fix
