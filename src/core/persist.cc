#include "core/persist.h"

#include <cstdio>

#include "common/bytes.h"

namespace fix {

namespace {
constexpr uint32_t kLabelMagic = 0x4649584c;  // "FIXL"
constexpr uint32_t kManifestMagic = 0x4649584d;  // "FIXM"
constexpr uint32_t kMetaMagic = 0x46495849;  // "FIXI"
constexpr uint32_t kVersion = 1;
// Index-meta format history: see IndexMeta (persist.h). Older sidecars
// remain readable; fields they predate decode to their "unknown" defaults.
// Largest probe-engine value a v4 meta could carry (B+-tree, kd-tree, auto).
constexpr uint32_t kMaxV4EngineSelector = 2;

void PutHeader(std::string* out, uint32_t magic, uint32_t version = kVersion) {
  PutFixed32(out, magic);
  PutFixed32(out, version);
}

Status CheckHeader(const std::string& buf, size_t* pos, uint32_t magic,
                   const char* what, uint32_t max_version = kVersion,
                   uint32_t* version_out = nullptr) {
  if (buf.size() < 8 || DecodeFixed32(buf.data()) != magic) {
    return Status::Corruption(std::string("bad magic in ") + what);
  }
  uint32_t version = DecodeFixed32(buf.data() + 4);
  if (version == 0 || version > max_version) {
    return Status::Corruption(std::string("unsupported version in ") + what);
  }
  if (version_out != nullptr) *version_out = version;
  *pos = 8;
  return Status::OK();
}

}  // namespace

Status WriteFile(const std::string& path, const std::string& contents) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot create " + path);
  size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  int rc = std::fclose(f);
  if (written != contents.size() || rc != 0) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IOError("read failed for " + path);
  return out;
}

// --- label table -----------------------------------------------------------

std::string EncodeLabelTable(const LabelTable& labels) {
  std::string out;
  PutHeader(&out, kLabelMagic);
  PutVarint32(&out, static_cast<uint32_t>(labels.size()));
  for (LabelId id = 0; id < labels.size(); ++id) {
    const std::string& name = labels.Name(id);
    PutVarint32(&out, static_cast<uint32_t>(name.size()));
    out += name;
  }
  return out;
}

Status DecodeLabelTable(const std::string& buf, LabelTable* labels) {
  size_t pos = 0;
  FIX_RETURN_IF_ERROR(CheckHeader(buf, &pos, kLabelMagic, "label table"));
  uint32_t count = 0;
  if (!GetVarint32(buf, &pos, &count)) {
    return Status::Corruption("label table: truncated count");
  }
  if (labels->size() != 1) {
    return Status::InvalidArgument(
        "label table must be fresh before decoding");
  }
  for (uint32_t id = 0; id < count; ++id) {
    uint32_t len = 0;
    if (!GetVarint32(buf, &pos, &len) || pos + len > buf.size()) {
      return Status::Corruption("label table: truncated name");
    }
    std::string name = buf.substr(pos, len);
    pos += len;
    if (id == 0) {
      if (name != kDocumentLabel) {
        return Status::Corruption("label table: id 0 is not #doc");
      }
      continue;  // the constructor already interned it
    }
    LabelId assigned = labels->Intern(name);
    if (assigned != id) {
      return Status::Corruption("label table: id mismatch for " + name);
    }
  }
  if (pos != buf.size()) {
    return Status::Corruption("label table: trailing bytes");
  }
  return Status::OK();
}

// --- manifest ----------------------------------------------------------------

std::string EncodeManifest(const std::vector<RecordId>& records) {
  std::string out;
  PutHeader(&out, kManifestMagic);
  PutVarint32(&out, static_cast<uint32_t>(records.size()));
  for (const RecordId& id : records) PutVarint64(&out, id.offset);
  return out;
}

Result<std::vector<RecordId>> DecodeManifest(const std::string& buf) {
  size_t pos = 0;
  FIX_RETURN_IF_ERROR(CheckHeader(buf, &pos, kManifestMagic, "manifest"));
  uint32_t count = 0;
  if (!GetVarint32(buf, &pos, &count)) {
    return Status::Corruption("manifest: truncated count");
  }
  std::vector<RecordId> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t offset = 0;
    if (!GetVarint64(buf, &pos, &offset)) {
      return Status::Corruption("manifest: truncated offset");
    }
    out.push_back(RecordId{offset});
  }
  if (pos != buf.size()) return Status::Corruption("manifest: trailing bytes");
  return out;
}

// --- index metadata -----------------------------------------------------------

std::string EncodeIndexMeta(const IndexMeta& meta) {
  std::string out;
  PutHeader(&out, kMetaMagic, kIndexMetaVersion);
  const IndexOptions& o = meta.options;
  PutVarint32(&out, static_cast<uint32_t>(o.depth_limit));
  PutVarint32(&out, o.clustered ? 1 : 0);
  PutVarint32(&out, o.value_beta);
  PutVarint32(&out, o.use_lambda2 ? 1 : 0);
  PutVarint32(&out, o.sound_probe ? 1 : 0);
  PutFixed64(&out, OrderPreservingDouble(o.epsilon));
  PutVarint64(&out, o.max_pattern_vertices);
  PutVarint64(&out, o.max_expanded_nodes);
  PutVarint32(&out, static_cast<uint32_t>(meta.edge_weights.size()));
  for (const auto& [pair, weight] : meta.edge_weights) {
    PutVarint64(&out, pair);
    PutVarint32(&out, weight);
  }
  // v2 fields.
  PutVarint32(&out, meta.storage_format);
  PutVarint32(&out, meta.indexed_docs);
  // v3 fields.
  PutVarint64(&out, meta.generation);
  PutVarint64(&out, meta.wal_bytes);
  return out;
}

Result<IndexMeta> DecodeIndexMeta(const std::string& buf) {
  size_t pos = 0;
  uint32_t version = 0;
  FIX_RETURN_IF_ERROR(
      CheckHeader(buf, &pos, kMetaMagic, "index meta", kIndexMetaVersion,
                  &version));
  IndexMeta meta;
  meta.version = version;
  uint32_t depth = 0, clustered = 0, beta = 0, l2 = 0, sound = 0;
  if (!GetVarint32(buf, &pos, &depth) || !GetVarint32(buf, &pos, &clustered) ||
      !GetVarint32(buf, &pos, &beta) || !GetVarint32(buf, &pos, &l2) ||
      !GetVarint32(buf, &pos, &sound)) {
    return Status::Corruption("index meta: truncated options");
  }
  meta.options.depth_limit = static_cast<int>(depth);
  meta.options.clustered = clustered != 0;
  meta.options.value_beta = beta;
  meta.options.use_lambda2 = l2 != 0;
  meta.options.sound_probe = sound != 0;
  if (pos + 8 > buf.size()) {
    return Status::Corruption("index meta: truncated epsilon");
  }
  meta.options.epsilon =
      OrderPreservingToDouble(DecodeFixed64(buf.data() + pos));
  pos += 8;
  uint64_t max_vertices = 0, max_expanded = 0;
  // v1–v6 wrote a key-sequence counter here; it is read and dropped.
  uint32_t seq_counter = 0, pairs = 0;
  if (!GetVarint64(buf, &pos, &max_vertices) ||
      !GetVarint64(buf, &pos, &max_expanded) ||
      (version < 7 && !GetVarint32(buf, &pos, &seq_counter)) ||
      !GetVarint32(buf, &pos, &pairs)) {
    return Status::Corruption("index meta: truncated counters");
  }
  meta.options.max_pattern_vertices = max_vertices;
  meta.options.max_expanded_nodes = max_expanded;
  meta.edge_weights.reserve(pairs);
  for (uint32_t i = 0; i < pairs; ++i) {
    uint64_t pair = 0;
    uint32_t weight = 0;
    if (!GetVarint64(buf, &pos, &pair) || !GetVarint32(buf, &pos, &weight)) {
      return Status::Corruption("index meta: truncated weights");
    }
    meta.edge_weights.emplace_back(pair, weight);
  }
  if (version >= 2) {
    if (!GetVarint32(buf, &pos, &meta.storage_format) ||
        !GetVarint32(buf, &pos, &meta.indexed_docs)) {
      return Status::Corruption("index meta: truncated storage fields");
    }
  } else {
    meta.storage_format = 0;  // pre-checksum page format
    meta.indexed_docs = kIndexedDocsUnknown;
  }
  if (version >= 3) {
    if (!GetVarint64(buf, &pos, &meta.generation) ||
        !GetVarint64(buf, &pos, &meta.wal_bytes)) {
      return Status::Corruption("index meta: truncated generation fields");
    }
  }
  if (version == 4) {
    // Every index now probes its B+-tree; the v4 selector is validated and
    // dropped.
    uint32_t engine = 0;
    if (!GetVarint32(buf, &pos, &engine)) {
      return Status::Corruption("index meta: truncated probe engine");
    }
    if (engine > kMaxV4EngineSelector) {
      return Status::Corruption("index meta: unknown probe engine");
    }
  }
  if (pos != buf.size()) {
    return Status::Corruption("index meta: trailing bytes");
  }
  return meta;
}

}  // namespace fix
