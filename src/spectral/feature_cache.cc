#include "spectral/feature_cache.h"

#include "common/bytes.h"
#include "common/check.h"
#include "common/metrics_registry.h"

namespace fix {

namespace {

// Process-wide mirrors of the per-cache counters (Stats() keeps the
// per-instance view used by BuildStats).
Counter& CacheHits() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fix.spectral.cache.hits", "ops", "feature-cache signature hits");
  return *c;
}
Counter& CacheMisses() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fix.spectral.cache.misses", "ops", "feature-cache signature misses");
  return *c;
}
Counter& CacheEvictions() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fix.spectral.cache.evictions", "ops",
      "feature-cache entries evicted by the byte budget");
  return *c;
}

}  // namespace

std::string CanonicalPatternSignature(const BisimGraph& graph) {
  std::string sig;
  // Typical depth-limited patterns are tens of vertices; one reserve avoids
  // repeated growth without overshooting for the common case.
  sig.reserve(16 + graph.num_vertices() * 6);
  PutVarint64(&sig, graph.num_vertices());
  PutVarint32(&sig, graph.root());
  for (BisimVertexId v = 0; v < graph.num_vertices(); ++v) {
    const BisimVertex& vert = graph.vertex(v);
    PutVarint32(&sig, vert.label);
    PutVarint64(&sig, vert.children.size());
    for (BisimVertexId child : vert.children) {
      PutVarint32(&sig, child);
    }
  }
  return sig;
}

FeatureCache::FeatureCache(size_t budget_bytes) : budget_(budget_bytes) {}

size_t FeatureCache::EntryBytes(std::string_view key) {
  // Key bytes + list node + hash-map slot, approximately.
  return key.size() + sizeof(Entry) + 64;
}

bool FeatureCache::Lookup(std::string_view key, CachedFeature* out) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    CacheMisses().Increment();
    return false;
  }
  ++stats_.hits;
  CacheHits().Increment();
  *out = it->second->value;
  return true;
}

void FeatureCache::Insert(std::string_view key, const CachedFeature& value) {
  const size_t cost = EntryBytes(key);
  if (cost > budget_) return;  // would evict the whole cache for one key
  FIX_DCHECK(index_.count(key) == 0);
  entries_.push_front(Entry{std::string(key), value});
  index_.emplace(std::string_view(entries_.front().key), entries_.begin());
  bytes_ += cost;
  while (bytes_ > budget_) {
    const Entry& oldest = entries_.back();
    bytes_ -= EntryBytes(oldest.key);
    index_.erase(std::string_view(oldest.key));
    entries_.pop_back();
    ++stats_.evictions;
    CacheEvictions().Increment();
  }
}

}  // namespace fix
