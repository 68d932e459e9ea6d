#include "storage/btree.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace fix {

namespace {
constexpr uint8_t kLeaf = 0;
constexpr uint8_t kInner = 1;
}  // namespace

/// A page superseded by a COW batch: freed while building `freed_gen`, so
/// it belongs to generations strictly below that.
struct RetiredPage {
  PageId page = kInvalidPage;
  uint64_t freed_gen = 0;
};

/// Shared writer/reader state, heap-allocated so the tree stays movable
/// while snapshots hold stable pointers. Reader-visible fields (`live`,
/// `published`) are guarded by `mu`; everything else is writer-owned and
/// only ever touched by the single write thread.
struct BTreeState {
  // LOCK-ORDER: 9 BTreeState::mu
  Mutex mu;
  /// Pinned generations: generation -> live Snapshot objects carrying it.
  /// Ordered so the minimum pinned generation is begin().
  std::map<uint64_t, uint64_t> live FIX_GUARDED_BY(mu);

  // Writer-owned bookkeeping (single write thread; no lock needed).
  uint64_t generation = 0;    ///< last published generation
  uint64_t working_gen = 0;   ///< generation under construction (in batch)
  uint64_t durable_gen = 0;   ///< last generation durable on disk (meta/WAL)
  bool in_batch = false;
  std::unordered_set<PageId> fresh;      ///< pages allocated by this batch
  std::deque<RetiredPage> retired;       ///< superseded, awaiting reclaim
  std::vector<PageId> reusable;          ///< reclaimed, ready for NewAt

  // Declared last: destroyed first, while `mu`/`live` are still alive (the
  // snapshot destructor locks `mu` to unpin its generation).
  std::shared_ptr<const BTree::Snapshot> published FIX_GUARDED_BY(mu);
};

BTree::Snapshot::~Snapshot() {
  if (state_ == nullptr) return;
  MutexLock lock(state_->mu);
  auto it = state_->live.find(generation);
  FIX_DCHECK(it != state_->live.end());
  if (it != state_->live.end() && --it->second == 0) {
    state_->live.erase(it);
  }
}

BTree::BTree(BufferPool* pool)
    : pool_(pool), state_(std::make_unique<BTreeState>()) {}

BTree::~BTree() = default;
BTree::BTree(BTree&&) noexcept = default;
BTree& BTree::operator=(BTree&&) noexcept = default;

uint64_t BTree::generation() const {
  MutexLock lock(state_->mu);
  return state_->published ? state_->published->generation : 0;
}

uint64_t BTree::num_entries() const {
  MutexLock lock(state_->mu);
  return state_->published ? state_->published->num_entries : num_entries_;
}

bool BTree::in_batch() const { return state_->in_batch; }

void BTree::Publish(uint64_t gen) {
  auto snap = std::make_shared<Snapshot>();
  snap->root = root_;
  snap->height = height_;
  snap->num_entries = num_entries_;
  snap->generation = gen;
  snap->state_ = state_.get();
  std::shared_ptr<const Snapshot> old;
  {
    MutexLock lock(state_->mu);
    ++state_->live[gen];
    old = std::move(state_->published);
    state_->published = std::move(snap);
    state_->generation = gen;
  }
  // `old` dies here, outside the lock: its destructor re-acquires mu.
}

// --- node accessors ---------------------------------------------------------

uint8_t BTree::NodeType(const char* page) {
  return static_cast<uint8_t>(page[0]);
}

uint16_t BTree::NodeCount(const char* page) {
  uint16_t v;
  std::memcpy(&v, page + 2, sizeof(v));
  return v;
}

void BTree::SetNodeType(char* page, uint8_t type) {
  page[0] = static_cast<char>(type);
}

void BTree::SetNodeCount(char* page, uint16_t count) {
  std::memcpy(page + 2, &count, sizeof(count));
}

uint32_t BTree::NodeLink(const char* page) { return DecodeFixed32(page + 4); }

void BTree::SetNodeLink(char* page, uint32_t link) {
  EncodeFixed32(page + 4, link);
}

uint32_t BTree::InnerChild(const char* page, uint16_t i) const {
  // Child 0 lives in the link slot; child i+1 follows separator i.
  if (i == 0) return NodeLink(page);
  return DecodeFixed32(InnerEntry(page, i - 1) + key_size_);
}

void BTree::SetInnerChild(char* page, uint16_t i, PageId child) const {
  if (i == 0) {
    SetNodeLink(page, child);
  } else {
    EncodeFixed32(InnerEntry(page, i - 1) + key_size_, child);
  }
}

int BTree::CompareKey(const char* a, std::string_view b) const {
  FIX_CHECK(b.size() == key_size_);
  return std::memcmp(a, b.data(), key_size_);
}

#if FIX_DCHECKS_ENABLED
void BTree::DcheckNodeInvariants(const char* page) const {
  uint8_t type = NodeType(page);
  FIX_DCHECK(type == kLeaf || type == kInner);
  uint16_t count = NodeCount(page);
  if (type == kLeaf) {
    FIX_DCHECK_LE(count, LeafCapacity());
    for (uint16_t i = 1; i < count; ++i) {
      FIX_DCHECK_LT(
          std::memcmp(LeafEntry(page, i - 1), LeafEntry(page, i), key_size_),
          0);
    }
  } else {
    // An inner node always carries at least one separator (count+1 children)
    // and its child-0 link must be live.
    FIX_DCHECK_GE(count, 1);
    FIX_DCHECK_LE(count, InnerCapacity());
    FIX_DCHECK_NE(NodeLink(page), kInvalidPage);
    for (uint16_t i = 1; i < count; ++i) {
      FIX_DCHECK_LT(
          std::memcmp(InnerEntry(page, i - 1), InnerEntry(page, i), key_size_),
          0);
    }
    for (uint16_t i = 0; i <= count; ++i) {
      FIX_DCHECK_NE(InnerChild(page, i), kInvalidPage);
    }
  }
}
#endif  // FIX_DCHECKS_ENABLED

uint16_t BTree::LeafLowerBound(const char* page, std::string_view key) const {
  uint16_t lo = 0, hi = NodeCount(page);
  while (lo < hi) {
    uint16_t mid = (lo + hi) / 2;
    if (CompareKey(LeafEntry(page, mid), key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint16_t BTree::InnerChildIndex(const char* page, std::string_view key) const {
  // upper_bound over separators: separator i is the smallest key of child
  // i+1, so a key equal to it descends right.
  uint16_t lo = 0, hi = NodeCount(page);
  while (lo < hi) {
    uint16_t mid = (lo + hi) / 2;
    if (CompareKey(InnerEntry(page, mid), key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;  // child index in [0, count]
}

// --- meta -------------------------------------------------------------------

Status BTree::WriteMeta() {
  PageHandle meta;
  FIX_ASSIGN_OR_RETURN(meta, pool_->Fetch(0));
  char* p = meta.data();
  EncodeFixed32(p, kBTreeMagic);
  EncodeFixed32(p + 4, key_size_);
  EncodeFixed32(p + 8, value_size_);
  EncodeFixed32(p + 12, root_);
  EncodeFixed32(p + 16, height_);
  EncodeFixed64(p + 20, num_entries_);
  // Offset 28: generation of the checkpointed root. Pre-generation files
  // carry zero here (pages are zeroed at allocation), which decodes as
  // generation 0 — exactly right for a tree that has never batch-committed.
  EncodeFixed64(p + 28, state_->generation);
  meta.MarkDirty();
  return Status::OK();
}

Status BTree::ReadMeta() {
  PageHandle meta;
  FIX_ASSIGN_OR_RETURN(meta, pool_->Fetch(0));
  const char* p = meta.data();
  if (DecodeFixed32(p) != kBTreeMagic) {
    return Status::Corruption("not a FIX B+-tree file");
  }
  key_size_ = DecodeFixed32(p + 4);
  value_size_ = DecodeFixed32(p + 8);
  root_ = DecodeFixed32(p + 12);
  height_ = DecodeFixed32(p + 16);
  num_entries_ = DecodeFixed64(p + 20);
  state_->generation = DecodeFixed64(p + 28);
  if (key_size_ == 0 || key_size_ > 512 || value_size_ > 1024) {
    return Status::Corruption("implausible B+-tree geometry");
  }
  return Status::OK();
}

Result<BTree> BTree::Create(BufferPool* pool, uint32_t key_size,
                            uint32_t value_size) {
  if (key_size == 0 || key_size > 512) {
    return Status::InvalidArgument("key_size must be in [1, 512]");
  }
  if (pool->file()->num_pages() != 0) {
    return Status::InvalidArgument("BTree::Create requires an empty file");
  }
  BTree tree(pool);
  tree.key_size_ = key_size;
  tree.value_size_ = value_size;
  // Page 0: meta. Page 1: empty leaf root.
  PageHandle meta;
  FIX_ASSIGN_OR_RETURN(meta, pool->New());
  FIX_CHECK(meta.page_id() == 0);
  meta.Release();
  PageHandle root;
  FIX_ASSIGN_OR_RETURN(root, pool->New());
  SetNodeType(root.data(), kLeaf);
  SetNodeCount(root.data(), 0);
  SetNodeLink(root.data(), kInvalidPage);
  root.MarkDirty();
  tree.root_ = root.page_id();
  root.Release();
  FIX_RETURN_IF_ERROR(tree.WriteMeta());
  tree.Publish(0);
  return tree;
}

Result<BTree> BTree::Open(BufferPool* pool) {
  BTree tree(pool);
  FIX_RETURN_IF_ERROR(tree.ReadMeta());
  tree.Publish(tree.state_->generation);
  tree.state_->durable_gen = tree.state_->generation;
  return tree;
}

Result<BTree> BTree::OpenRecovered(BufferPool* pool, uint32_t key_size,
                                   uint32_t value_size,
                                   const WalCommit& commit) {
  if (key_size == 0 || key_size > 512 || value_size > 1024) {
    return Status::Corruption("implausible B+-tree geometry in WAL header");
  }
  BTree tree(pool);
  tree.key_size_ = key_size;
  tree.value_size_ = value_size;
  FIX_RETURN_IF_ERROR(tree.AdoptCommit(commit));
  return tree;
}

Status BTree::AdoptCommit(const WalCommit& commit) {
  const PageId num_pages = pool_->file()->num_pages();
  if (commit.root == 0 || commit.root == kInvalidPage ||
      commit.root >= num_pages) {
    return Status::Corruption("WAL commit root out of range: " +
                              std::to_string(commit.root));
  }
  if (commit.height == 0) {
    return Status::Corruption("WAL commit height is zero");
  }
  root_ = commit.root;
  height_ = commit.height;
  num_entries_ = commit.num_entries;
  Publish(commit.generation);
  state_->durable_gen = commit.generation;
  return Status::OK();
}

void BTree::AddReusablePages(const std::vector<PageId>& pages) {
  for (PageId p : pages) {
    if (p == 0 || p == kInvalidPage) continue;
    state_->reusable.push_back(p);
  }
}

// --- bulk load --------------------------------------------------------------

Status BTree::BulkLoad(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  if (num_entries_ != 0 || height_ != 1) {
    return Status::InvalidArgument(
        "BulkLoad requires a freshly created empty tree");
  }
  {
    PageHandle root;
    FIX_ASSIGN_OR_RETURN(root, pool_->Fetch(root_));
    if (NodeType(root.data()) != kLeaf || NodeCount(root.data()) != 0) {
      return Status::InvalidArgument(
          "BulkLoad requires the root to be an empty leaf");
    }
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].first.size() != key_size_ ||
        entries[i].second.size() != value_size_) {
      return Status::InvalidArgument("key/value size mismatch at entry " +
                                     std::to_string(i));
    }
    if (i > 0 && std::memcmp(entries[i - 1].first.data(),
                             entries[i].first.data(), key_size_) >= 0) {
      return Status::InvalidArgument(
          "BulkLoad input not strictly ascending at entry " +
          std::to_string(i));
    }
  }
  if (entries.empty()) return WriteMeta();

  // A node of the level currently being assembled: its page and the
  // smallest key in its subtree (the separator its parent will carry).
  struct LevelNode {
    std::string low_key;
    PageId page;
  };
  std::vector<LevelNode> level;

  // Leaves: packed full, left to right. The first leaf reuses the empty
  // root page so a small load never abandons it.
  const size_t leaf_cap = LeafCapacity();
  level.reserve(entries.size() / leaf_cap + 1);
  for (size_t pos = 0; pos < entries.size();) {
    PageHandle leaf;
    if (pos == 0) {
      FIX_ASSIGN_OR_RETURN(leaf, pool_->Fetch(root_));
    } else {
      FIX_ASSIGN_OR_RETURN(leaf, pool_->New());
    }
    const size_t take = std::min(leaf_cap, entries.size() - pos);
    char* page = leaf.data();
    SetNodeType(page, kLeaf);
    SetNodeCount(page, static_cast<uint16_t>(take));
    SetNodeLink(page, kInvalidPage);
    for (size_t i = 0; i < take; ++i) {
      char* slot = LeafEntry(page, static_cast<uint16_t>(i));
      std::memcpy(slot, entries[pos + i].first.data(), key_size_);
      std::memcpy(slot + key_size_, entries[pos + i].second.data(),
                  value_size_);
    }
    leaf.MarkDirty();
    DcheckNodeInvariants(page);
    level.push_back(LevelNode{entries[pos].first, leaf.page_id()});
    pos += take;
  }

  // Inner levels, bottom up. Children pack InnerCapacity()+1 per node,
  // except that a chunk never strands a single child for the next node —
  // an inner node must hold at least one separator (two children).
  // InnerCapacity() >= 7 for every legal key size, so shrinking a full
  // chunk by one always leaves a valid node.
  const size_t max_children = static_cast<size_t>(InnerCapacity()) + 1;
  while (level.size() > 1) {
    std::vector<LevelNode> parents;
    parents.reserve(level.size() / max_children + 1);
    for (size_t i = 0; i < level.size();) {
      size_t take = std::min(max_children, level.size() - i);
      if (level.size() - i - take == 1) --take;
      PageHandle node;
      FIX_ASSIGN_OR_RETURN(node, pool_->New());
      char* page = node.data();
      SetNodeType(page, kInner);
      SetNodeCount(page, static_cast<uint16_t>(take - 1));
      SetNodeLink(page, level[i].page);
      for (size_t c = 1; c < take; ++c) {
        char* slot = InnerEntry(page, static_cast<uint16_t>(c - 1));
        std::memcpy(slot, level[i + c].low_key.data(), key_size_);
        EncodeFixed32(slot + key_size_, level[i + c].page);
      }
      node.MarkDirty();
      DcheckNodeInvariants(page);
      parents.push_back(LevelNode{std::move(level[i].low_key),
                                  node.page_id()});
      i += take;
    }
    level = std::move(parents);
    ++height_;
  }
  root_ = level[0].page;
  num_entries_ = entries.size();
  FIX_RETURN_IF_ERROR(WriteMeta());
  Publish(state_->generation);
  return Status::OK();
}

// --- lookup / iteration -----------------------------------------------------

Result<PageHandle> BTree::DescendPath(PageId root, std::string_view key,
                                      std::vector<PathFrame>* path) {
  path->clear();
  PageId cur = root;
  for (;;) {
    PageHandle node;
    FIX_ASSIGN_OR_RETURN(node, pool_->Fetch(cur));
    if (NodeType(node.data()) == kLeaf) return node;
    uint16_t idx = InnerChildIndex(node.data(), key);
    path->push_back(PathFrame{cur, idx});
    cur = InnerChild(node.data(), idx);
  }
}

Status BTree::NextLeaf(std::vector<PathFrame>* path, PageHandle* leaf) {
  // Climb to the deepest ancestor with a child right of the one taken, step
  // into it, and descend leftmost. Past the last leaf no ancestor has one.
  while (!path->empty()) {
    PathFrame& frame = path->back();
    PageHandle node;
    FIX_ASSIGN_OR_RETURN(node, pool_->Fetch(frame.id));
    if (frame.slot < NodeCount(node.data())) {
      ++frame.slot;
      PageId cur = InnerChild(node.data(), frame.slot);
      node.Release();
      for (;;) {
        PageHandle down;
        FIX_ASSIGN_OR_RETURN(down, pool_->Fetch(cur));
        if (NodeType(down.data()) == kLeaf) {
          *leaf = std::move(down);
          return Status::OK();
        }
        path->push_back(PathFrame{cur, 0});
        cur = InnerChild(down.data(), 0);
      }
    }
    node.Release();
    path->pop_back();
  }
  leaf->Release();
  return Status::OK();
}

Result<BTree::Iterator> BTree::Seek(std::string_view key) {
  if (key.size() != key_size_) {
    return Status::InvalidArgument("key size mismatch");
  }
  Iterator it;
  it.tree_ = this;
  // Pin the published generation: the descent below (and every later
  // Next()) touches only that generation's immutable pages, so a writer
  // committing newer generations cannot perturb this iterator.
  {
    MutexLock lock(state_->mu);
    it.snap_ = state_->published;
  }
  FIX_CHECK(it.snap_ != nullptr);
  FIX_ASSIGN_OR_RETURN(it.leaf_, DescendPath(it.snap_->root, key, &it.path_));
  it.index_ = LeafLowerBound(it.leaf_.data(), key);
  it.valid_ = true;
  FIX_RETURN_IF_ERROR(it.SkipExhaustedLeaves());
  return it;
}

Result<BTree::Iterator> BTree::SeekFirst() {
  std::string smallest(key_size_, '\0');
  return Seek(smallest);
}

std::string_view BTree::Iterator::key() const {
  FIX_CHECK(valid_);
  return std::string_view(tree_->LeafEntry(leaf_.data(), index_),
                          tree_->key_size_);
}

std::string_view BTree::Iterator::value() const {
  FIX_CHECK(valid_);
  return std::string_view(
      tree_->LeafEntry(leaf_.data(), index_) + tree_->key_size_,
      tree_->value_size_);
}

Status BTree::Iterator::Next() {
  FIX_CHECK(valid_);
  ++index_;
  return SkipExhaustedLeaves();
}

Status BTree::Iterator::SkipExhaustedLeaves() {
  // A lower bound past this leaf's last key is the next leaf's first key;
  // only an empty tree's root leaf holds none.
  while (index_ >= NodeCount(leaf_.data())) {
    FIX_RETURN_IF_ERROR(tree_->NextLeaf(&path_, &leaf_));
    if (!leaf_.valid()) {
      valid_ = false;
      return Status::OK();
    }
    index_ = 0;
  }
  return Status::OK();
}

Status BTree::Flush() {
  FIX_RETURN_IF_ERROR(WriteMeta());
  return pool_->FlushAll();
}

Status BTree::Checkpoint() {
  FIX_RETURN_IF_ERROR(WriteMeta());
  FIX_RETURN_IF_ERROR(pool_->FlushAll());
  FIX_RETURN_IF_ERROR(pool_->file()->Sync());
  state_->durable_gen = state_->generation;
  return Status::OK();
}

// --- COW batch (generation N -> N+1) ----------------------------------------

Status BTree::BeginBatch() {
  if (state_->in_batch) {
    return Status::InvalidArgument("a COW batch is already open");
  }
  state_->working_gen = state_->generation + 1;
  state_->in_batch = true;
  FIX_DCHECK(state_->fresh.empty());
  return Status::OK();
}

Result<WalCommit> BTree::PrepareCommit() {
  if (!state_->in_batch) {
    return Status::InvalidArgument("no COW batch open");
  }
  // Every page of the pending generation must be durable BEFORE the commit
  // record: replay repoints the tree at these pages sight unseen.
  FIX_RETURN_IF_ERROR(pool_->FlushAll());
  FIX_RETURN_IF_ERROR(pool_->file()->Sync());
  WalCommit commit;
  commit.generation = state_->working_gen;
  commit.root = root_;
  commit.height = height_;
  commit.num_entries = num_entries_;
  return commit;
}

void BTree::FinalizeCommit() {
  FIX_CHECK(state_->in_batch);
  Publish(state_->working_gen);
  // The caller's WAL commit record is fsync'd, so the new generation is
  // durable even though the meta page still names the old root.
  state_->durable_gen = state_->working_gen;
  state_->fresh.clear();
  state_->in_batch = false;
}

void BTree::AbortBatch(bool blank_pages) {
  FIX_CHECK(state_->in_batch);
  {
    MutexLock lock(state_->mu);
    const Snapshot& s = *state_->published;
    root_ = s.root;
    height_ = s.height;
    num_entries_ = s.num_entries;
  }
  // Drop everything the batch wrote. The pages stay allocated in the file;
  // stamp them as empty blocks so a later scrub of the file stays clean
  // (a discarded-but-never-flushed page would otherwise read back as an
  // unwritten zero block with no valid header). When the caller cannot
  // prove its commit record is absent from the log (blank_pages == false),
  // the pages are left exactly as PrepareCommit flushed them — a replay
  // that adopts the record must find them intact — and are not recycled.
  std::string zero(kPageSize, '\0');
  for (PageId p : state_->fresh) {
    pool_->Discard(p);
    if (!blank_pages) continue;
    Status stamped = pool_->file()->WritePage(p, zero.data());
    if (!stamped.ok()) {
      FIX_LOG(Warning) << "BTree::AbortBatch: could not blank page " << p
                       << ": " << stamped.ToString();
    }
    state_->reusable.push_back(p);
  }
  state_->fresh.clear();
  // Un-retire: pages superseded by the aborted batch are still live in the
  // published generation. They sit at the tail (retirements are in batch
  // order).
  while (!state_->retired.empty() &&
         state_->retired.back().freed_gen == state_->working_gen) {
    state_->retired.pop_back();
  }
  state_->in_batch = false;
}

void BTree::PromoteRetired() {
  uint64_t min_live;
  {
    MutexLock lock(state_->mu);
    min_live =
        state_->live.empty() ? UINT64_MAX : state_->live.begin()->first;
  }
  // `retired` is ordered by freed_gen (batches commit in generation order),
  // so reclaimable entries form a prefix. A page freed while building
  // generation F belongs to generations < F only; it is recyclable once no
  // reader pins a generation below F (min_live >= F) and the durable root
  // is at or past F (overwriting it cannot damage crash recovery).
  while (!state_->retired.empty()) {
    const RetiredPage& front = state_->retired.front();
    if (front.freed_gen > min_live || front.freed_gen > state_->durable_gen) {
      break;
    }
    state_->reusable.push_back(front.page);
    state_->retired.pop_front();
  }
}

Result<PageHandle> BTree::AllocNodePage() {
  if (state_->reusable.empty()) PromoteRetired();
  PageHandle handle;
  if (!state_->reusable.empty()) {
    PageId id = state_->reusable.back();
    state_->reusable.pop_back();
    FIX_ASSIGN_OR_RETURN(handle, pool_->NewAt(id));
  } else {
    FIX_ASSIGN_OR_RETURN(handle, pool_->New());
  }
  state_->fresh.insert(handle.page_id());
  return handle;
}

bool BTree::IsFresh(PageId id) const {
  return state_->fresh.count(id) != 0;
}

void BTree::Retire(PageId id) {
  state_->retired.push_back(RetiredPage{id, state_->working_gen});
}

Result<PageHandle> BTree::CowPage(PageId old_id) {
  PageHandle old;
  FIX_ASSIGN_OR_RETURN(old, pool_->Fetch(old_id));
  PageHandle copy;
  FIX_ASSIGN_OR_RETURN(copy, AllocNodePage());
  std::memcpy(copy.data(), old.data(), kPageSize);
  copy.MarkDirty();
  old.Release();
  Retire(old_id);
  return copy;
}

Status BTree::CowPath(std::vector<PathFrame>* path, PageHandle* leaf) {
  // Top-down, so the parent of each copy is already fresh and takes the new
  // child id in place. Every subtree off the path stays shared, by
  // reference, with the published generations.
  for (size_t i = 0; i <= path->size(); ++i) {
    const bool is_leaf = i == path->size();
    const PageId id = is_leaf ? leaf->page_id() : (*path)[i].id;
    if (IsFresh(id)) continue;
    PageHandle copy;
    FIX_ASSIGN_OR_RETURN(copy, CowPage(id));
    const PageId new_id = copy.page_id();
    if (i == 0) {
      root_ = new_id;
    } else {
      PageHandle parent;
      FIX_ASSIGN_OR_RETURN(parent, pool_->Fetch((*path)[i - 1].id));
      SetInnerChild(parent.data(), (*path)[i - 1].slot, new_id);
      parent.MarkDirty();
    }
    if (is_leaf) {
      // A leaf from before meta v6 may carry a next-leaf id; drop it.
      SetNodeLink(copy.data(), kInvalidPage);
      *leaf = std::move(copy);
    } else {
      (*path)[i].id = new_id;
    }
  }
  return Status::OK();
}

Status BTree::Insert(std::string_view key, std::string_view value) {
  if (key.size() != key_size_ || value.size() != value_size_) {
    return Status::InvalidArgument("key/value size mismatch");
  }
  if (!state_->in_batch) return Status::InvalidArgument("no COW batch open");
  std::vector<PathFrame> path;
  PageHandle leaf;
  FIX_ASSIGN_OR_RETURN(leaf, DescendPath(root_, key, &path));
  // Upper-bound descent reaches the one leaf that could hold `key`. Refuse
  // it before copying anything, so the batch stays as it was.
  const uint16_t pos = LeafLowerBound(leaf.data(), key);
  if (pos < NodeCount(leaf.data()) &&
      CompareKey(LeafEntry(leaf.data(), pos), key) == 0) {
    return Status::InvalidArgument("key already in B+-tree");
  }
  FIX_RETURN_IF_ERROR(CowPath(&path, &leaf));

  // Every node on the path is now fresh: mutate in place, splitting upward
  // iteratively along the recorded path.
  bool pending = false;
  std::string sep;
  PageId right_id = kInvalidPage;
  {
    char* page = leaf.data();
    uint16_t count = NodeCount(page);
    if (count < LeafCapacity()) {
      char* slot = LeafEntry(page, pos);
      std::memmove(slot + LeafEntrySize(), slot,
                   (count - pos) * LeafEntrySize());
      std::memcpy(slot, key.data(), key_size_);
      // An empty value may come with a null data() (value_size 0 trees).
      if (value_size_ > 0) {
        std::memcpy(slot + key_size_, value.data(), value_size_);
      }
      SetNodeCount(page, count + 1);
      leaf.MarkDirty();
      DcheckNodeInvariants(page);
    } else {
      // Split: left keeps the first half, a fresh right leaf gets the rest.
      PageHandle right;
      FIX_ASSIGN_OR_RETURN(right, AllocNodePage());
      char* rpage = right.data();
      SetNodeType(rpage, kLeaf);
      SetNodeLink(rpage, kInvalidPage);
      uint16_t mid = count / 2;
      uint16_t right_count = count - mid;
      std::memcpy(LeafEntry(rpage, 0), LeafEntry(page, mid),
                  right_count * LeafEntrySize());
      SetNodeCount(rpage, right_count);
      SetNodeCount(page, mid);
      // Insert into whichever half owns position `pos`. At pos == mid the
      // key sorts below the right half's first key, the new separator, so
      // it ends the left half.
      char* target;
      if (pos <= mid) {
        uint16_t c = NodeCount(page);
        target = LeafEntry(page, pos);
        std::memmove(target + LeafEntrySize(), target,
                     (c - pos) * LeafEntrySize());
        SetNodeCount(page, c + 1);
      } else {
        uint16_t rpos = pos - mid;
        uint16_t c = NodeCount(rpage);
        target = LeafEntry(rpage, rpos);
        std::memmove(target + LeafEntrySize(), target,
                     (c - rpos) * LeafEntrySize());
        SetNodeCount(rpage, c + 1);
      }
      std::memcpy(target, key.data(), key_size_);
      if (value_size_ > 0) {
        std::memcpy(target + key_size_, value.data(), value_size_);
      }
      leaf.MarkDirty();
      right.MarkDirty();
      DcheckNodeInvariants(page);
      DcheckNodeInvariants(rpage);
      pending = true;
      sep.assign(LeafEntry(rpage, 0), key_size_);
      right_id = right.page_id();
    }
  }
  leaf.Release();

  for (size_t i = path.size(); pending && i-- > 0;) {
    PageHandle node;
    FIX_ASSIGN_OR_RETURN(node, pool_->Fetch(path[i].id));
    char* page = node.data();
    uint16_t count = NodeCount(page);
    uint16_t pos = path[i].slot;
    if (count < InnerCapacity()) {
      char* slot = InnerEntry(page, pos);
      std::memmove(slot + InnerEntrySize(), slot,
                   (count - pos) * InnerEntrySize());
      std::memcpy(slot, sep.data(), key_size_);
      EncodeFixed32(slot + key_size_, right_id);
      SetNodeCount(page, count + 1);
      node.MarkDirty();
      DcheckNodeInvariants(page);
      pending = false;
      break;
    }
    // Split the inner node (scratch assembly, middle separator moves up).
    size_t entry = InnerEntrySize();
    std::string scratch;
    scratch.resize(static_cast<size_t>(count + 1) * entry);
    std::memcpy(scratch.data(), InnerEntry(page, 0), pos * entry);
    std::memcpy(scratch.data() + pos * entry, sep.data(), key_size_);
    EncodeFixed32(scratch.data() + pos * entry + key_size_, right_id);
    std::memcpy(scratch.data() + (pos + 1) * entry, InnerEntry(page, pos),
                (count - pos) * entry);
    uint16_t total = count + 1;
    uint16_t left_count = total / 2;
    const char* up = scratch.data() + left_count * entry;

    PageHandle right;
    FIX_ASSIGN_OR_RETURN(right, AllocNodePage());
    char* rpage = right.data();
    SetNodeType(rpage, kInner);
    uint16_t right_count = total - left_count - 1;
    SetNodeLink(rpage, DecodeFixed32(up + key_size_));
    std::memcpy(InnerEntry(rpage, 0), up + entry, right_count * entry);
    SetNodeCount(rpage, right_count);

    std::memcpy(InnerEntry(page, 0), scratch.data(), left_count * entry);
    SetNodeCount(page, left_count);

    node.MarkDirty();
    right.MarkDirty();
    DcheckNodeInvariants(page);
    DcheckNodeInvariants(rpage);
    sep.assign(up, key_size_);
    right_id = right.page_id();
  }

  if (pending) {
    PageHandle new_root;
    FIX_ASSIGN_OR_RETURN(new_root, AllocNodePage());
    char* page = new_root.data();
    SetNodeType(page, kInner);
    SetNodeCount(page, 1);
    SetNodeLink(page, root_);
    char* slot = InnerEntry(page, 0);
    std::memcpy(slot, sep.data(), key_size_);
    EncodeFixed32(slot + key_size_, right_id);
    new_root.MarkDirty();
    DcheckNodeInvariants(page);
    root_ = new_root.page_id();
    ++height_;
  }
  ++num_entries_;
  return Status::OK();
}

// --- structural verification ------------------------------------------------

Status BTree::VerifyNode(PageId id, uint32_t depth,
                         std::unordered_set<PageId>* visited,
                         std::vector<PageId>* leaves) {
  const PageId num_pages = pool_->file()->num_pages();
  if (id == kInvalidPage || id == 0 || id >= num_pages) {
    return Status::Corruption("B+-tree node id out of range: " +
                              std::to_string(id));
  }
  if (!visited->insert(id).second) {
    return Status::Corruption("B+-tree cycle: page " + std::to_string(id) +
                              " reachable twice");
  }
  PageHandle node;
  FIX_ASSIGN_OR_RETURN(node, pool_->Fetch(id));
  const char* page = node.data();
  const uint8_t type = NodeType(page);
  const uint16_t count = NodeCount(page);

  if (type == kLeaf) {
    if (depth != height_) {
      return Status::Corruption("leaf page " + std::to_string(id) +
                                " at depth " + std::to_string(depth) +
                                ", expected " + std::to_string(height_));
    }
    if (count > LeafCapacity()) {
      return Status::Corruption("leaf page " + std::to_string(id) +
                                " count exceeds capacity");
    }
    // Nothing removes entries, so only an empty tree's root leaf is empty.
    if (count == 0 && height_ != 1) {
      return Status::Corruption("empty non-root leaf page " +
                                std::to_string(id));
    }
    for (uint16_t i = 1; i < count; ++i) {
      const int order =
          std::memcmp(LeafEntry(page, i - 1), LeafEntry(page, i), key_size_);
      if (order >= 0) {
        return Status::Corruption(
            std::string(order > 0 ? "keys out of order" : "repeated key") +
            " in leaf page " + std::to_string(id));
      }
    }
    leaves->push_back(id);
    return Status::OK();
  }

  if (type != kInner) {
    return Status::Corruption("bad node type " + std::to_string(type) +
                              " on page " + std::to_string(id));
  }
  if (depth >= height_) {
    return Status::Corruption("inner page " + std::to_string(id) +
                              " at leaf depth");
  }
  if (count == 0 || count > InnerCapacity()) {
    return Status::Corruption("inner page " + std::to_string(id) +
                              " separator count out of range");
  }
  for (uint16_t i = 1; i < count; ++i) {
    const int order =
        std::memcmp(InnerEntry(page, i - 1), InnerEntry(page, i), key_size_);
    if (order >= 0) {
      return Status::Corruption(
          std::string(order > 0 ? "separators out of order"
                                : "repeated separator") +
          " in inner page " + std::to_string(id));
    }
  }
  // Copy the child list out, then unpin before recursing: the walk must not
  // hold a pin per level of recursion fan-out, only per depth.
  std::vector<PageId> children;
  children.reserve(count + 1);
  for (uint16_t i = 0; i <= count; ++i) {
    children.push_back(InnerChild(page, i));
  }
  node.Release();
  for (PageId child : children) {
    FIX_RETURN_IF_ERROR(VerifyNode(child, depth + 1, visited, leaves));
  }
  return Status::OK();
}

Status BTree::VerifyStructure() {
  std::unordered_set<PageId> visited;
  return VerifyAndCollect(&visited);
}

Status BTree::VerifyAndCollect(std::unordered_set<PageId>* reachable) {
  reachable->clear();
  std::vector<PageId> leaves;
  FIX_RETURN_IF_ERROR(VerifyNode(root_, 1, reachable, &leaves));

  // Keys must be strictly ascending across the leaves in discovery (key)
  // order, and the entries they hold must add up to the meta count.
  uint64_t total_entries = 0;
  std::string prev_key;
  bool have_prev = false;
  for (PageId id : leaves) {
    PageHandle leaf;
    FIX_ASSIGN_OR_RETURN(leaf, pool_->Fetch(id));
    const char* page = leaf.data();
    const uint16_t count = NodeCount(page);
    total_entries += count;
    for (uint16_t j = 0; j < count; ++j) {
      const char* key = LeafEntry(page, j);
      const int order =
          have_prev ? std::memcmp(prev_key.data(), key, key_size_) : -1;
      if (order >= 0) {
        return Status::Corruption(
            std::string(order > 0 ? "keys out of order" : "repeated key") +
            " across leaves at page " + std::to_string(id));
      }
      prev_key.assign(key, key_size_);
      have_prev = true;
    }
  }
  if (total_entries != num_entries_) {
    return Status::Corruption("entry count mismatch: meta says " +
                              std::to_string(num_entries_) +
                              ", leaves hold " +
                              std::to_string(total_entries));
  }
  return Status::OK();
}

}  // namespace fix
