// A disk-resident B+-tree with fixed-size keys and values, built on the
// buffer pool. This plays the role Berkeley DB's B-tree played in the
// paper's implementation: FIX feature keys are inserted here and queried
// with ordered range scans.
//
// Keys are compared with memcmp; callers encode them order-preservingly
// (see core/key_codec.h). Keys are unique: Insert refuses a key already in
// the tree and BulkLoad refuses a repeated one, and the structural audit
// treats a repeated key as corruption.
//
// On-disk layout:
//   page 0          meta: magic, key/value size, root, height, entry count,
//                   generation
//   other pages     nodes:
//     [0]  type (0 = leaf, 1 = inner)
//     [2]  count u16
//     [4]  inner: first-child page id. leaf: unused, written as
//          kInvalidPage (files from before meta v6 may hold a stale
//          next-leaf id there; nothing reads it)
//     [8]  entries — leaf: count * (key, value)
//                    inner: count * (separator key, right child id)
//   An inner node with count separators has count+1 children; separator i
//   is the smallest key in child i+1's subtree. Descent takes the upper
//   bound: the child right of the last separator <= key, so a key equal to
//   a separator descends right, where it lives.
//
// Leaves are not chained. Iteration keeps the root-to-leaf path and steps
// to the next leaf through it (NextLeaf), the way a shadowing B-tree must
// (Rodeh, "B-trees, Shadowing, and Clones", ACM TOS 2008): a sibling link
// would rename with every copied leaf and drag its left neighbour into the
// copy, and that neighbour's left neighbour, and so on.
//
// The tree is insert-only: no entry is ever removed, so a leaf is empty
// only as the root of an empty tree. FIX indexes are bulk-built, grow by
// inserted documents, and are read-heavy.
//
// Write paths: BulkLoad builds a fresh tree in one pass; after that every
// change goes through a COW batch (BeginBatch .. Insert ..
// PrepareCommit / FinalizeCommit, or AbortBatch). The writer builds
// generation N+1 out of place: the root-to-leaf path of each touched leaf
// is copied into freshly allocated pages, and every other subtree is shared
// by reference with generation N. A one-entry commit therefore writes
// height pages, plus one per split. Readers keep serving from the pinned
// generation-N snapshot throughout; pages superseded by N+1 are retired and
// reused only after the last reader of every older generation unpins AND
// the page is not referenced by the durable on-disk root.
//
// Thread-safety — snapshot contract: Seek/SeekFirst and iterator Next
// may be called from any number of threads concurrently, and remain safe
// while a single COW-batch writer is active: each read pins the published
// generation snapshot (a shared_ptr handle) and only ever touches that
// generation's immutable pages plus the lock-striped BufferPool. Each
// thread must use its own Iterator. BulkLoad and Flush remain fully
// writer-exclusive: they must not overlap with each other or with any
// read. At most one batch writer may exist at a time. See
// docs/ARCHITECTURE.md, "Write path: COW generations + WAL".

#ifndef FIX_STORAGE_BTREE_H_
#define FIX_STORAGE_BTREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"

namespace fix {

/// "FIXB" — stamped at offset 0 of the meta page (page 0). Exposed so the
/// scrub tool can identify B+-tree files without opening a full BTree.
inline constexpr uint32_t kBTreeMagic = 0x46495842;

class BTree {
 private:
  /// One inner level of a root-to-leaf descent: the node and the child slot
  /// taken.
  struct PathFrame {
    PageId id = kInvalidPage;
    uint16_t slot = 0;
  };

 public:
  /// One published generation: the immutable root every reader of that
  /// generation descends from. Held by shared_ptr; the last release
  /// (reader or tree) unpins the generation, which is what allows its
  /// superseded pages to be recycled.
  struct Snapshot {
    PageId root = kInvalidPage;
    uint32_t height = 1;
    uint64_t num_entries = 0;
    uint64_t generation = 0;
    ~Snapshot();

   private:
    friend class BTree;
    struct BTreeState* state_ = nullptr;
  };

  /// Creates a new tree in `pool`'s file with the given fixed key/value
  /// sizes.
  ///
  /// @pre `pool` is non-null and its file is empty; one leaf entry and one
  ///      inner entry must each fit a page.
  /// @post page 0 holds the meta and page 1 an empty root leaf.
  /// @return the new tree, or InvalidArgument/IOError on failure.
  [[nodiscard]] static Result<BTree> Create(BufferPool* pool, uint32_t key_size,
                              uint32_t value_size);

  /// Opens an existing tree from page 0 of `pool`'s file.
  ///
  /// @pre `pool` is non-null and outlives the tree.
  /// @return the tree, or Corruption if the meta page fails validation
  ///         (magic, sizes, root id), or IOError.
  [[nodiscard]] static Result<BTree> Open(BufferPool* pool);

  /// Opens a tree whose meta page is unreadable (torn by a crash) from a
  /// WAL commit record instead: the geometry comes from the WAL header and
  /// the root from the commit. The caller must verify the result
  /// (VerifyStructure) and re-checkpoint the meta page.
  [[nodiscard]] static Result<BTree> OpenRecovered(BufferPool* pool,
                                                   uint32_t key_size,
                                                   uint32_t value_size,
                                                   const WalCommit& commit);

  ~BTree();
  BTree(BTree&&) noexcept;
  BTree& operator=(BTree&&) noexcept;

  /// Inserts one entry into the open COW batch, copying the root-to-leaf
  /// path it touches and leaving all published generations intact.
  ///
  /// @pre key/value sizes match the tree's configuration; a batch is open.
  /// @post the batch's entry count grows by one; splits may add pages but
  ///       never move existing entries to earlier keys.
  /// @return OK, InvalidArgument on a size mismatch, outside a batch
  ///         ("no COW batch open") or for a key already in the tree ("key
  ///         already in B+-tree"; nothing is copied, so the batch stays as
  ///         it was and can still commit or abort), or a page I/O error.
  [[nodiscard]] Status Insert(std::string_view key, std::string_view value);

  /// Bulk-loads `entries` — which must be sorted by key, strictly
  /// ascending — into a freshly created, still-empty tree,
  /// building 100%-packed leaves left to right and the inner levels bottom
  /// up. One sequential pass instead of n random root-to-leaf descents:
  /// every page is written exactly once and leaves carry no split slack.
  /// Later changes go through COW batches as usual.
  ///
  /// @pre the tree is freshly created and empty; `entries` is sorted.
  /// @return OK, InvalidArgument if the tree is not empty, the input is
  ///         not strictly ascending, or any key/value has the wrong size;
  ///         else I/O errors from page writes.
  [[nodiscard]] Status BulkLoad(
      const std::vector<std::pair<std::string, std::string>>& entries);

  // --- COW batch (generation N -> N+1) --------------------------------------

  /// Starts building generation N+1. Inserts are accepted until
  /// PrepareCommit/AbortBatch; readers keep serving generation N.
  [[nodiscard]] Status BeginBatch();

  /// Flushes every page of the pending generation and fsyncs the data file,
  /// then returns the commit record describing it (generation, root,
  /// height, entry count — the caller stamps its own fields and appends it
  /// to the WAL). The generation is NOT visible yet; call FinalizeCommit
  /// once the WAL append succeeded, or AbortBatch if it failed.
  [[nodiscard]] Result<WalCommit> PrepareCommit();

  /// Atomically publishes the prepared generation: readers arriving after
  /// this call see N+1; readers still pinning N keep their exact view.
  /// Marks the generation durable (the caller's WAL commit is fsync'd).
  void FinalizeCommit();

  /// Discards the pending generation: frees its fresh pages, restores the
  /// writer view to the published snapshot, and un-retires everything the
  /// batch superseded. Published generations are untouched (COW never
  /// mutates them), so this is exact. Pass `blank_pages = false` when the
  /// batch's WAL commit record may already be durable (an append or fsync
  /// failure after PrepareCommit): the fresh pages are then neither blanked
  /// on disk nor recycled, so a recovery that adopts the record finds them
  /// exactly as flushed.
  void AbortBatch(bool blank_pages = true);

  /// Adopts a WAL commit record on top of an opened tree (roll-forward):
  /// repoints the writer view and published snapshot at the committed
  /// generation. Validates the record against the file bounds.
  [[nodiscard]] Status AdoptCommit(const WalCommit& commit);

  /// Registers pages (e.g. found unreachable by recovery) as reusable by
  /// future allocations.
  void AddReusablePages(const std::vector<PageId>& pages);

  /// Forward iterator over (key, value) pairs in key order. Holds a pin on
  /// the generation it was created from: the writer may commit newer
  /// generations while it runs, and it will keep seeing its own. It crosses
  /// leaf boundaries through its root-to-leaf path, re-fetching inner pages
  /// of that generation, which no later commit modifies.
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    std::string_view key() const;
    std::string_view value() const;
    /// Advances; sets Valid() false at the end. Returns a Status because
    /// advancing may read a page.
    [[nodiscard]] Status Next();

   private:
    friend class BTree;
    /// Moves past leaves with no entry at or after index_; clears valid_
    /// after the last leaf.
    [[nodiscard]] Status SkipExhaustedLeaves();

    BTree* tree_ = nullptr;
    std::shared_ptr<const Snapshot> snap_;
    std::vector<PathFrame> path_;  // inner levels above leaf_, in snap_
    PageHandle leaf_;
    uint16_t index_ = 0;
    bool valid_ = false;
  };

  /// Positions an iterator at the first entry with key >= `key`.
  ///
  /// @return the iterator (Valid() false when every key is smaller), or a
  ///         page read error. The iterator pins its leaf and its
  ///         generation; it must not outlive the tree.
  [[nodiscard]] Result<Iterator> Seek(std::string_view key);

  /// Positions an iterator at the smallest key.
  ///
  /// @return the iterator (Valid() false on an empty tree), or a page read
  ///         error.
  [[nodiscard]] Result<Iterator> SeekFirst();

  /// Writes all dirty pages and the meta page back to the file.
  ///
  /// @post on OK every modification so far is in the file (though not
  ///       necessarily fsync'ed — that is PageFile::Sync's job).
  /// @return OK or the first page write error.
  [[nodiscard]] Status Flush();

  /// Durable checkpoint: Flush + data-file fsync. After it returns OK the
  /// meta page carries the current root and generation, so the tree is
  /// self-contained (the WAL, if any, can be reset) and every page retired
  /// at or before this generation is safe to recycle on disk.
  [[nodiscard]] Status Checkpoint();

  /// Full structural audit, independent of page checksums: walks every node
  /// from the root checking node types, depths (all leaves at height_),
  /// fanout bounds, empty leaves (legal only as the root of an empty tree),
  /// strictly ascending separators and keys, child-id ranges, cycles,
  /// strictly ascending keys across the leaves, and that the leaf entry
  /// total matches the meta entry count. Returns kCorruption with a
  /// description of the first violation. Catches damage that per-page CRCs
  /// cannot — pages that are internally consistent but mutually inconsistent
  /// (e.g. a crash that persisted only some dirty pages).
  ///
  /// @return OK, Corruption with the first violation, or a page I/O error.
  [[nodiscard]] Status VerifyStructure();

  /// VerifyStructure that additionally reports every page reachable from
  /// the current root (the generation-reachability set: meta page 0 is not
  /// included). Recovery uses the complement to rebuild free-page tracking
  /// and to quarantine torn never-referenced pages.
  [[nodiscard]] Status VerifyAndCollect(std::unordered_set<PageId>* reachable);

  /// Entry count of the last published snapshot — safe to call from reader
  /// threads while a batch writer is mid-commit (the writer's in-flight
  /// count becomes visible only at FinalizeCommit).
  uint64_t num_entries() const;
  uint32_t height() const { return height_; }
  uint32_t key_size() const { return key_size_; }
  uint32_t value_size() const { return value_size_; }
  /// Generation of the last published (committed or opened) snapshot.
  uint64_t generation() const;
  bool in_batch() const;

  /// Total on-disk size in bytes (page count * page size).
  uint64_t SizeBytes() const {
    return static_cast<uint64_t>(pool_->file()->num_pages()) * kPageSize;
  }

 private:
  explicit BTree(BufferPool* pool);

  // Node accessors (operate on raw page bytes).
  static uint8_t NodeType(const char* page);
  static uint16_t NodeCount(const char* page);
  static void SetNodeType(char* page, uint8_t type);
  static void SetNodeCount(char* page, uint16_t count);
  static uint32_t NodeLink(const char* page);
  static void SetNodeLink(char* page, uint32_t link);

  size_t LeafEntrySize() const { return key_size_ + value_size_; }
  size_t InnerEntrySize() const { return key_size_ + 4; }
  uint16_t LeafCapacity() const {
    return static_cast<uint16_t>((kPageSize - 8) / LeafEntrySize());
  }
  uint16_t InnerCapacity() const {
    return static_cast<uint16_t>((kPageSize - 8) / InnerEntrySize());
  }

  char* LeafEntry(char* page, uint16_t i) const {
    return page + 8 + i * LeafEntrySize();
  }
  const char* LeafEntry(const char* page, uint16_t i) const {
    return page + 8 + i * LeafEntrySize();
  }
  char* InnerEntry(char* page, uint16_t i) const {
    return page + 8 + i * InnerEntrySize();
  }
  const char* InnerEntry(const char* page, uint16_t i) const {
    return page + 8 + i * InnerEntrySize();
  }
  uint32_t InnerChild(const char* page, uint16_t i) const;
  void SetInnerChild(char* page, uint16_t i, PageId child) const;

  int CompareKey(const char* a, std::string_view b) const;

  /// Debug-build structural validation of one node: plausible type, count
  /// within fanout capacity, keys/separators strictly ascending, and a
  /// live child-0 link for inner nodes. Called after every mutation that
  /// restructures a node (bulk load, insert, split). Compiles to nothing
  /// unless FIX_ENABLE_DCHECKS is defined.
#if FIX_DCHECKS_ENABLED
  void DcheckNodeInvariants(const char* page) const;
#else
  void DcheckNodeInvariants(const char*) const {}
#endif

  /// First leaf index with entry key >= key (lower bound).
  uint16_t LeafLowerBound(const char* page, std::string_view key) const;
  /// Child index to descend into for `key` (upper bound: the number of
  /// separators <= key).
  uint16_t InnerChildIndex(const char* page, std::string_view key) const;

  [[nodiscard]] Status WriteMeta();
  [[nodiscard]] Status ReadMeta();

  /// Recursive helper for VerifyStructure: validates the subtree under
  /// `id` (expected at `depth`, root = 1) and appends leaves in order.
  [[nodiscard]] Status VerifyNode(PageId id, uint32_t depth,
                                  std::unordered_set<PageId>* visited,
                                  std::vector<PageId>* leaves);

  /// Descends from `root` by `key`, recording the inner path in `*path`,
  /// and returns the pinned leaf that would contain `key`.
  [[nodiscard]] Result<PageHandle> DescendPath(PageId root,
                                               std::string_view key,
                                               std::vector<PathFrame>* path);

  /// Steps `*leaf` to the next leaf in key order through `path` (its inner
  /// levels, updated in place); `*leaf` is released past the last leaf.
  [[nodiscard]] Status NextLeaf(std::vector<PathFrame>* path,
                                PageHandle* leaf);

  // --- COW machinery (batch path; see btree.cc) -----------------------------

  [[nodiscard]] Result<PageHandle> AllocNodePage();
  bool IsFresh(PageId id) const;
  void Retire(PageId id);

  /// Copies node `old_id` into a fresh page; retires the original. Returns
  /// the pinned copy.
  [[nodiscard]] Result<PageHandle> CowPage(PageId old_id);

  /// Makes every node on `path` plus `*leaf` fresh (copy-on-write),
  /// patching parent child slots. Updates the path ids in place and
  /// repoints `*leaf` at the pinned copy.
  [[nodiscard]] Status CowPath(std::vector<PathFrame>* path, PageHandle* leaf);

  /// Publishes the current writer view as generation `gen`.
  void Publish(uint64_t gen);

  /// Moves retired pages whose generation constraints are satisfied onto
  /// the reusable list.
  void PromoteRetired();

  BufferPool* pool_;
  uint32_t key_size_ = 0;
  uint32_t value_size_ = 0;
  // Writer view: the generation under construction during a batch, the
  // published generation otherwise.
  PageId root_ = kInvalidPage;
  uint32_t height_ = 1;  // 1 = root is a leaf
  uint64_t num_entries_ = 0;
  // Heap-allocated shared state (snapshot handoff, generation pins, free
  // pages) so the tree stays movable while iterators hold stable pointers.
  std::unique_ptr<struct BTreeState> state_;
};

}  // namespace fix

#endif  // FIX_STORAGE_BTREE_H_
