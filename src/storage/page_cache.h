// LRU page cache keyed by device LBA, with sequential read-ahead, write-back
// dirty tracking, and dirty-threshold throttling. Blocking variants of the
// operations (for simulated threads) live in StorageStack; the cache itself
// exposes bookkeeping only.
//
// The cache behaves exactly like a per-block LRU list with a dirty bit per
// block, but it stores runs. A run is a stretch [lba, lba+n) of resident
// blocks inside one 32-block chunk (lba >> 5 is the same for all of them)
// that share one dirty state and sit next to each other in LRU order, with
// recency ascending with LBA: lba is the run's oldest block, lba+n-1 its
// most recent. Each run owns one slot of a flat slot array, threaded by
// index onto two intrusive doubly linked lists: the LRU list of all runs and
// the dirty list of the dirty ones. Freed slots are reused through a free
// list. An open-addressed table (linear probing, backward-shift deletion)
// maps each chunk to its residency and run-start bitmaps and to its runs'
// slots: held in the entry while the chunk has at most two runs, else in a
// pooled 32-entry block indexed by start position. The arrays grow
// geometrically from empty and are never reserved to capacity, and no
// operation allocates per block or per run once they have grown.
//
// Invariant: the dirty list holds exactly the dirty runs, in the same
// relative order as the LRU list. Every move of a dirty run to the LRU front
// moves it to the dirty front too, so the oldest dirty block is the first
// block of the dirty tail and CollectOldestDirty(k) costs O(runs it takes).
//
// Operations cost O(runs touched + chunks spanned), not O(blocks): a partial
// touch, re-dirty, invalidate or clean splits a run in place, and a run moved
// to the LRU front merges into the front run when it continues that run's
// LBAs in the same chunk with the same dirty state.
#ifndef SRC_STORAGE_PAGE_CACHE_H_
#define SRC_STORAGE_PAGE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/time.h"

namespace artc::storage {

struct PageCacheParams {
  uint64_t capacity_blocks = 262144;  // 1 GB
  uint32_t readahead_blocks = 32;     // extra blocks fetched on sequential miss
  // Write-back throttling: when dirty blocks exceed this fraction of
  // capacity, writers synchronously flush the oldest dirty blocks.
  double dirty_ratio = 0.4;
  TimeNs hit_cost = Us(2);            // CPU cost of a cache-hit block copy
};

// The blocks [lba, lba + nblocks).
struct BlockRun {
  uint64_t lba = 0;
  uint32_t nblocks = 0;
};

// A block sequence as runs. Calls that return blocks append to one of
// these, so callers can reuse its storage.
using BlockRuns = std::vector<BlockRun>;

class PageCache {
 public:
  explicit PageCache(PageCacheParams params);

  // True if the block is resident.
  bool Resident(uint64_t lba) const;

  // The first resident block in [lba, end), or end if there is none.
  uint64_t FirstResident(uint64_t lba, uint64_t end) const;

  // Inserts blocks as clean (used by read completion) or dirty (writes),
  // each most recently used in ascending LBA order. InsertClean leaves a
  // resident dirty block dirty.
  void InsertClean(uint64_t lba, uint32_t nblocks);
  void InsertDirty(uint64_t lba, uint32_t nblocks);

  // Marks the blocks of the resident prefix of [lba, end) most recently
  // used, in ascending LBA order, and returns the end of that prefix: the
  // first block that is not resident, or end.
  uint64_t TouchResident(uint64_t lba, uint64_t end);

  // Marks the block most-recently-used if it is resident, and returns
  // whether it was.
  bool Touch(uint64_t lba) { return TouchResident(lba, lba + 1) > lba; }

  // Removes blocks (e.g., on file deletion) without write-back.
  void Invalidate(uint64_t lba, uint32_t nblocks);

  // Appends the dirty blocks within [lba, lba+n) to *out in ascending LBA
  // order, clearing their dirty bits (the caller is responsible for writing
  // them to the device).
  void CollectDirty(uint64_t lba, uint32_t nblocks, BlockRuns* out);

  // Appends up to max_blocks of the oldest dirty blocks to *out, oldest
  // first (for throttled write-back), clearing their dirty bits.
  void CollectOldestDirty(uint32_t max_blocks, BlockRuns* out);

  bool OverDirtyLimit() const;
  uint64_t DirtyCount() const { return dirty_count_; }
  uint64_t ResidentCount() const { return resident_count_; }
  uint64_t HitBlocks() const { return hit_blocks_; }
  uint64_t MissBlocks() const { return miss_blocks_; }
  uint64_t EvictedBlocks() const { return evicted_blocks_; }
  uint64_t WritebackBlocks() const { return writeback_blocks_; }
  void CountHit(uint32_t nblocks);
  void CountMiss(uint32_t nblocks);

  const PageCacheParams& params() const { return params_; }

  // Evicts LRU blocks until size <= capacity, oldest first, and appends the
  // dirty ones among them to *dirty_out in eviction order: the caller must
  // write them out.
  void EvictToCapacity(BlockRuns* dirty_out);

  // Drops everything (clean and dirty) — used between benchmark phases to
  // model "echo 3 > /proc/sys/vm/drop_caches".
  void DropAll();

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  // dirty_prev of a run that is not on the dirty list.
  static constexpr uint32_t kClean = UINT32_MAX - 1;

  // One run's slot, 24 bytes. A run never crosses a chunk, so its length
  // fits in 6 bits.
  struct Run {
    uint64_t lba : 58;
    uint64_t len : 6;
    uint32_t lru_prev;    // towards the LRU head (more recent)
    uint32_t lru_next;    // towards the LRU tail; free-list link when free
    uint32_t dirty_prev;  // kClean when not on the dirty list
    uint32_t dirty_next;
    uint64_t end() const { return lba + len; }
    bool dirty() const { return dirty_prev != kClean; }
  };
  // One chunk, 20 bytes: bit i of each bitmap stands for block (id << 5) + i.
  // resident == 0 marks an empty bucket; a chunk leaves the table with its
  // last block. With one or two runs, `runs` holds their slots, lowest
  // first. With more, runs[0] is the chunk's block in the dense pool, which
  // holds each run's slot at the run's start position.
  struct Chunk {
    uint32_t id = 0;
    uint32_t resident = 0;
    uint32_t starts = 0;  // first blocks of runs
    uint32_t runs[2] = {kNil, kNil};
    bool used() const { return resident != 0; }
  };

  // Chunk table. ChunkIndex returns the bucket of lba's chunk, or the empty
  // bucket where it would go; ChunkFor adds the chunk if missing, and the
  // caller must set a residency bit before the next probe. Growing or
  // erasing moves buckets, so callers hold bucket indices only until then.
  size_t ChunkIndex(uint64_t lba) const;
  const Chunk* FindChunk(uint64_t lba) const;
  size_t ChunkFor(uint64_t lba);
  // Clears [lba, lba+n) from the residency bits of its chunk, in bucket i,
  // dropping the chunk when that was its last block.
  void ClearResident(size_t i, uint64_t lba, uint64_t n);

  // Dense blocks, 32 slots each; a free block's first entry links the
  // next free one.
  uint32_t AllocDense();
  void FreeDense(uint32_t block);

  // Records slot s as the run starting at lba, or forgets the run starting
  // at lba, in lba's chunk c.
  void AddStart(Chunk& c, uint64_t lba, uint32_t s);
  void EraseStart(Chunk& c, uint64_t lba);
  // Moves the start of run s from `from` to `to` in their chunk c, when no
  // other run starts in [from, to).
  void MoveStart(Chunk& c, uint64_t from, uint64_t to, uint32_t s);
  // The slot of the run holding lba, which c marks resident.
  uint32_t RunHolding(const Chunk& c, uint64_t lba) const;
  // The slot of the run holding lba, or kNil; sets *ci to its chunk's
  // bucket when there is one.
  uint32_t FindRun(uint64_t lba, size_t* ci) const;

  uint32_t AllocSlot();
  void FreeSlot(uint32_t s);

  void LruUnlink(uint32_t s);
  void LruPushFront(uint32_t s);
  void DirtyUnlink(uint32_t s);
  void DirtyPushFront(uint32_t s);

  // Whether blocks starting at lba with the given dirty state continue the
  // LRU-front run: it ends at lba, in lba's chunk, with the same state.
  bool ContinuesFront(uint64_t lba, bool dirty) const;
  // Puts the missing blocks [lba, lba+n), all in the chunk in bucket ci, at
  // the LRU front as one run, or appends them to the front run when they
  // continue it.
  void AddRun(size_t ci, uint64_t lba, uint64_t n, bool dirty);
  // The run operations below take the bucket ci of the run's chunk; they
  // neither add nor drop chunks, so it stays valid throughout.
  //
  // Splits run s = [lba, end) at lba < at < end: s keeps [lba, at), and the
  // returned new run holds [at, end) one place more recent, on both lists.
  uint32_t Split(size_t ci, uint32_t s, uint64_t at);
  // Splits run s so that its part [from, to) is a run of its own, and
  // returns that run.
  uint32_t Isolate(size_t ci, uint32_t s, uint64_t from, uint64_t to);
  // Moves [at, min(end, run end)) of run s, which holds at, to the LRU front
  // in ascending order, dirtying it if make_dirty. Returns where it stopped.
  uint64_t Promote(size_t ci, uint32_t s, uint64_t at, uint64_t end, bool make_dirty);
  // Moves run s to the LRU front (and the dirty front if it is or becomes
  // dirty), merging it into the front run when it continues that run.
  void ToFront(size_t ci, uint32_t s, bool make_dirty);
  // Takes [from, to) of run s off the cache.
  void RemoveFromRun(uint32_t s, uint64_t from, uint64_t to);
  // Clears a dirty run's state and takes it off the dirty list.
  void Clean(uint32_t s);
  void Insert(uint64_t lba, uint32_t nblocks, bool dirty);

  PageCacheParams params_;

  std::vector<Run> slots_;
  uint32_t free_head_ = kNil;
  std::vector<Chunk> chunks_;    // power-of-two size, or empty
  uint32_t chunk_shift_ = 64;    // 64 - log2(chunks_.size())
  uint64_t chunk_count_ = 0;
  std::vector<uint32_t> dense_;  // 32-slot blocks
  uint32_t dense_free_ = kNil;
  uint32_t lru_head_ = kNil;   // most recent
  uint32_t lru_tail_ = kNil;   // least recent
  uint32_t dirty_head_ = kNil;
  uint32_t dirty_tail_ = kNil;

  uint64_t resident_count_ = 0;
  uint64_t dirty_count_ = 0;
  uint64_t hit_blocks_ = 0;
  uint64_t miss_blocks_ = 0;
  uint64_t evicted_blocks_ = 0;
  uint64_t writeback_blocks_ = 0;
};

}  // namespace artc::storage

#endif  // SRC_STORAGE_PAGE_CACHE_H_
