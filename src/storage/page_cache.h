// LRU page cache keyed by device LBA, with sequential read-ahead, write-back
// dirty tracking, and dirty-threshold throttling. Blocking variants of the
// operations (for simulated threads) live in StorageStack; the cache itself
// exposes a callback-based interface plus bookkeeping.
//
// Layout: every resident block owns one slot of a flat slot array. Slots are
// threaded onto two intrusive doubly linked lists by index: the LRU list of
// all resident blocks, and the dirty list of the dirty ones. Freed slots are
// reused through a free list. An open-addressed table (linear probing,
// backward-shift deletion) maps an LBA to its slot. Both arrays grow
// geometrically from empty and are never reserved to capacity, and no
// operation allocates per block.
//
// Invariant: the dirty list holds exactly the dirty blocks, in the same
// relative order as the LRU list. Every move to the LRU front of a dirty
// block moves it to the dirty front too, so the oldest dirty block is always
// the dirty tail and CollectOldestDirty(k) costs O(k).
#ifndef SRC_STORAGE_PAGE_CACHE_H_
#define SRC_STORAGE_PAGE_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/storage/block_device.h"
#include "src/storage/io_scheduler.h"

namespace artc::storage {

struct PageCacheParams {
  uint64_t capacity_blocks = 262144;  // 1 GB
  uint32_t readahead_blocks = 32;     // extra blocks fetched on sequential miss
  // Write-back throttling: when dirty blocks exceed this fraction of
  // capacity, writers synchronously flush the oldest dirty blocks.
  double dirty_ratio = 0.4;
  TimeNs hit_cost = Us(2);            // CPU cost of a cache-hit block copy
};

class PageCache {
 public:
  PageCache(sim::Simulation* simulation, IoScheduler* scheduler, PageCacheParams params);

  // True if the block is resident.
  bool Resident(uint64_t lba) const;

  // Inserts blocks as clean (used by read completion) or dirty (writes).
  void InsertClean(uint64_t lba, uint32_t nblocks);
  void InsertDirty(uint64_t lba, uint32_t nblocks);

  // Marks the block most-recently-used if it is resident, and returns
  // whether it was: a cache hit costs one index probe.
  bool Touch(uint64_t lba);

  // Removes blocks (e.g., on file deletion) without write-back.
  void Invalidate(uint64_t lba, uint32_t nblocks);

  // Returns the dirty blocks within [lba, lba+n) in ascending LBA order,
  // clearing their dirty bits (the caller is responsible for writing them
  // to the device).
  std::vector<uint64_t> CollectDirty(uint64_t lba, uint32_t nblocks);

  // Pops up to max_blocks of the oldest dirty blocks, oldest first (for
  // throttled write-back), clearing dirty bits.
  std::vector<uint64_t> CollectOldestDirty(uint32_t max_blocks);

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

  // Evicts LRU blocks until size <= capacity. Returns dirty blocks that had
  // to be evicted and must be written out by the caller.
  std::vector<uint64_t> EvictToCapacity();

  // Drops everything (clean and dirty) — used between benchmark phases to
  // model "echo 3 > /proc/sys/vm/drop_caches".
  void DropAll();

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  // dirty_prev of a block that is not on the dirty list.
  static constexpr uint32_t kClean = UINT32_MAX - 1;

  struct Slot {
    uint64_t lba = 0;
    uint32_t lru_prev = kNil;  // towards the LRU head (more recent)
    uint32_t lru_next = kNil;  // towards the LRU tail; free-list link when free
    uint32_t dirty_prev = kClean;
    uint32_t dirty_next = kNil;
    bool dirty() const { return dirty_prev != kClean; }
  };
  // One bucket of the LBA index: the low 32 bits of the LBA, which place
  // the bucket and filter probes without touching the slot array, and the
  // slot; slot == kNil marks the bucket empty.
  struct Bucket {
    uint32_t tag = 0;
    uint32_t slot = kNil;
  };

  size_t Home(uint32_t tag) const;
  // The bucket holding lba, or the empty bucket where it would go. The
  // index must be non-empty.
  size_t Probe(uint64_t lba) const;
  // The slot holding lba, or kNil.
  uint32_t Find(uint64_t lba) const;
  // Doubles the index if one more block would push it past its load limit.
  void ReserveForInsert();
  void EraseBucket(size_t i);

  // Takes a slot for a new block and puts it at the LRU front (and the
  // dirty front if dirty). The caller files it in the index.
  uint32_t NewSlot(uint64_t lba, bool dirty);
  // Drops the block in index bucket i from both lists and frees its slot.
  void Remove(size_t i);

  void LruUnlink(uint32_t s);
  void LruPushFront(uint32_t s);
  void DirtyUnlink(uint32_t s);
  void DirtyPushFront(uint32_t s);
  // Moves a resident block to the LRU front, and to the dirty front if dirty.
  void MoveToFront(uint32_t s);
  // Clears a dirty block's bit and takes it off the dirty list.
  void Clean(uint32_t s);

  sim::Simulation* sim_;
  IoScheduler* scheduler_;
  PageCacheParams params_;

  std::vector<Slot> slots_;
  uint32_t free_head_ = kNil;
  std::vector<Bucket> index_;  // power-of-two size, or empty
  uint32_t index_shift_ = 32;  // 32 - log2(index_.size())
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
