// Differential test of storage::PageCache against a reference model: the
// straightforward std::list + std::unordered_map LRU cache, one node of each
// per block. Both are driven with the same seeded random call sequences and
// must agree on every return value (the cache's block runs expanded to
// blocks, in order), every count and which blocks are resident after every
// step (which pins the eviction order).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/storage/page_cache.h"
#include "src/util/rng.h"

namespace artc::storage {
namespace {

class ReferencePageCache {
 public:
  explicit ReferencePageCache(PageCacheParams params) : params_(params) {}

  bool Resident(uint64_t lba) const { return map_.find(lba) != map_.end(); }

  void Insert(uint64_t lba, uint32_t nblocks, bool dirty) {
    for (uint64_t b = lba; b < lba + nblocks; ++b) {
      auto it = map_.find(b);
      if (it != map_.end()) {
        MoveToFront(it);
        if (dirty && !it->second.dirty) {
          it->second.dirty = true;
          dirty_count_++;
        }
        continue;
      }
      lru_.push_front(b);
      map_[b] = Entry{lru_.begin(), dirty};
      dirty_count_ += dirty ? 1 : 0;
    }
  }

  bool Touch(uint64_t lba) {
    auto it = map_.find(lba);
    if (it == map_.end()) {
      return false;
    }
    MoveToFront(it);
    return true;
  }

  uint64_t TouchResident(uint64_t lba, uint64_t end) {
    while (lba < end && Touch(lba)) {
      lba++;
    }
    return lba;
  }

  uint64_t FirstResident(uint64_t lba, uint64_t end) const {
    while (lba < end && !Resident(lba)) {
      lba++;
    }
    return lba;
  }

  // Every dirty block, ascending.
  std::vector<uint64_t> DirtyBlocks() const {
    std::vector<uint64_t> out;
    for (const auto& [lba, e] : map_) {
      if (e.dirty) {
        out.push_back(lba);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void Invalidate(uint64_t lba, uint32_t nblocks) {
    for (uint64_t b = lba; b < lba + nblocks; ++b) {
      auto it = map_.find(b);
      if (it != map_.end()) {
        dirty_count_ -= it->second.dirty ? 1 : 0;
        lru_.erase(it->second.lru_it);
        map_.erase(it);
      }
    }
  }

  std::vector<uint64_t> CollectDirty(uint64_t lba, uint32_t nblocks) {
    std::vector<uint64_t> out;
    for (uint64_t b = lba; b < lba + nblocks; ++b) {
      auto it = map_.find(b);
      if (it != map_.end() && it->second.dirty) {
        it->second.dirty = false;
        dirty_count_--;
        out.push_back(b);
      }
    }
    writeback_blocks_ += out.size();
    return out;
  }

  // Walks the whole LRU from its tail, skipping clean blocks.
  std::vector<uint64_t> CollectOldestDirty(uint32_t max_blocks) {
    std::vector<uint64_t> out;
    for (auto it = lru_.rbegin(); it != lru_.rend() && out.size() < max_blocks; ++it) {
      Entry& e = map_.at(*it);
      if (e.dirty) {
        e.dirty = false;
        dirty_count_--;
        out.push_back(*it);
      }
    }
    writeback_blocks_ += out.size();
    return out;
  }

  std::vector<uint64_t> EvictToCapacity() {
    std::vector<uint64_t> dirty_evicted;
    while (map_.size() > params_.capacity_blocks) {
      const uint64_t victim = lru_.back();
      auto it = map_.find(victim);
      if (it->second.dirty) {
        dirty_count_--;
        dirty_evicted.push_back(victim);
      }
      lru_.pop_back();
      map_.erase(it);
      evicted_blocks_++;
    }
    writeback_blocks_ += dirty_evicted.size();
    return dirty_evicted;
  }

  void DropAll() {
    lru_.clear();
    map_.clear();
    dirty_count_ = 0;
  }

  bool OverDirtyLimit() const {
    return static_cast<double>(dirty_count_) >
           params_.dirty_ratio * static_cast<double>(params_.capacity_blocks);
  }
  void CountHit(uint32_t nblocks) { hit_blocks_ += nblocks; }
  void CountMiss(uint32_t nblocks) { miss_blocks_ += nblocks; }
  uint64_t DirtyCount() const { return dirty_count_; }
  uint64_t ResidentCount() const { return map_.size(); }
  uint64_t HitBlocks() const { return hit_blocks_; }
  uint64_t MissBlocks() const { return miss_blocks_; }
  uint64_t EvictedBlocks() const { return evicted_blocks_; }
  uint64_t WritebackBlocks() const { return writeback_blocks_; }

 private:
  struct Entry {
    std::list<uint64_t>::iterator lru_it;
    bool dirty = false;
  };

  void MoveToFront(std::unordered_map<uint64_t, Entry>::iterator it) {
    lru_.erase(it->second.lru_it);
    lru_.push_front(it->first);
    it->second.lru_it = lru_.begin();
  }

  PageCacheParams params_;
  std::list<uint64_t> lru_;  // front = most recent
  std::unordered_map<uint64_t, Entry> map_;
  uint64_t dirty_count_ = 0;
  uint64_t hit_blocks_ = 0;
  uint64_t miss_blocks_ = 0;
  uint64_t evicted_blocks_ = 0;
  uint64_t writeback_blocks_ = 0;
};

std::vector<uint64_t> Blocks(const BlockRuns& runs) {
  std::vector<uint64_t> out;
  for (const BlockRun& r : runs) {
    EXPECT_GT(r.nblocks, 0u);
    for (uint64_t b = r.lba; b < r.lba + r.nblocks; ++b) {
      out.push_back(b);
    }
  }
  return out;
}

std::vector<uint64_t> CollectDirty(PageCache& cache, uint64_t lba, uint32_t nblocks) {
  BlockRuns runs;
  cache.CollectDirty(lba, nblocks, &runs);
  return Blocks(runs);
}

std::vector<uint64_t> CollectOldestDirty(PageCache& cache, uint32_t max_blocks) {
  BlockRuns runs;
  cache.CollectOldestDirty(max_blocks, &runs);
  return Blocks(runs);
}

std::vector<uint64_t> EvictToCapacity(PageCache& cache) {
  BlockRuns runs;
  cache.EvictToCapacity(&runs);
  return Blocks(runs);
}

// Asserts that the two caches agree on every count and on which blocks of
// [0, universe) are resident; with `dirty_set`, also on which are dirty.
void ExpectSameState(const PageCache& cache, const ReferencePageCache& ref,
                     uint64_t universe, bool dirty_set) {
  ASSERT_EQ(cache.DirtyCount(), ref.DirtyCount());
  ASSERT_EQ(cache.ResidentCount(), ref.ResidentCount());
  ASSERT_EQ(cache.HitBlocks(), ref.HitBlocks());
  ASSERT_EQ(cache.MissBlocks(), ref.MissBlocks());
  ASSERT_EQ(cache.EvictedBlocks(), ref.EvictedBlocks());
  ASSERT_EQ(cache.WritebackBlocks(), ref.WritebackBlocks());
  ASSERT_EQ(cache.OverDirtyLimit(), ref.OverDirtyLimit());
  for (uint64_t b = 0; b < universe; ++b) {
    ASSERT_EQ(cache.Resident(b), ref.Resident(b)) << "block " << b;
  }
  if (dirty_set) {
    // A copy collects the dirty set, so the cache under test keeps it.
    PageCache probe = cache;
    ASSERT_EQ(CollectDirty(probe, 0, static_cast<uint32_t>(universe)), ref.DirtyBlocks());
  }
}

// Runs `steps` random calls against both caches, asserting after each that
// they agree.
void RunDifferential(uint64_t capacity, uint64_t seed, int steps) {
  PageCacheParams params;
  params.capacity_blocks = capacity;
  PageCache cache(params);
  ReferencePageCache ref(params);
  Rng rng(seed);
  // LBAs span a few capacities so blocks are evicted, refetched and reused.
  const uint64_t universe = 3 * capacity + 8;
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "capacity " << capacity << " seed " << seed
                                      << " step " << step);
    const uint64_t lba = rng.NextBelow(universe);
    const uint32_t n = 1 + static_cast<uint32_t>(rng.NextBelow(4));
    const uint64_t op = rng.NextBelow(100);
    if (op < 18) {
      cache.InsertClean(lba, n);
      ref.Insert(lba, n, /*dirty=*/false);
    } else if (op < 36) {
      cache.InsertDirty(lba, n);
      ref.Insert(lba, n, /*dirty=*/true);
    } else if (op < 50) {
      const bool hit = cache.Touch(lba);
      ASSERT_EQ(hit, ref.Touch(lba));
      (hit ? cache.CountHit(1) : cache.CountMiss(1));
      (hit ? ref.CountHit(1) : ref.CountMiss(1));
    } else if (op < 55) {
      ASSERT_EQ(cache.Resident(lba), ref.Resident(lba));
    } else if (op < 60) {
      cache.Invalidate(lba, n);
      ref.Invalidate(lba, n);
    } else if (op < 68) {
      // Both short ranges and ones up to the whole LBA universe.
      const uint32_t len = rng.NextBool(0.5)
                               ? n
                               : static_cast<uint32_t>(1 + rng.NextBelow(universe));
      ASSERT_EQ(CollectDirty(cache, lba, len), ref.CollectDirty(lba, len));
    } else if (op < 76) {
      const auto k = static_cast<uint32_t>(rng.NextBelow(capacity + 3));
      ASSERT_EQ(CollectOldestDirty(cache, k), ref.CollectOldestDirty(k));
    } else if (op < 88) {
      ASSERT_EQ(EvictToCapacity(cache), ref.EvictToCapacity());
    } else if (op < 93) {
      // Collect the oldest dirty blocks, re-dirty each, then collect each
      // again one block at a time.
      const auto k = static_cast<uint32_t>(1 + rng.NextBelow(capacity + 2));
      std::vector<uint64_t> victims = CollectOldestDirty(cache, k);
      ASSERT_EQ(victims, ref.CollectOldestDirty(k));
      for (uint64_t b : victims) {
        cache.InsertDirty(b, 1);
        ref.Insert(b, 1, /*dirty=*/true);
      }
      for (uint64_t b : victims) {
        ASSERT_EQ(CollectDirty(cache, b, 1), ref.CollectDirty(b, 1));
      }
    } else if (op < 99) {
      // Collect the oldest dirty blocks and touch each (StorageStack's
      // FlushAllDirty).
      const auto k = static_cast<uint32_t>(1 + rng.NextBelow(capacity + 2));
      std::vector<uint64_t> victims = CollectOldestDirty(cache, k);
      ASSERT_EQ(victims, ref.CollectOldestDirty(k));
      for (uint64_t b : victims) {
        ASSERT_EQ(cache.Touch(b), ref.Touch(b));
      }
    } else {
      cache.DropAll();
      ref.DropAll();
    }
    ExpectSameState(cache, ref, universe, /*dirty_set=*/false);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(PageCacheDifferential, MatchesListMapReference) {
  for (uint64_t capacity : {1, 8, 64}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      RunDifferential(capacity, seed, 20000);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// The run-shaped variant: ranges are either 1-4 blocks or up to three
// capacities long, back-to-back inserts and touches of LBA-adjacent ranges
// build long runs (merges), and partial touches, cleans, invalidates and
// evictions cut them (splits). After every step the caches must also agree
// on the whole dirty set.
void RunRunDifferential(uint64_t capacity, uint64_t seed, int steps) {
  PageCacheParams params;
  params.capacity_blocks = capacity;
  PageCache cache(params);
  ReferencePageCache ref(params);
  Rng rng(seed);
  const uint64_t universe = 3 * capacity + 8;
  // Ranges start inside the universe but may run past it.
  const uint64_t span = universe + 3 * capacity + 6 * 96;
  auto length = [&] {
    return static_cast<uint32_t>(1 + (rng.NextBool(0.5) ? rng.NextBelow(4)
                                                        : rng.NextBelow(3 * capacity)));
  };
  // One insert (clean or dirty) or range touch, as the stack makes them.
  auto apply = [&](uint64_t op, uint64_t lba, uint32_t n) {
    if (op == 0) {
      cache.InsertClean(lba, n);
      ref.Insert(lba, n, /*dirty=*/false);
    } else if (op == 1) {
      cache.InsertDirty(lba, n);
      ref.Insert(lba, n, /*dirty=*/true);
    } else {
      ASSERT_EQ(cache.TouchResident(lba, lba + n), ref.TouchResident(lba, lba + n));
    }
  };
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "capacity " << capacity << " seed " << seed
                                      << " step " << step);
    const uint64_t lba = rng.NextBelow(universe);
    const uint32_t n = length();
    const uint64_t op = rng.NextBelow(100);
    if (op < 30) {
      apply(op % 3, lba, n);
    } else if (op < 45) {
      // Back-to-back LBA-adjacent ranges, mostly of one kind, so each
      // continues the front run.
      const uint64_t kind = rng.NextBelow(3);
      uint64_t at = lba;
      for (uint64_t i = 1 + rng.NextBelow(6); i > 0; --i) {
        const uint32_t len = 1 + static_cast<uint32_t>(rng.NextBelow(rng.NextBool(0.5) ? 4 : 96));
        apply(rng.NextBool(0.8) ? kind : rng.NextBelow(3), at, len);
        at += len;
      }
    } else if (op < 52) {
      ASSERT_EQ(cache.FirstResident(lba, lba + n), ref.FirstResident(lba, lba + n));
      ASSERT_EQ(cache.Touch(lba), ref.Touch(lba));
    } else if (op < 60) {
      cache.Invalidate(lba, n);
      ref.Invalidate(lba, n);
    } else if (op < 70) {
      ASSERT_EQ(CollectDirty(cache, lba, n), ref.CollectDirty(lba, n));
    } else if (op < 78) {
      const auto k = static_cast<uint32_t>(rng.NextBelow(2 * capacity + 3));
      ASSERT_EQ(CollectOldestDirty(cache, k), ref.CollectOldestDirty(k));
    } else if (op < 90) {
      ASSERT_EQ(EvictToCapacity(cache), ref.EvictToCapacity());
    } else if (op < 99) {
      // FlushAllDirty's shape: collect the oldest dirty blocks, then touch
      // them run by run, oldest first.
      const auto k = static_cast<uint32_t>(1 + rng.NextBelow(capacity + 2));
      BlockRuns victims;
      cache.CollectOldestDirty(k, &victims);
      ASSERT_EQ(Blocks(victims), ref.CollectOldestDirty(k));
      for (const BlockRun& r : victims) {
        ASSERT_EQ(cache.TouchResident(r.lba, r.lba + r.nblocks),
                  ref.TouchResident(r.lba, r.lba + r.nblocks));
      }
    } else {
      cache.DropAll();
      ref.DropAll();
    }
    ExpectSameState(cache, ref, span, /*dirty_set=*/true);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(PageCacheDifferential, MatchesListMapReferenceOnRuns) {
  for (uint64_t capacity : {1, 8, 64, 1024}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      RunRunDifferential(capacity, seed, capacity == 1024 ? 4000 : 10000);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

}  // namespace
}  // namespace artc::storage
