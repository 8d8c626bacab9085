#include "src/storage/page_cache.h"

#include <algorithm>
#include <bit>

#include "src/obs/obs.h"
#include "src/util/check.h"

namespace artc::storage {

PageCache::PageCache(sim::Simulation* simulation, IoScheduler* scheduler,
                     PageCacheParams params)
    : sim_(simulation), scheduler_(scheduler), params_(params) {
  (void)sim_;
  (void)scheduler_;
}

void PageCache::CountHit(uint32_t nblocks) {
  hit_blocks_ += nblocks;
  ARTC_OBS_COUNT("page_cache.hit_blocks", nblocks);
}

void PageCache::CountMiss(uint32_t nblocks) {
  miss_blocks_ += nblocks;
  ARTC_OBS_COUNT("page_cache.miss_blocks", nblocks);
}

// ---------------------------------------------------------------------------
// LBA index: open addressing with linear probing. Fibonacci hashing spreads
// runs of consecutive LBAs, which are the common key pattern.

size_t PageCache::Home(uint32_t tag) const {
  return static_cast<size_t>((tag * 0x9E3779B9U) >> index_shift_);
}

size_t PageCache::Probe(uint64_t lba) const {
  const size_t mask = index_.size() - 1;
  const auto tag = static_cast<uint32_t>(lba);
  size_t i = Home(tag);
  while (index_[i].slot != kNil &&
         (index_[i].tag != tag || slots_[index_[i].slot].lba != lba)) {
    i = (i + 1) & mask;
  }
  return i;
}

uint32_t PageCache::Find(uint64_t lba) const {
  return index_.empty() ? kNil : index_[Probe(lba)].slot;
}

void PageCache::ReserveForInsert() {
  // Keep the load factor at or below 0.7 so probe runs stay short.
  if ((resident_count_ + 1) * 10 <= index_.size() * 7) {
    return;
  }
  std::vector<Bucket> old = std::move(index_);
  const size_t size = old.empty() ? 16 : old.size() * 2;
  index_.assign(size, Bucket{});
  index_shift_ = 32 - static_cast<uint32_t>(std::countr_zero(size));
  for (const Bucket& b : old) {
    if (b.slot == kNil) {
      continue;
    }
    size_t i = Home(b.tag);
    while (index_[i].slot != kNil) {
      i = (i + 1) & (size - 1);
    }
    index_[i] = b;
  }
}

void PageCache::EraseBucket(size_t i) {
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless that would move one before its home bucket.
  const size_t mask = index_.size() - 1;
  size_t j = i;
  for (;;) {
    j = (j + 1) & mask;
    if (index_[j].slot == kNil) {
      break;
    }
    if (((j - Home(index_[j].tag)) & mask) >= ((j - i) & mask)) {
      index_[i] = index_[j];
      i = j;
    }
  }
  index_[i] = Bucket{};
}

// ---------------------------------------------------------------------------
// Slots and the two intrusive lists.

uint32_t PageCache::NewSlot(uint64_t lba, bool dirty) {
  uint32_t s = free_head_;
  if (s != kNil) {
    free_head_ = slots_[s].lru_next;
  } else {
    ARTC_CHECK(slots_.size() < kClean);  // both sentinels stay unused as indices
    s = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[s] = Slot{lba, kNil, kNil, kClean, kNil};
  LruPushFront(s);
  if (dirty) {
    DirtyPushFront(s);
    dirty_count_++;
  }
  resident_count_++;
  return s;
}

void PageCache::Remove(size_t bucket) {
  const uint32_t s = index_[bucket].slot;
  if (slots_[s].dirty()) {
    Clean(s);
  }
  LruUnlink(s);
  EraseBucket(bucket);
  slots_[s].lru_next = free_head_;
  free_head_ = s;
  resident_count_--;
}

void PageCache::LruUnlink(uint32_t s) {
  Slot& e = slots_[s];
  (e.lru_prev != kNil ? slots_[e.lru_prev].lru_next : lru_head_) = e.lru_next;
  (e.lru_next != kNil ? slots_[e.lru_next].lru_prev : lru_tail_) = e.lru_prev;
}

void PageCache::LruPushFront(uint32_t s) {
  Slot& e = slots_[s];
  e.lru_prev = kNil;
  e.lru_next = lru_head_;
  (lru_head_ != kNil ? slots_[lru_head_].lru_prev : lru_tail_) = s;
  lru_head_ = s;
}

void PageCache::DirtyUnlink(uint32_t s) {
  Slot& e = slots_[s];
  (e.dirty_prev != kNil ? slots_[e.dirty_prev].dirty_next : dirty_head_) = e.dirty_next;
  (e.dirty_next != kNil ? slots_[e.dirty_next].dirty_prev : dirty_tail_) = e.dirty_prev;
}

void PageCache::DirtyPushFront(uint32_t s) {
  Slot& e = slots_[s];
  e.dirty_prev = kNil;
  e.dirty_next = dirty_head_;
  (dirty_head_ != kNil ? slots_[dirty_head_].dirty_prev : dirty_tail_) = s;
  dirty_head_ = s;
}

void PageCache::MoveToFront(uint32_t s) {
  if (lru_head_ != s) {
    LruUnlink(s);
    LruPushFront(s);
  }
  if (slots_[s].dirty() && dirty_head_ != s) {
    DirtyUnlink(s);
    DirtyPushFront(s);
  }
}

void PageCache::Clean(uint32_t s) {
  DirtyUnlink(s);
  slots_[s].dirty_prev = kClean;
  dirty_count_--;
}

// ---------------------------------------------------------------------------
// Public operations.

bool PageCache::Resident(uint64_t lba) const { return Find(lba) != kNil; }

bool PageCache::Touch(uint64_t lba) {
  const uint32_t s = Find(lba);
  if (s == kNil) {
    return false;
  }
  MoveToFront(s);
  return true;
}

void PageCache::InsertClean(uint64_t lba, uint32_t nblocks) {
  for (uint64_t b = lba; b < lba + nblocks; ++b) {
    ReserveForInsert();
    Bucket& bucket = index_[Probe(b)];
    if (bucket.slot != kNil) {
      MoveToFront(bucket.slot);
      continue;
    }
    bucket = Bucket{static_cast<uint32_t>(b), NewSlot(b, /*dirty=*/false)};
  }
}

void PageCache::InsertDirty(uint64_t lba, uint32_t nblocks) {
  for (uint64_t b = lba; b < lba + nblocks; ++b) {
    ReserveForInsert();
    Bucket& bucket = index_[Probe(b)];
    if (bucket.slot == kNil) {
      bucket = Bucket{static_cast<uint32_t>(b), NewSlot(b, /*dirty=*/true)};
      continue;
    }
    const uint32_t s = bucket.slot;
    MoveToFront(s);
    if (!slots_[s].dirty()) {
      // s is the LRU head now, so the dirty front is its place in LRU order.
      DirtyPushFront(s);
      dirty_count_++;
    }
  }
}

void PageCache::Invalidate(uint64_t lba, uint32_t nblocks) {
  if (index_.empty()) {
    return;
  }
  for (uint64_t b = lba; b < lba + nblocks; ++b) {
    const size_t i = Probe(b);
    if (index_[i].slot != kNil) {
      Remove(i);
    }
  }
}

std::vector<uint64_t> PageCache::CollectDirty(uint64_t lba, uint32_t nblocks) {
  std::vector<uint64_t> out;
  for (uint64_t b = lba; b < lba + nblocks; ++b) {
    const uint32_t s = Find(b);
    if (s != kNil && slots_[s].dirty()) {
      Clean(s);
      out.push_back(b);
    }
  }
  writeback_blocks_ += out.size();
  ARTC_OBS_COUNT("page_cache.writeback_blocks", out.size());
  return out;
}

std::vector<uint64_t> PageCache::CollectOldestDirty(uint32_t max_blocks) {
  std::vector<uint64_t> out;
  while (out.size() < max_blocks && dirty_tail_ != kNil) {
    out.push_back(slots_[dirty_tail_].lba);
    Clean(dirty_tail_);
  }
  writeback_blocks_ += out.size();
  ARTC_OBS_COUNT("page_cache.writeback_blocks", out.size());
  return out;
}

bool PageCache::OverDirtyLimit() const {
  return static_cast<double>(dirty_count_) >
         params_.dirty_ratio * static_cast<double>(params_.capacity_blocks);
}

std::vector<uint64_t> PageCache::EvictToCapacity() {
  std::vector<uint64_t> dirty_evicted;
  const uint64_t before = resident_count_;
  while (resident_count_ > params_.capacity_blocks) {
    // The LRU tail goes whether clean or dirty; a dirty victim must be
    // written out by the caller before the space can be reused.
    const uint64_t victim = slots_[lru_tail_].lba;
    if (slots_[lru_tail_].dirty()) {
      dirty_evicted.push_back(victim);
    }
    Remove(Probe(victim));
  }
  const uint64_t evicted = before - resident_count_;
  if (evicted > 0) {
    evicted_blocks_ += evicted;
    writeback_blocks_ += dirty_evicted.size();
    ARTC_OBS_COUNT("page_cache.evicted_blocks", evicted);
    ARTC_OBS_COUNT("page_cache.writeback_blocks", dirty_evicted.size());
  }
  return dirty_evicted;
}

void PageCache::DropAll() {
  slots_.clear();
  std::fill(index_.begin(), index_.end(), Bucket{});
  free_head_ = kNil;
  lru_head_ = lru_tail_ = kNil;
  dirty_head_ = dirty_tail_ = kNil;
  resident_count_ = 0;
  dirty_count_ = 0;
}

}  // namespace artc::storage
