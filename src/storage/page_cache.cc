#include "src/storage/page_cache.h"

#include <algorithm>
#include <bit>

#include "src/obs/obs.h"
#include "src/util/check.h"

namespace artc::storage {

namespace {

// A chunk is 32 blocks, one bit each in a uint32_t bitmap.
constexpr uint32_t kChunkShift = 5;
constexpr uint64_t kChunkMask = 31;
// Chunk ids are 32 bits wide.
constexpr uint64_t kLbaLimit = uint64_t{1} << (32 + kChunkShift);

// Bits [lba, lba+n) of lba's chunk; the range must not leave the chunk.
uint32_t ChunkBits(uint64_t lba, uint64_t n) {
  return (n == 32 ? ~uint32_t{0} : (uint32_t{1} << n) - 1) << (lba & kChunkMask);
}

uint32_t ChunkBit(uint64_t lba) { return uint32_t{1} << (lba & kChunkMask); }

// Whether a run-start bitmap has three or more bits: a chunk with that many
// runs keeps their slots in a dense block.
bool Dense(uint32_t starts) {
  const uint32_t rest = starts & (starts - 1);
  return (rest & (rest - 1)) != 0;
}

// Fibonacci hashing spreads runs of consecutive chunk ids, the common key
// pattern.
size_t Home(uint32_t id, uint32_t shift) {
  return static_cast<size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift);
}

// Appends [lba, lba+n) to out, extending the last run when it continues it.
void AppendRun(BlockRuns* out, uint64_t lba, uint64_t n) {
  if (!out->empty() && out->back().lba + out->back().nblocks == lba) {
    out->back().nblocks += static_cast<uint32_t>(n);
  } else {
    out->push_back(BlockRun{lba, static_cast<uint32_t>(n)});
  }
}

}  // namespace

PageCache::PageCache(PageCacheParams params) : params_(params) {}

void PageCache::CountHit(uint32_t nblocks) {
  hit_blocks_ += nblocks;
  ARTC_OBS_COUNT("page_cache.hit_blocks", nblocks);
}

void PageCache::CountMiss(uint32_t nblocks) {
  miss_blocks_ += nblocks;
  ARTC_OBS_COUNT("page_cache.miss_blocks", nblocks);
}

// ---------------------------------------------------------------------------
// Chunk table.

size_t PageCache::ChunkIndex(uint64_t lba) const {
  const size_t mask = chunks_.size() - 1;
  const auto id = static_cast<uint32_t>(lba >> kChunkShift);
  size_t i = Home(id, chunk_shift_);
  while (chunks_[i].used() && chunks_[i].id != id) {
    i = (i + 1) & mask;
  }
  return i;
}

const PageCache::Chunk* PageCache::FindChunk(uint64_t lba) const {
  if (chunks_.empty() || lba >= kLbaLimit) {
    return nullptr;
  }
  const Chunk& c = chunks_[ChunkIndex(lba)];
  return c.used() ? &c : nullptr;
}

size_t PageCache::ChunkFor(uint64_t lba) {
  // Keep the load factor at or below 0.7 so probe runs stay short.
  if ((chunk_count_ + 1) * 10 > chunks_.size() * 7) {
    std::vector<Chunk> old = std::move(chunks_);
    const size_t size = old.empty() ? 16 : old.size() * 2;
    chunks_.assign(size, Chunk{});
    chunk_shift_ = 64 - static_cast<uint32_t>(std::countr_zero(size));
    for (const Chunk& c : old) {
      if (c.used()) {
        chunks_[ChunkIndex(uint64_t{c.id} << kChunkShift)] = c;
      }
    }
  }
  const size_t i = ChunkIndex(lba);
  if (!chunks_[i].used()) {
    chunks_[i].id = static_cast<uint32_t>(lba >> kChunkShift);
    chunk_count_++;
  }
  return i;
}

void PageCache::ClearResident(size_t i, uint64_t lba, uint64_t n) {
  chunks_[i].resident &= ~ChunkBits(lba, n);
  if (chunks_[i].resident != 0) {
    return;
  }
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless that would move one before its home bucket.
  const size_t mask = chunks_.size() - 1;
  for (size_t j = i;;) {
    j = (j + 1) & mask;
    if (!chunks_[j].used()) {
      break;
    }
    if (((j - Home(chunks_[j].id, chunk_shift_)) & mask) >= ((j - i) & mask)) {
      chunks_[i] = chunks_[j];
      i = j;
    }
  }
  chunks_[i] = Chunk{};
  chunk_count_--;
}

// ---------------------------------------------------------------------------
// Run starts. Most chunks hold one or two runs, so their slots live in the
// chunk entry; a chunk cut into more runs takes a 32-slot block from the
// dense pool while it has them.

uint32_t PageCache::AllocDense() {
  if (dense_free_ != kNil) {
    const uint32_t block = dense_free_;
    dense_free_ = dense_[block * 32];
    return block;
  }
  dense_.resize(dense_.size() + 32);
  return static_cast<uint32_t>(dense_.size() / 32 - 1);
}

void PageCache::FreeDense(uint32_t block) {
  dense_[block * 32] = dense_free_;
  dense_free_ = block;
}

void PageCache::AddStart(Chunk& c, uint64_t lba, uint32_t s) {
  const uint32_t bit = ChunkBit(lba);
  if (Dense(c.starts)) {
    dense_[c.runs[0] * 32 + (lba & kChunkMask)] = s;
  } else if (Dense(c.starts | bit)) {
    // A third run: the chunk's slots move into a dense block.
    const uint32_t block = AllocDense();
    uint32_t* slots = &dense_[block * 32];
    slots[std::countr_zero(c.starts)] = c.runs[0];
    slots[31 - std::countl_zero(c.starts)] = c.runs[1];
    slots[lba & kChunkMask] = s;
    c.runs[0] = block;
  } else if (c.starts == 0) {
    c.runs[0] = s;
  } else if (bit < c.starts) {
    c.runs[1] = c.runs[0];
    c.runs[0] = s;
  } else {
    c.runs[1] = s;
  }
  c.starts |= bit;
}

void PageCache::EraseStart(Chunk& c, uint64_t lba) {
  const uint32_t bit = ChunkBit(lba);
  const bool was_dense = Dense(c.starts);
  c.starts &= ~bit;
  if (was_dense && !Dense(c.starts)) {
    // Back to two runs: their slots move into the chunk entry.
    const uint32_t block = c.runs[0];
    const uint32_t* slots = &dense_[block * 32];
    c.runs[0] = slots[std::countr_zero(c.starts)];
    c.runs[1] = slots[31 - std::countl_zero(c.starts)];
    FreeDense(block);
  } else if (!was_dense && bit < c.starts) {
    c.runs[0] = c.runs[1];
  }
}

void PageCache::MoveStart(Chunk& c, uint64_t from, uint64_t to, uint32_t s) {
  // No other run starts in between, so the inline slots keep their order
  // and only a dense block needs the new position.
  c.starts ^= ChunkBit(from) | ChunkBit(to);
  if (Dense(c.starts)) {
    dense_[c.runs[0] * 32 + (to & kChunkMask)] = s;
  }
}

uint32_t PageCache::RunHolding(const Chunk& c, uint64_t lba) const {
  // The run holding lba starts at the last run start at or below it.
  const uint32_t below = c.starts & (~uint32_t{0} >> (kChunkMask - (lba & kChunkMask)));
  const auto pos = static_cast<uint32_t>(kChunkMask - std::countl_zero(below));
  if (Dense(c.starts)) {
    return dense_[c.runs[0] * 32 + pos];
  }
  return c.runs[pos == static_cast<uint32_t>(std::countr_zero(c.starts)) ? 0 : 1];
}

uint32_t PageCache::FindRun(uint64_t lba, size_t* ci) const {
  if (chunks_.empty() || lba >= kLbaLimit) {
    return kNil;
  }
  *ci = ChunkIndex(lba);
  const Chunk& c = chunks_[*ci];
  return (c.resident & ChunkBit(lba)) != 0 ? RunHolding(c, lba) : kNil;
}

// ---------------------------------------------------------------------------
// Slots and the two intrusive lists.

uint32_t PageCache::AllocSlot() {
  uint32_t s = free_head_;
  if (s != kNil) {
    free_head_ = slots_[s].lru_next;
  } else {
    ARTC_CHECK(slots_.size() < kClean);  // both sentinels stay unused as indices
    s = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  return s;
}

void PageCache::FreeSlot(uint32_t s) {
  slots_[s].lru_next = free_head_;
  free_head_ = s;
}

void PageCache::LruUnlink(uint32_t s) {
  Run& e = slots_[s];
  (e.lru_prev != kNil ? slots_[e.lru_prev].lru_next : lru_head_) = e.lru_next;
  (e.lru_next != kNil ? slots_[e.lru_next].lru_prev : lru_tail_) = e.lru_prev;
}

void PageCache::LruPushFront(uint32_t s) {
  Run& e = slots_[s];
  e.lru_prev = kNil;
  e.lru_next = lru_head_;
  (lru_head_ != kNil ? slots_[lru_head_].lru_prev : lru_tail_) = s;
  lru_head_ = s;
}

void PageCache::DirtyUnlink(uint32_t s) {
  Run& e = slots_[s];
  (e.dirty_prev != kNil ? slots_[e.dirty_prev].dirty_next : dirty_head_) = e.dirty_next;
  (e.dirty_next != kNil ? slots_[e.dirty_next].dirty_prev : dirty_tail_) = e.dirty_prev;
}

void PageCache::DirtyPushFront(uint32_t s) {
  Run& e = slots_[s];
  e.dirty_prev = kNil;
  e.dirty_next = dirty_head_;
  (dirty_head_ != kNil ? slots_[dirty_head_].dirty_prev : dirty_tail_) = s;
  dirty_head_ = s;
}

void PageCache::Clean(uint32_t s) {
  DirtyUnlink(s);
  slots_[s].dirty_prev = kClean;
  dirty_count_ -= slots_[s].len;
}

// ---------------------------------------------------------------------------
// Runs.

bool PageCache::ContinuesFront(uint64_t lba, bool dirty) const {
  if (lru_head_ == kNil || (lba & kChunkMask) == 0) {
    return false;
  }
  const Run& head = slots_[lru_head_];
  return head.end() == lba && head.dirty() == dirty;
}

void PageCache::AddRun(size_t ci, uint64_t lba, uint64_t n, bool dirty) {
  chunks_[ci].resident |= ChunkBits(lba, n);
  resident_count_ += n;
  dirty_count_ += dirty ? n : 0;
  if (ContinuesFront(lba, dirty)) {
    slots_[lru_head_].len += n;
    return;
  }
  const uint32_t s = AllocSlot();
  slots_[s] = Run{lba, n, kNil, kNil, kClean, kNil};
  AddStart(chunks_[ci], lba, s);
  LruPushFront(s);
  if (dirty) {
    DirtyPushFront(s);
  }
}

uint32_t PageCache::Split(size_t ci, uint32_t s, uint64_t at) {
  const uint32_t t = AllocSlot();
  Run& left = slots_[s];
  Run& right = slots_[t];
  right = Run{at, left.end() - at, left.lru_prev, s, kClean, kNil};
  left.len = at - left.lba;
  (right.lru_prev != kNil ? slots_[right.lru_prev].lru_next : lru_head_) = t;
  left.lru_prev = t;
  if (left.dirty()) {
    right.dirty_prev = left.dirty_prev;
    right.dirty_next = s;
    (right.dirty_prev != kNil ? slots_[right.dirty_prev].dirty_next : dirty_head_) = t;
    left.dirty_prev = t;
  }
  AddStart(chunks_[ci], at, t);
  return t;
}

uint32_t PageCache::Isolate(size_t ci, uint32_t s, uint64_t from, uint64_t to) {
  const Run r = slots_[s];
  if (from > r.lba) {
    s = Split(ci, s, from);
  }
  if (to < r.end()) {
    Split(ci, s, to);
  }
  return s;
}

uint64_t PageCache::Promote(size_t ci, uint32_t s, uint64_t at, uint64_t end,
                            bool make_dirty) {
  const Run r = slots_[s];
  const uint64_t to = std::min(r.end(), end);
  // A suffix of the front run is already its blocks' most recent order.
  if (s == lru_head_ && to == r.end() && (r.dirty() || !make_dirty)) {
    return to;
  }
  // A proper prefix that continues the front run moves into it directly,
  // instead of splitting off and merging back.
  const bool dirty = r.dirty() || make_dirty;
  if (at == r.lba && to < r.end() && ContinuesFront(at, dirty)) {
    slots_[lru_head_].len += to - at;
    dirty_count_ += dirty != r.dirty() ? to - at : 0;
    slots_[s].lba = to;
    slots_[s].len = r.end() - to;
    MoveStart(chunks_[ci], at, to, s);
    return to;
  }
  ToFront(ci, Isolate(ci, s, at, to), make_dirty);
  return to;
}

void PageCache::ToFront(size_t ci, uint32_t s, bool make_dirty) {
  const bool was_dirty = slots_[s].dirty();
  const bool dirty = was_dirty || make_dirty;
  LruUnlink(s);
  if (was_dirty) {
    DirtyUnlink(s);
  } else if (dirty) {
    dirty_count_ += slots_[s].len;
  }
  // The front run is also the dirty front when it is dirty.
  if (ContinuesFront(slots_[s].lba, dirty)) {
    slots_[lru_head_].len += slots_[s].len;
    EraseStart(chunks_[ci], slots_[s].lba);
    FreeSlot(s);
    return;
  }
  LruPushFront(s);
  if (dirty) {
    DirtyPushFront(s);
  }
}

void PageCache::RemoveFromRun(uint32_t s, uint64_t from, uint64_t to) {
  const Run r = slots_[s];
  if (r.dirty()) {
    dirty_count_ -= to - from;
  }
  resident_count_ -= to - from;
  // Splitting and the run-start table leave the chunk's bucket in place.
  const size_t ci = ChunkIndex(r.lba);
  Chunk& c = chunks_[ci];
  if (from > r.lba) {
    // The blocks before `from` stay in s; a tail after `to` splits off.
    if (to < r.end()) {
      Split(ci, s, to);
    }
    slots_[s].len = from - r.lba;
  } else if (to < r.end()) {
    // A prefix: s keeps its place and now starts at `to`.
    slots_[s].lba = to;
    slots_[s].len = r.end() - to;
    MoveStart(c, r.lba, to, s);
  } else {
    if (r.dirty()) {
      DirtyUnlink(s);
    }
    LruUnlink(s);
    EraseStart(c, r.lba);
    FreeSlot(s);
  }
  ClearResident(ci, from, to - from);
}

// ---------------------------------------------------------------------------
// Public operations.

bool PageCache::Resident(uint64_t lba) const {
  const Chunk* c = FindChunk(lba);
  return c != nullptr && (c->resident & ChunkBit(lba)) != 0;
}

uint64_t PageCache::FirstResident(uint64_t lba, uint64_t end) const {
  for (uint64_t at = lba; at < end; at = (at | kChunkMask) + 1) {
    const Chunk* c = FindChunk(at);
    const uint32_t bits = c != nullptr ? c->resident >> (at & kChunkMask) : 0;
    if (bits != 0) {
      return std::min(end, at + static_cast<uint64_t>(std::countr_zero(bits)));
    }
  }
  return end;
}

void PageCache::Insert(uint64_t lba, uint32_t nblocks, bool dirty) {
  const uint64_t end = lba + nblocks;
  ARTC_CHECK(end <= kLbaLimit);
  size_t ci = 0;
  for (uint64_t at = lba; at < end;) {
    // Promote and AddRun leave buckets in place, so a chunk is probed once.
    if (at == lba || (at & kChunkMask) == 0) {
      ci = ChunkFor(at);
    }
    const Chunk& c = chunks_[ci];
    const uint32_t above = c.resident >> (at & kChunkMask);
    if ((above & 1) != 0) {
      at = Promote(ci, RunHolding(c, at), at, end, dirty);
      continue;
    }
    // New blocks up to the next resident one, the chunk's end or the end.
    uint64_t gap_end = std::min(end, (at | kChunkMask) + 1);
    if (above != 0) {
      gap_end = std::min(gap_end, at + static_cast<uint64_t>(std::countr_zero(above)));
    }
    AddRun(ci, at, gap_end - at, dirty);
    at = gap_end;
  }
}

void PageCache::InsertClean(uint64_t lba, uint32_t nblocks) {
  Insert(lba, nblocks, /*dirty=*/false);
}

void PageCache::InsertDirty(uint64_t lba, uint32_t nblocks) {
  Insert(lba, nblocks, /*dirty=*/true);
}

uint64_t PageCache::TouchResident(uint64_t lba, uint64_t end) {
  uint64_t at = lba;
  size_t ci = 0;
  for (uint32_t s = FindRun(at, &ci); s != kNil;) {
    at = Promote(ci, s, at, end, /*make_dirty=*/false);
    if (at == end) {
      break;
    }
    if ((at & kChunkMask) == 0) {
      s = FindRun(at, &ci);
    } else {
      // Promote leaves buckets in place, so a chunk is probed once.
      const Chunk& c = chunks_[ci];
      s = (c.resident & ChunkBit(at)) != 0 ? RunHolding(c, at) : kNil;
    }
  }
  return at;
}

void PageCache::Invalidate(uint64_t lba, uint32_t nblocks) {
  const uint64_t end = lba + nblocks;
  size_t ci = 0;
  for (uint64_t at = FirstResident(lba, end); at < end;) {
    const uint32_t s = FindRun(at, &ci);
    const uint64_t to = std::min(slots_[s].end(), end);
    RemoveFromRun(s, at, to);
    at = FirstResident(to, end);
  }
}

void PageCache::CollectDirty(uint64_t lba, uint32_t nblocks, BlockRuns* out) {
  const uint64_t end = lba + nblocks;
  uint64_t collected = 0;
  size_t ci = 0;
  for (uint64_t at = FirstResident(lba, end); at < end;) {
    const uint32_t s = FindRun(at, &ci);
    const Run r = slots_[s];
    const uint64_t to = std::min(r.end(), end);
    if (r.dirty()) {
      Clean(Isolate(ci, s, at, to));
      AppendRun(out, at, to - at);
      collected += to - at;
    }
    at = FirstResident(to, end);
  }
  writeback_blocks_ += collected;
  ARTC_OBS_COUNT("page_cache.writeback_blocks", collected);
}

void PageCache::CollectOldestDirty(uint32_t max_blocks, BlockRuns* out) {
  uint64_t collected = 0;
  while (collected < max_blocks && dirty_tail_ != kNil) {
    // The dirty tail's first blocks are the oldest dirty ones.
    const uint32_t s = dirty_tail_;
    const Run r = slots_[s];
    const uint64_t n = std::min<uint64_t>(r.len, max_blocks - collected);
    if (n < r.len) {
      Split(ChunkIndex(r.lba), s, r.lba + n);
    }
    Clean(s);
    AppendRun(out, r.lba, n);
    collected += n;
  }
  writeback_blocks_ += collected;
  ARTC_OBS_COUNT("page_cache.writeback_blocks", collected);
}

bool PageCache::OverDirtyLimit() const {
  return static_cast<double>(dirty_count_) >
         params_.dirty_ratio * static_cast<double>(params_.capacity_blocks);
}

void PageCache::EvictToCapacity(BlockRuns* dirty_out) {
  const uint64_t before = resident_count_;
  uint64_t dirty_evicted = 0;
  while (resident_count_ > params_.capacity_blocks) {
    // The LRU tail's first blocks go whether clean or dirty; dirty victims
    // must be written out by the caller before the space can be reused.
    const uint32_t s = lru_tail_;
    const Run r = slots_[s];
    const uint64_t n = std::min<uint64_t>(r.len, resident_count_ - params_.capacity_blocks);
    if (r.dirty()) {
      AppendRun(dirty_out, r.lba, n);
      dirty_evicted += n;
    }
    RemoveFromRun(s, r.lba, r.lba + n);
  }
  const uint64_t evicted = before - resident_count_;
  if (evicted > 0) {
    evicted_blocks_ += evicted;
    writeback_blocks_ += dirty_evicted;
    ARTC_OBS_COUNT("page_cache.evicted_blocks", evicted);
    ARTC_OBS_COUNT("page_cache.writeback_blocks", dirty_evicted);
  }
}

void PageCache::DropAll() {
  slots_.clear();
  std::fill(chunks_.begin(), chunks_.end(), Chunk{});
  chunk_count_ = 0;
  dense_.clear();
  dense_free_ = kNil;
  free_head_ = kNil;
  lru_head_ = lru_tail_ = kNil;
  dirty_head_ = dirty_tail_ = kNil;
  resident_count_ = 0;
  dirty_count_ = 0;
}

}  // namespace artc::storage
