#include "src/storage/raid0.h"

#include <algorithm>
#include <memory>

#include "src/util/check.h"

namespace artc::storage {

Raid0::Raid0(std::vector<std::unique_ptr<BlockDevice>> members, uint32_t chunk_blocks)
    : members_(std::move(members)), chunk_blocks_(chunk_blocks) {
  ARTC_CHECK(!members_.empty());
  ARTC_CHECK(chunk_blocks_ > 0);
  uint64_t min_cap = UINT64_MAX;
  for (const auto& m : members_) {
    min_cap = std::min(min_cap, m->CapacityBlocks());
  }
  capacity_ = min_cap * members_.size();
  member_read_blocks_.resize(members_.size(), 0);
  member_write_blocks_.resize(members_.size(), 0);
}

TimeNs Raid0::MinLatencyNs() const {
  TimeNs lat = members_.front()->MinLatencyNs();
  for (const auto& m : members_) {
    lat = std::min(lat, m->MinLatencyNs());
  }
  return lat;
}

size_t Raid0::Inflight() const {
  size_t n = 0;
  for (const auto& m : members_) {
    n += m->Inflight();
  }
  return n;
}

void Raid0::Submit(BlockRequest req) {
  ARTC_CHECK(req.done != nullptr);
  ARTC_CHECK(req.lba + req.nblocks <= capacity_);
  ARTC_CHECK(req.nblocks > 0);

  uint32_t f = free_fanout_;
  if (f != kNoFanout) {
    free_fanout_ = fanouts_[f].next_free;
  } else {
    f = static_cast<uint32_t>(fanouts_.size());
    fanouts_.emplace_back();
  }
  // Member completions always arrive later, from the event queue, so the
  // count is complete before the first one can fire.
  const uint64_t first_chunk = req.lba / chunk_blocks_;
  const uint64_t last_chunk = (req.lba + req.nblocks - 1) / chunk_blocks_;
  fanouts_[f].outstanding = static_cast<uint32_t>(last_chunk - first_chunk + 1);
  fanouts_[f].done = std::move(req.done);

  // Split into per-chunk member requests.
  uint64_t lba = req.lba;
  uint32_t remaining = req.nblocks;
  while (remaining > 0) {
    uint64_t chunk_index = lba / chunk_blocks_;
    uint32_t offset_in_chunk = static_cast<uint32_t>(lba % chunk_blocks_);
    uint32_t take = std::min(remaining, chunk_blocks_ - offset_in_chunk);
    size_t member = static_cast<size_t>(chunk_index % members_.size());
    uint64_t member_chunk = chunk_index / members_.size();
    (req.is_write ? member_write_blocks_ : member_read_blocks_)[member] += take;
    BlockRequest sub;
    sub.lba = member_chunk * chunk_blocks_ + offset_in_chunk;
    sub.nblocks = take;
    sub.is_write = req.is_write;
    sub.issuer = req.issuer;
    sub.done = [this, f] { PieceDone(f); };
    members_[member]->Submit(std::move(sub));
    lba += take;
    remaining -= take;
  }
}

void Raid0::PieceDone(uint32_t f) {
  if (--fanouts_[f].outstanding > 0) {
    return;
  }
  // Recycle the record before firing: the completion may submit again.
  std::function<void()> done = std::move(fanouts_[f].done);
  fanouts_[f].next_free = free_fanout_;
  free_fanout_ = f;
  done();
}

}  // namespace artc::storage
