#include "src/storage/hdd_model.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "src/obs/obs.h"
#include "src/util/check.h"

namespace artc::storage {

HddModel::HddModel(sim::Simulation* simulation, HddParams params)
    : sim_(simulation), params_(params) {
  double bytes_per_rev = params_.bandwidth_bytes_per_sec *
                         (static_cast<double>(params_.rotation_period) / kNsPerSec);
  blocks_per_track_ = static_cast<uint64_t>(bytes_per_rev / kBlockSize);
  ARTC_CHECK(blocks_per_track_ > 0);
  // Every seek lies between the smallest and the largest of these three.
  const auto [shortest, longest] =
      std::minmax({params_.settle, params_.seek_min, params_.seek_max});
  fold_twice_ = shortest >= 0 && longest <= 2 * params_.rotation_period;
}

TimeNs HddModel::SeekTime(uint64_t head, uint64_t lba) const {
  if (lba == head) {
    return 0;
  }
  uint64_t distance = lba > head ? lba - head : head - lba;
  if (distance <= params_.near_threshold) {
    return params_.settle;
  }
  double frac = static_cast<double>(distance) / static_cast<double>(params_.capacity_blocks);
  if (frac > 1.0) {
    frac = 1.0;
  }
  return params_.seek_min +
         static_cast<TimeNs>(std::sqrt(frac) *
                             static_cast<double>(params_.seek_max - params_.seek_min));
}

double HddModel::BlockAngle(uint64_t lba) const {
  return static_cast<double>(lba % blocks_per_track_) /
         static_cast<double>(blocks_per_track_);
}

double HddModel::PlatterAngle(TimeNs t) const {
  TimeNs within = t % params_.rotation_period;
  return static_cast<double>(within) / static_cast<double>(params_.rotation_period);
}

TimeNs HddModel::TransferTime(uint32_t nblocks) const {
  double bytes = static_cast<double>(nblocks) * kBlockSize;
  return static_cast<TimeNs>(bytes / params_.bandwidth_bytes_per_sec * kNsPerSec);
}

TimeNs HddModel::ServiceTime(TimeNs now, uint64_t head, uint64_t lba,
                             uint32_t nblocks) const {
  TimeNs positioning = 0;
  if (lba != head) {
    TimeNs seek = SeekTime(head, lba);
    // Rotational latency: wait for the target block to come under the head
    // after the arm arrives.
    double arrive = PlatterAngle(now + seek);
    double target = BlockAngle(lba);
    double wait = target - arrive;
    if (wait < 0) {
      wait += 1.0;
    }
    positioning = seek + static_cast<TimeNs>(
                             wait * static_cast<double>(params_.rotation_period));
  }
  return positioning + TransferTime(nblocks);
}

void HddModel::Submit(BlockRequest req) {
  ARTC_CHECK(req.done != nullptr);
  ARTC_CHECK(req.lba + req.nblocks <= params_.capacity_blocks);
  pending_lba_.push_back(req.lba);
  pending_angle_.push_back(BlockAngle(req.lba));
  pending_.push_back(std::move(req));
  ARTC_OBS_OBSERVE("hdd.queue_depth", pending_.size() + (busy_ ? 1 : 0));
  if (!busy_) {
    StartNext();
  }
}

void HddModel::StartNext() {
  if (pending_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  // Native command queuing: pick the pending request with the lowest total
  // positioning cost (seek + rotation) from the current head position, the
  // earliest on a tie. Each cost is ServiceTime(now, head_, lba, 0) to the
  // bit. The data-dependent choices are masks rather than branches, which
  // would mispredict about half the time, so candidates overlap in the
  // pipeline. The arrival phase (now + seek) % period is folded from
  // now % period (DESIGN.md §5l).
  const TimeNs now = sim_->Now();
  const TimeNs period = params_.rotation_period;
  const double period_d = static_cast<double>(period);
  const TimeNs phase = now % period;
  const double capacity = static_cast<double>(params_.capacity_blocks);
  const double seek_range = static_cast<double>(params_.seek_max - params_.seek_min);
  const uint64_t* lbas = pending_lba_.data();
  const double* angles = pending_angle_.data();
  const size_t n = pending_.size();
  size_t best = 0;
  TimeNs best_cost = INT64_MAX;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t lba = lbas[i];
    const uint64_t distance = lba > head_ ? lba - head_ : head_ - lba;
    double frac = static_cast<double>(distance) / capacity;
    frac = frac > 1.0 ? 1.0 : frac;
    const TimeNs far_seek =
        params_.seek_min + static_cast<TimeNs>(std::sqrt(frac) * seek_range);
    // All-ones where the condition holds.
    const TimeNs near = -static_cast<TimeNs>(distance <= params_.near_threshold);
    const TimeNs seek = (params_.settle & near) | (far_seek & ~near);
    TimeNs within = phase + seek;
    within -= period & -static_cast<TimeNs>(within >= period);
    within -= period & -static_cast<TimeNs>(within >= period);
    if (!fold_twice_) [[unlikely]] {
      within = (now + seek) % period;
    }
    double wait = angles[i] - static_cast<double>(within) / period_d;
    // Adding 0.0 can only turn -0.0 into +0.0, which truncates the same.
    wait += static_cast<double>(wait < 0);
    const TimeNs positioning = seek + static_cast<TimeNs>(wait * period_d);
    const TimeNs cost = positioning & -static_cast<TimeNs>(lba != head_);
    const bool better = cost < best_cost;
    best_cost = better ? cost : best_cost;
    best = better ? i : best;
  }
  BlockRequest& req = pending_[best];
  ARTC_OBS_OBSERVE("hdd.seek_distance_blocks",
                   req.lba > head_ ? req.lba - head_ : head_ - req.lba);
  const TimeNs t = best_cost + TransferTime(req.nblocks);
  total_positioning_ += best_cost;
  serviced_++;
  head_ = req.lba + req.nblocks;
  in_service_done_ = std::move(req.done);
  // Order-preserving erase keeps the earliest-on-a-tie choice stable.
  const auto at = static_cast<ptrdiff_t>(best);
  pending_.erase(pending_.begin() + at);
  pending_lba_.erase(pending_lba_.begin() + at);
  pending_angle_.erase(pending_angle_.begin() + at);
  sim_->ScheduleCallback(now + t, [this] { Complete(); });
}

void HddModel::Complete() {
  std::function<void()> done = std::move(in_service_done_);
  done();
  StartNext();
}

}  // namespace artc::storage
