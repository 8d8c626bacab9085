// Mechanical-disk timing model: seek + rotational latency + transfer, with
// native command queuing (the device picks the pending request with the
// lowest total positioning cost). The platter's angular position advances
// continuously with time and is laid out consistently with the transfer
// rate, so sequential streaming pays no rotational latency while random
// access pays seek + partial rotation. Deeper queues let the device choose
// rotationally-favorable requests — the feedback loop behind Fig. 5(a).
#ifndef SRC_STORAGE_HDD_MODEL_H_
#define SRC_STORAGE_HDD_MODEL_H_

#include <vector>

#include "src/storage/block_device.h"

namespace artc::storage {

struct HddParams {
  uint64_t capacity_blocks = 512ULL * 1024 * 1024 / 4;  // 512 GB
  TimeNs seek_min = Us(500);        // track-to-track
  TimeNs seek_max = Ms(9);          // full stroke
  TimeNs rotation_period = 8333333;  // 7200 rpm
  double bandwidth_bytes_per_sec = 130.0 * 1024 * 1024;
  // Requests within this many blocks of the head need no arm movement
  // (same cylinder), only settle + rotation.
  uint64_t near_threshold = 1024;
  TimeNs settle = Us(100);
};

class HddModel : public BlockDevice {
 public:
  HddModel(sim::Simulation* simulation, HddParams params);

  void Submit(BlockRequest req) override;
  uint64_t CapacityBlocks() const override { return params_.capacity_blocks; }
  size_t Inflight() const override { return pending_.size() + (busy_ ? 1 : 0); }

  // Fastest possible service: same-cylinder settle with zero rotation and a
  // single-block transfer still costs the settle time.
  TimeNs MinLatencyNs() const override { return params_.settle; }

  // Positioning (seek + rotation) plus transfer for a request starting at
  // virtual time `now` with the head at block `head`. Exposed for tests.
  TimeNs ServiceTime(TimeNs now, uint64_t head, uint64_t lba, uint32_t nblocks) const;

  // Blocks per rotation, derived from bandwidth and rotation period so the
  // angular layout is consistent with the transfer rate.
  uint64_t BlocksPerTrack() const { return blocks_per_track_; }

  // Diagnostics: cumulative positioning (seek+rotation) time and request
  // count since construction.
  TimeNs TotalPositioningNs() const { return total_positioning_; }
  uint64_t ServicedRequests() const { return serviced_; }

 private:
  void StartNext();
  // Fires the in-service request's completion, then starts the next one.
  void Complete();
  TimeNs SeekTime(uint64_t head, uint64_t lba) const;
  // Angular position (fraction of a revolution) of a block / of the platter
  // at a given time.
  double BlockAngle(uint64_t lba) const;
  double PlatterAngle(TimeNs t) const;
  // Transfer time of nblocks at the media rate.
  TimeNs TransferTime(uint32_t nblocks) const;

  sim::Simulation* sim_;
  HddParams params_;
  uint64_t blocks_per_track_;
  // True when no seek exceeds two rotations, so StartNext can fold the
  // arrival angle with two conditional subtractions instead of a `%`.
  bool fold_twice_;
  // Pending requests, with each one's LBA and BlockAngle cached in flat
  // arrays in the same order for the NCQ scan.
  std::vector<BlockRequest> pending_;
  std::vector<uint64_t> pending_lba_;
  std::vector<double> pending_angle_;
  bool busy_ = false;
  // Completion of the request in service; busy_ is true while it is set.
  std::function<void()> in_service_done_;
  uint64_t head_ = 0;
  TimeNs total_positioning_ = 0;
  uint64_t serviced_ = 0;
};

}  // namespace artc::storage

#endif  // SRC_STORAGE_HDD_MODEL_H_
