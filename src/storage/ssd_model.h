// Flash-device timing model: fixed per-op latency, multiple independent
// channels (lba-striped), no positional cost.
#ifndef SRC_STORAGE_SSD_MODEL_H_
#define SRC_STORAGE_SSD_MODEL_H_

#include <algorithm>
#include <vector>

#include "src/storage/block_device.h"
#include "src/util/ring_queue.h"

namespace artc::storage {

struct SsdParams {
  uint64_t capacity_blocks = 512ULL * 1024 * 1024 / 4;
  uint32_t channels = 8;
  TimeNs read_latency = Us(80);
  TimeNs write_latency = Us(120);
  double bandwidth_bytes_per_sec = 420.0 * 1024 * 1024;  // per channel
};

class SsdModel : public BlockDevice {
 public:
  SsdModel(sim::Simulation* simulation, SsdParams params);

  void Submit(BlockRequest req) override;
  uint64_t CapacityBlocks() const override { return params_.capacity_blocks; }
  size_t Inflight() const override { return inflight_; }

  // Fastest possible service: an uncontended channel read.
  TimeNs MinLatencyNs() const override {
    return std::min(params_.read_latency, params_.write_latency);
  }

 private:
  struct Channel {
    util::RingQueue<BlockRequest> queue;
    bool busy = false;
    // Completion of the request in service; busy is true while it is set.
    std::function<void()> in_service_done;
  };
  void StartNext(uint32_t ch);
  // Fires channel ch's in-service completion, then starts its next request.
  void Complete(uint32_t ch);

  sim::Simulation* sim_;
  SsdParams params_;
  std::vector<Channel> channels_;
  size_t inflight_ = 0;
};

}  // namespace artc::storage

#endif  // SRC_STORAGE_SSD_MODEL_H_
