#include "src/storage/ssd_model.h"

#include "src/util/check.h"

namespace artc::storage {

SsdModel::SsdModel(sim::Simulation* simulation, SsdParams params)
    : sim_(simulation), params_(params), channels_(params.channels) {}

void SsdModel::Submit(BlockRequest req) {
  ARTC_CHECK(req.done != nullptr);
  ARTC_CHECK(req.lba + req.nblocks <= params_.capacity_blocks);
  uint32_t ch = static_cast<uint32_t>((req.lba / 64) % params_.channels);
  inflight_++;
  channels_[ch].queue.push_back(std::move(req));
  if (!channels_[ch].busy) {
    StartNext(ch);
  }
}

void SsdModel::StartNext(uint32_t ch) {
  Channel& c = channels_[ch];
  if (c.queue.empty()) {
    c.busy = false;
    return;
  }
  c.busy = true;
  BlockRequest& req = c.queue.front();
  TimeNs lat = req.is_write ? params_.write_latency : params_.read_latency;
  double bytes = static_cast<double>(req.nblocks) * kBlockSize;
  TimeNs transfer = static_cast<TimeNs>(bytes / params_.bandwidth_bytes_per_sec * kNsPerSec);
  c.in_service_done = std::move(req.done);
  c.queue.pop_front();
  sim_->ScheduleCallback(sim_->Now() + lat + transfer, [this, ch] { Complete(ch); });
}

void SsdModel::Complete(uint32_t ch) {
  std::function<void()> done = std::move(channels_[ch].in_service_done);
  inflight_--;
  done();
  StartNext(ch);
}

}  // namespace artc::storage
