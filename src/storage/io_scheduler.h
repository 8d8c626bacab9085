// I/O schedulers sitting between the page cache and a block device.
//
// NoopScheduler passes requests straight through (the device's own queue
// policy — NCQ on the HDD model — does any reordering).
//
// CfqScheduler is a completely-fair-queuing-style anticipatory scheduler:
// each I/O context (simulated thread) gets a queue; the active queue is
// serviced exclusively for a time slice (`slice_sync`), and when it runs dry
// the scheduler *idles* for up to `slice_idle`, anticipating another request
// from the same context, before switching. This reproduces the efficiency/
// fairness trade-off studied in Fig. 5(d) and Fig. 6 of the paper.
#ifndef SRC_STORAGE_IO_SCHEDULER_H_
#define SRC_STORAGE_IO_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <memory>

#include "src/storage/block_device.h"
#include "src/util/ring_queue.h"

namespace artc::storage {

class IoScheduler {
 public:
  virtual ~IoScheduler() = default;
  virtual void Submit(BlockRequest req) = 0;
};

class NoopScheduler : public IoScheduler {
 public:
  explicit NoopScheduler(BlockDevice* device) : device_(device) {}
  void Submit(BlockRequest req) override { device_->Submit(std::move(req)); }

 private:
  BlockDevice* device_;
};

struct CfqParams {
  TimeNs slice_sync = Ms(100);  // exclusive service slice per context
  TimeNs slice_idle = Ms(4);    // anticipation window when the queue runs dry
  // Async (write-back/read-ahead) I/O never gets anticipation and is
  // dispatched when no sync context is active or between slices.
};

class CfqScheduler : public IoScheduler {
 public:
  CfqScheduler(sim::Simulation* simulation, BlockDevice* device, CfqParams params);

  void Submit(BlockRequest req) override;

  // Diagnostics: number of active-context switches performed.
  uint64_t ContextSwitches() const { return context_switches_; }

 private:
  struct Queue {
    util::RingQueue<BlockRequest> requests;
  };

  void Dispatch();                 // dispatch next request if device idle
  // Hands one request to the device. The scheduler keeps the request's
  // completion and has the device call OnComplete instead.
  void SubmitToDevice(BlockRequest req, uint32_t issuer);
  // Emits the dispatch span on the io-scheduler pseudo-track when tracing,
  // fires the in-service completion and dispatches the next request.
  void OnComplete();
  void SwitchQueue();              // rotate to the next busy context
  void StartIdleTimer();
  void CancelIdleTimer();
  Queue* FindQueue(uint32_t issuer);

  sim::Simulation* sim_;
  BlockDevice* device_;
  CfqParams params_;

  std::map<uint32_t, Queue> queues_;     // sync contexts, keyed by issuer
  util::RingQueue<uint32_t> rr_;         // round-robin order of busy contexts
  util::RingQueue<BlockRequest> async_;  // non-anticipated I/O

  uint32_t active_ = kAsyncIssuer;       // context holding the slice
  bool has_active_ = false;
  TimeNs slice_end_ = 0;
  // At most one request is on the device. While device_busy_, these hold
  // its completion, its issuer and when it was dispatched.
  bool device_busy_ = false;
  std::function<void()> in_service_done_;
  uint32_t in_service_issuer_ = kAsyncIssuer;
  TimeNs dispatch_start_ = 0;
  uint64_t idle_timer_ = 0;              // callback id, 0 if none
  uint64_t context_switches_ = 0;
};

}  // namespace artc::storage

#endif  // SRC_STORAGE_IO_SCHEDULER_H_
