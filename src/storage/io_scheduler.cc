#include "src/storage/io_scheduler.h"

#include "src/obs/obs.h"
#include "src/util/check.h"

namespace artc::storage {

CfqScheduler::CfqScheduler(sim::Simulation* simulation, BlockDevice* device, CfqParams params)
    : sim_(simulation), device_(device), params_(params) {
  ARTC_OBS_IF_ENABLED {
    obs::DefaultTracer().SetTrackName(obs::ClockDomain::kVirtual,
                                      obs::kIoSchedulerTrack, "io-scheduler");
  }
}

CfqScheduler::Queue* CfqScheduler::FindQueue(uint32_t issuer) {
  auto it = queues_.find(issuer);
  return it == queues_.end() ? nullptr : &it->second;
}

void CfqScheduler::Submit(BlockRequest req) {
  if (req.issuer == kAsyncIssuer) {
    async_.push_back(std::move(req));
    Dispatch();
    return;
  }
  uint32_t issuer = req.issuer;
  Queue& q = queues_[issuer];
  bool was_empty = q.requests.empty();
  q.requests.push_back(std::move(req));
  if (was_empty) {
    bool in_rr = false;
    for (size_t i = 0; i < rr_.size(); ++i) {
      if (rr_[i] == issuer) {
        in_rr = true;
        break;
      }
    }
    if (!in_rr && !(has_active_ && active_ == issuer)) {
      rr_.push_back(issuer);
    }
  }
  // A new request from the anticipated context cancels the idle timer.
  if (has_active_ && active_ == issuer && idle_timer_ != 0) {
    CancelIdleTimer();
  }
  Dispatch();
}

void CfqScheduler::CancelIdleTimer() {
  if (idle_timer_ != 0) {
    sim_->CancelCallback(idle_timer_);
    idle_timer_ = 0;
  }
}

void CfqScheduler::StartIdleTimer() {
  ARTC_CHECK(idle_timer_ == 0);
  TimeNs deadline = sim_->Now() + params_.slice_idle;
  if (deadline > slice_end_) {
    deadline = slice_end_;
  }
  if (deadline <= sim_->Now()) {
    SwitchQueue();
    Dispatch();
    return;
  }
  idle_timer_ = sim_->ScheduleCallback(deadline, [this] {
    idle_timer_ = 0;
    SwitchQueue();
    Dispatch();
  });
}

void CfqScheduler::SwitchQueue() {
  CancelIdleTimer();
  if (has_active_) {
    Queue* q = FindQueue(active_);
    if (q != nullptr && !q->requests.empty()) {
      rr_.push_back(active_);
    }
    has_active_ = false;
  }
  if (!rr_.empty()) {
    active_ = rr_.front();
    rr_.pop_front();
    has_active_ = true;
    slice_end_ = sim_->Now() + params_.slice_sync;
    context_switches_++;
    ARTC_OBS_COUNT("cfq.context_switches", 1);
  }
}

void CfqScheduler::SubmitToDevice(BlockRequest req, uint32_t issuer) {
  in_service_done_ = std::move(req.done);
  in_service_issuer_ = issuer;
  dispatch_start_ = sim_->Now();
  req.done = [this] { OnComplete(); };
  device_busy_ = true;
  device_->Submit(std::move(req));
}

void CfqScheduler::Dispatch() {
  if (device_busy_) {
    return;
  }
  // Expire the slice if the active context has exceeded it.
  if (has_active_ && sim_->Now() >= slice_end_) {
    SwitchQueue();
  }
  if (!has_active_ && !rr_.empty()) {
    SwitchQueue();
  }

  if (has_active_) {
    Queue* q = FindQueue(active_);
    if (q != nullptr && !q->requests.empty()) {
      CancelIdleTimer();
      BlockRequest req = std::move(q->requests.front());
      q->requests.pop_front();
      uint32_t issuer = req.issuer;
      SubmitToDevice(std::move(req), issuer);
      return;
    }
    // Active queue is dry: anticipate (idle) unless the slice already ended.
    if (sim_->Now() < slice_end_) {
      if (idle_timer_ == 0) {
        // Serve async I/O opportunistically only if nothing sync is waiting
        // anywhere (idling is the whole point of anticipation).
        if (rr_.empty() && !async_.empty()) {
          BlockRequest req = std::move(async_.front());
          async_.pop_front();
          SubmitToDevice(std::move(req), kAsyncIssuer);
          return;
        }
        StartIdleTimer();
      }
      return;
    }
    SwitchQueue();
    Dispatch();
    return;
  }

  // No sync context is busy: drain async I/O.
  if (!async_.empty()) {
    BlockRequest req = std::move(async_.front());
    async_.pop_front();
    SubmitToDevice(std::move(req), kAsyncIssuer);
  }
}

void CfqScheduler::OnComplete() {
  ARTC_OBS_IF_ENABLED {
    obs::DefaultTracer().CompleteSpan(
        obs::ClockDomain::kVirtual, obs::kIoSchedulerTrack, "storage",
        in_service_issuer_ == kAsyncIssuer ? "dispatch_async" : "dispatch",
        dispatch_start_, sim_->Now() - dispatch_start_, "issuer",
        static_cast<int64_t>(in_service_issuer_));
  }
  std::function<void()> done = std::move(in_service_done_);
  done();
  device_busy_ = false;
  Dispatch();
}

}  // namespace artc::storage
