// Simulated replay backend: executes compiled actions against the simulated
// VFS in virtual time. Replay threads are simulated threads; dependency
// waits use simulated condition variables (striped). This backend powers
// every performance experiment — a replay on a different storage target is
// just a SimReplayEnv over a differently-configured Vfs/StorageStack.
#ifndef SRC_CORE_SIM_ENV_H_
#define SRC_CORE_SIM_ENV_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/compiled.h"
#include "src/core/emulation.h"
#include "src/core/replay_engine.h"
#include "src/sim/simulation.h"
#include "src/vfs/vfs.h"

namespace artc::core {

class SimReplayEnv {
 public:
  SimReplayEnv(sim::Simulation* simulation, vfs::Vfs* fs, EmulationPolicy policy = {});
  ~SimReplayEnv();
  SimReplayEnv(const SimReplayEnv&) = delete;
  SimReplayEnv& operator=(const SimReplayEnv&) = delete;

  // ---- Env concept for Replay<> ----
  TimeNs Now() const { return sim_->Now(); }
  void SleepNs(TimeNs d) { sim_->Sleep(d); }
  void RunThreads(size_t n, std::function<void(size_t)> body);
  template <typename Pred>
  void WaitOn(uint32_t idx, Pred pred) {
    sim::SimCondVar& cv = stripes_[idx & stripe_mask_];
    while (!pred()) {
      cv.Wait();
    }
  }
  // Wakes every waiter on idx's stripe. With the fiber simulation backend
  // this is a pure user-space ready-list append per waiter — no kernel
  // wakeup — so the thundering-herd cost of striping stays negligible.
  void Notify(uint32_t idx) { stripes_[idx & stripe_mask_].NotifyAll(); }
  int64_t Execute(const trace::TraceEvent& ev, const ExecContext& ctx);

  // ---- Optional obs hooks (see replay_engine.h) ----
  // Replay timestamps are simulated time, and each replay thread is a
  // simulated thread, so spans land on the sim thread's named virtual-time
  // track. Called from inside the replay thread, so concurrent Replay calls
  // sharing this env (multi-trace mode) each see their own threads.
  static constexpr obs::ClockDomain kObsClockDomain = obs::ClockDomain::kVirtual;
  uint32_t ObsCurrentTrack() const {
    return static_cast<uint32_t>(sim_->CurrentThread());
  }

  // Optional Env hook (see replay_engine.h): cumulative storage service
  // time charged to the calling simulated thread, sampled around Execute to
  // split each action's latency into storage service vs. CPU cost model.
  TimeNs StorageServiceNs() const {
    return fs_->stack().ServiceNsForCurrentThread();
  }

  // Restores the benchmark's snapshot into the VFS (Sec. 4.3.2), applying
  // emulation-policy tweaks such as the /dev/random -> /dev/urandom
  // symlink. delta performs a delta init.
  void Initialize(const trace::FsSnapshot& snapshot, bool delta = false);

  vfs::Vfs& fs() { return *fs_; }

 private:
  // Asynchronous I/O support: aio submissions run on helper simulated
  // threads; aio_return joins them.
  struct AioOp;
  int64_t AioSubmit(const trace::TraceEvent& ev, const ExecContext& ctx,
                    bool is_write);
  int64_t AioWait(int64_t handle, bool consume);

  sim::Simulation* sim_;
  vfs::Vfs* fs_;
  EmulationPolicy policy_;
  std::vector<sim::SimCondVar> stripes_;
  uint32_t stripe_mask_ = 0;  // stripes_.size() - 1; size is a power of two
  std::unordered_map<int64_t, std::unique_ptr<AioOp>> aio_ops_;
  int64_t next_aio_handle_ = 1;
  uint64_t exchange_tmp_counter_ = 0;
};

}  // namespace artc::core

#endif  // SRC_CORE_SIM_ENV_H_
