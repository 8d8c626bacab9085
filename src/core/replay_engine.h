// The replay engine (paper Sec. 4.3.3), templated over a backend
// environment so the same enforcement logic drives both the simulated
// kernel (virtual time, used by all performance experiments) and real POSIX
// syscalls (host file system).
//
// Enforcement follows the paper: each action has an issued flag and a done
// flag; replay threads walk their own action lists in order, wait on each
// dependency's flag through a striped condition-variable table, optionally
// sleep the recorded predelay, execute, and broadcast completion.
//
// Env concept:
//   TimeNs Now();
//   void RunThreads(size_t n, std::function<void(size_t)> body);
//   void SleepNs(TimeNs d);                       // from a replay thread
//   void WaitOn(uint32_t idx, Pred pred);         // block until pred()
//   void Notify(uint32_t idx);                    // wake idx's stripe
//   int64_t Execute(const trace::TraceEvent& ev, const ExecContext& ctx);
//   (Execute returns the action's trace-convention result; for fd/aio
//    creating calls the non-negative result is the runtime handle.)
#ifndef SRC_CORE_REPLAY_ENGINE_H_
#define SRC_CORE_REPLAY_ENGINE_H_

#include <atomic>
#include <functional>
#include <vector>

#include "src/core/compiled.h"
#include "src/core/report.h"
#include "src/obs/obs.h"
#include "src/trace/syscalls.h"

namespace artc::core {

enum class PacingMode : uint8_t {
  kAfap,     // as fast as possible: ignore predelay
  kNatural,  // sleep the recorded predelay before each action
};

struct ReplayOptions {
  PacingMode pacing = PacingMode::kAfap;
};

// Runtime argument resolution handed to Env::Execute.
struct ExecContext {
  int32_t fd = -1;      // runtime fd for the action's fd argument
  int64_t aio = -1;     // runtime aio handle for the action's aiocb argument
};

// Observability hooks on the Env concept (both optional):
//   static constexpr obs::ClockDomain kObsClockDomain;  // default kHost
//   uint32_t ObsCurrentTrack() const;  // calling thread's track; default the
//                                      // dense replay thread index
// A simulated env reports kVirtual and the current simulated thread id, so
// replay spans land on the sim thread's named virtual-time track.
template <typename Env>
constexpr obs::ClockDomain ReplayObsClock() {
  if constexpr (requires { Env::kObsClockDomain; }) {
    return Env::kObsClockDomain;
  } else {
    return obs::ClockDomain::kHost;
  }
}

template <typename Env>
ReplayReport Replay(const CompiledBenchmark& bench, Env& env,
                    const ReplayOptions& options = {}) {
  const size_t n = bench.actions.size();
  std::vector<std::atomic<uint8_t>> issued(n);
  std::vector<std::atomic<uint8_t>> done(n);
  for (size_t i = 0; i < n; ++i) {
    issued[i].store(0, std::memory_order_relaxed);
    done[i].store(0, std::memory_order_relaxed);
  }
  std::vector<std::atomic<int32_t>> fd_slots(bench.fd_slot_count);
  for (auto& s : fd_slots) {
    s.store(-1, std::memory_order_relaxed);
  }
  std::vector<std::atomic<int64_t>> aio_slots(bench.aio_slot_count);
  for (auto& s : aio_slots) {
    s.store(-1, std::memory_order_relaxed);
  }
  std::vector<ActionOutcome> outcomes(n);

  constexpr obs::ClockDomain obs_clock = ReplayObsClock<Env>();
  // Trace track per replay thread, published by each thread on startup.
  // A waiter reads a dependency owner's entry only after acquiring that
  // owner's issued/done flag, which the owner released after publishing, so
  // the read is ordered without extra synchronization.
  std::vector<uint32_t> obs_tracks(bench.thread_actions.size(), 0);
  const TimeNs start = env.Now();
  env.RunThreads(bench.thread_actions.size(), [&](size_t thread_index) {
    [[maybe_unused]] uint32_t obs_track = 0;
    ARTC_OBS_IF_ENABLED {
      if constexpr (requires { env.ObsCurrentTrack(); }) {
        obs_track = env.ObsCurrentTrack();
      } else {
        obs_track = static_cast<uint32_t>(thread_index);
      }
      obs_tracks[thread_index] = obs_track;
    }
    for (uint32_t idx : bench.thread_actions[thread_index]) {
      const CompiledAction& a = bench.actions[idx];
      const trace::TraceEvent& ev = bench.events[idx];
      // 1. Wait for dependencies.
      TimeNs wait_start = env.Now();
      for (const Dep& dep : bench.DepsFor(idx)) {
        auto& flag = dep.kind == DepKind::kIssue ? issued[dep.event] : done[dep.event];
        if (flag.load(std::memory_order_acquire) == 0) {
          env.WaitOn(dep.event,
                     [&flag] { return flag.load(std::memory_order_acquire) != 0; });
          ARTC_OBS_IF_ENABLED {
            // This dependency actually stalled us: draw a flow arrow from
            // the moment the dependency satisfied its side (issue time for
            // issue-deps, completion for done-deps — both visible through
            // the flag's release/acquire pair) to our wake-up here.
            obs::Tracer& tracer = obs::DefaultTracer();
            const ActionOutcome& dep_out = outcomes[dep.event];
            const TimeNs dep_ts =
                dep.kind == DepKind::kIssue ? dep_out.issue : dep_out.complete;
            const uint64_t flow_id =
                (static_cast<uint64_t>(dep.event) << 32) | idx;
            tracer.FlowStart(obs_clock,
                             obs_tracks[bench.actions[dep.event].thread_index],
                             "replay", "dep", dep_ts, flow_id);
            tracer.FlowEnd(obs_clock, obs_track, "replay", "dep", env.Now(),
                           flow_id);
          }
        }
      }
      outcomes[idx].wait_start = wait_start;
      outcomes[idx].dep_stall = env.Now() - wait_start;
      // 2. Pacing.
      if (options.pacing == PacingMode::kNatural && a.predelay > 0) {
        env.SleepNs(a.predelay);
      }
      // 3. Issue.
      ActionOutcome& out = outcomes[idx];
      out.issue = env.Now();
      issued[idx].store(1, std::memory_order_release);
      env.Notify(idx);
      // 4. Execute with resolved runtime handles.
      ExecContext ctx;
      if (a.fd_use_slot >= 0) {
        ctx.fd = fd_slots[static_cast<size_t>(a.fd_use_slot)].load(
            std::memory_order_acquire);
      }
      if (a.aio_use_slot >= 0) {
        ctx.aio = aio_slots[static_cast<size_t>(a.aio_use_slot)].load(
            std::memory_order_acquire);
      }
      // Optional Env hook: cumulative storage service time charged to the
      // calling replay thread, so the per-action delta isolates how much of
      // the call's latency the storage stack served (vs. CPU cost model).
      [[maybe_unused]] TimeNs storage_before = 0;
      if constexpr (requires { env.StorageServiceNs(); }) {
        storage_before = env.StorageServiceNs();
      }
      int64_t ret = env.Execute(ev, ctx);
      out.complete = env.Now();
      if constexpr (requires { env.StorageServiceNs(); }) {
        out.storage_ns = env.StorageServiceNs() - storage_before;
      }
      out.ret = ret;
      out.executed = true;
      if (ret >= 0 && a.fd_def_slot >= 0) {
        fd_slots[static_cast<size_t>(a.fd_def_slot)].store(static_cast<int32_t>(ret),
                                                           std::memory_order_release);
      }
      if (ret >= 0 && a.aio_def_slot >= 0) {
        aio_slots[static_cast<size_t>(a.aio_def_slot)].store(ret,
                                                             std::memory_order_release);
      }
      // 5. Broadcast completion.
      done[idx].store(1, std::memory_order_release);
      env.Notify(idx);
      ARTC_OBS_IF_ENABLED {
        obs::Tracer& tracer = obs::DefaultTracer();
        if (out.dep_stall > 0) {
          tracer.CompleteSpan(obs_clock, obs_track, "replay", "dep_stall",
                              wait_start, out.dep_stall);
        }
        tracer.CompleteSpan(obs_clock, obs_track, "replay",
                            trace::SysName(ev.call).data(), out.issue,
                            out.complete - out.issue, "idx",
                            static_cast<int64_t>(idx));
        ARTC_OBS_OBSERVE("replay.call_latency_ns", out.complete - out.issue);
        ARTC_OBS_OBSERVE("replay.dep_stall_ns", out.dep_stall);
        ARTC_OBS_COUNT("replay.actions", 1);
      }
    }
  });
  const TimeNs wall = env.Now() - start;
  return BuildReport(bench, std::move(outcomes), wall);
}

}  // namespace artc::core

#endif  // SRC_CORE_REPLAY_ENGINE_H_
