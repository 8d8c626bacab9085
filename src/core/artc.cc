#include "src/core/artc.h"

#include <algorithm>
#include <memory>

#include "src/core/sim_env.h"
#include "src/sim/simulation.h"
#include "src/util/thread_pool.h"

namespace artc::core {

namespace {

// The one simulated replay world: a simulation seeded from `target` with
// `policy` at its choice points (nullptr = built-in scheduler), the target's
// storage stack, vfs and replay env. An init thread restores `snapshot`
// (delta when `delta_init`); its virtual cost is not charged to the replay,
// since the engine measures from its own start time. The harness thread
// then drops the caches if the target asks and calls `replay(sim, env)`.
// Fills the simulator and storage diagnostics of *result.
template <typename ReplayFn>
void RunInSimWorld(const SimTarget& target, sim::SchedulePolicy* policy,
                   const trace::FsSnapshot& snapshot, bool delta_init,
                   SimReplayResult* result, ReplayFn replay) {
  sim::Simulation sim(target.seed);
  sim.SetSchedulePolicy(policy);
  storage::StorageStack stack(&sim, target.storage);
  vfs::Vfs fs(&sim, &stack, vfs::MakeFsProfile(target.fs_profile),
              vfs::MakePlatformProfile(target.platform));
  SimReplayEnv env(&sim, &fs, target.emulation);

  sim::SimThreadId init = sim.Spawn("init", [&] { env.Initialize(snapshot, delta_init); });
  sim.Spawn("harness", [&] {
    sim.Join(init);
    if (target.drop_caches_after_init) {
      stack.DropCaches();
    }
    replay(sim, env);
  });
  result->sim_end_time = sim.Run();
  result->sim_switches = sim.switch_count();
  result->unfinished_threads = sim.UnfinishedThreads();
  result->storage = stack.Counters();
}

}  // namespace

SimReplayResult ReplayCompiledUnderPolicy(const CompiledBenchmark& bench,
                                          const SimTarget& target,
                                          sim::SchedulePolicy* policy,
                                          trace::FsSnapshot* final_state) {
  SimReplayResult result;
  result.edge_stats = bench.edge_stats;
  result.model_warnings = bench.model_warnings;
  RunInSimWorld(target, policy, bench.snapshot, target.delta_init, &result,
                [&](sim::Simulation&, SimReplayEnv& env) {
                  result.report = Replay(bench, env, target.replay);
                  if (final_state != nullptr) {
                    // Pure tree walk: consumes no virtual time, so capture
                    // cannot perturb the replay results it rides along with.
                    *final_state = env.fs().CaptureSnapshot();
                  }
                });
  return result;
}

SimReplayResult ReplayCompiledOnSimTarget(const CompiledBenchmark& bench,
                                          const SimTarget& target,
                                          trace::FsSnapshot* final_state) {
  std::unique_ptr<sim::SchedulePolicy> policy = sim::MakeSchedulePolicy(target.schedule);
  return ReplayCompiledUnderPolicy(bench, target, policy.get(), final_state);
}

MultiReplayResult ReplayConcurrentlyOnSimTarget(
    const std::vector<const CompiledBenchmark*>& benches, const SimTarget& target) {
  std::unique_ptr<sim::SchedulePolicy> policy = sim::MakeSchedulePolicy(target.schedule);
  MultiReplayResult result;
  result.reports.resize(benches.size());

  // Overlay every snapshot into one tree before any replay starts.
  trace::FsSnapshot merged;
  for (const CompiledBenchmark* bench : benches) {
    merged = merged.Overlay(bench->snapshot);
  }
  SimReplayResult world;  // the run's diagnostics, not reported
  RunInSimWorld(target, policy.get(), merged, /*delta_init=*/false, &world,
                [&](sim::Simulation& sim, SimReplayEnv& env) {
                  TimeNs start = sim.Now();
                  // One runner per benchmark; each spawns its own replay
                  // threads.
                  std::vector<sim::SimThreadId> runners;
                  runners.reserve(benches.size());
                  for (size_t i = 0; i < benches.size(); ++i) {
                    runners.push_back(sim.Spawn("replay-bench", [&, i] {
                      result.reports[i] = Replay(*benches[i], env, target.replay);
                    }));
                  }
                  for (sim::SimThreadId runner : runners) {
                    sim.Join(runner);
                  }
                  result.wall_time = sim.Now() - start;
                });
  return result;
}

SuiteReplayResult ReplaySuiteOnSimTarget(
    const std::vector<const CompiledBenchmark*>& benches, const SimTarget& target) {
  SuiteReplayResult result;
  result.workers = 1;
  if (benches.empty()) {
    return result;
  }
  result.runs.resize(benches.size());
  result.windows = 1;
  auto replay = [&](size_t k) {
    SimTarget own = target;
    own.seed = sim::Simulation::ShardSeed(target.seed, k);
    own.schedule.seed = sim::Simulation::ShardSeed(target.schedule.seed, k);
    result.runs[k] = ReplayCompiledOnSimTarget(*benches[k], own);
  };
  if (target.sim_backend == sim::SimBackend::kParallel) {
    util::ThreadPool pool(
        std::min(target.jobs != 0 ? target.jobs : util::DefaultJobs(), benches.size()));
    result.workers = pool.worker_count();
    util::ParallelFor(pool, benches.size(), replay);
  } else {
    for (size_t k = 0; k < benches.size(); ++k) {
      replay(k);
    }
  }
  for (const SimReplayResult& run : result.runs) {
    result.end_time = std::max(result.end_time, run.sim_end_time);
  }
  return result;
}

SimReplayResult ReplayOnSimTarget(const trace::Trace& t,
                                  const trace::FsSnapshot& snapshot,
                                  const CompileOptions& options,
                                  const SimTarget& target) {
  CompiledBenchmark bench = Compile(t, snapshot, options);
  return ReplayCompiledOnSimTarget(bench, target);
}

}  // namespace artc::core
