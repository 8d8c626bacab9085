// Tests for suite replays on the parallel backend (independent simulations
// on a host thread pool): worker-count independence (host workers only
// affect wall time, never virtual time), the suite-vs-standalone
// equivalence property, the empty and over-provisioned edge cases, and
// fiber-stack reclamation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/artc.h"
#include "src/sim/schedule.h"
#include "src/sim/simulation.h"
#include "src/workloads/micro.h"
#include "src/workloads/workload.h"

namespace artc {
namespace {

using core::SimReplayResult;
using core::SimTarget;
using core::SuiteReplayResult;
using sim::SimBackend;
using sim::Simulation;

TEST(SimParallel, FiberStackPoolReclaimsExitedThreads) {
  // A chain of 100 short-lived threads, at most two alive at once: the
  // high-water mark of allocated stacks must track *live* threads, not the
  // total ever spawned.
  Simulation sim(3);
  sim.Spawn("root", [&sim] {
    for (int i = 0; i < 100; ++i) {
      sim::SimThreadId child = sim.Spawn("child", [&sim] { sim.Sleep(Us(1)); });
      sim.Join(child);
    }
  });
  sim.Run();
  EXPECT_EQ(sim.UnfinishedThreads(), 0u);
  EXPECT_LE(sim.FiberStacksAllocated(), 3u);
  EXPECT_EQ(sim.FiberStacksInUse(), 0u);
}

core::CompiledBenchmark CompileSmallBench() {
  workloads::RandomReaders::Options opt;
  opt.threads = 2;
  opt.reads_per_thread = 30;
  opt.file_bytes = 16ULL << 20;
  workloads::RandomReaders workload(opt);
  workloads::TracedRun run = workloads::TraceWorkload(workload, {});
  return core::Compile(run.trace, run.snapshot, {});
}

// Four readers: the scheduler often picks among several ready threads, so a
// replay's schedule seed changes its timeline.
core::CompiledBenchmark CompileFourReaderBench() {
  workloads::RandomReaders::Options opt;
  opt.threads = 4;
  opt.reads_per_thread = 60;
  opt.file_bytes = 64ULL << 20;
  workloads::RandomReaders workload(opt);
  workloads::TracedRun run = workloads::TraceWorkload(workload, {});
  return core::Compile(run.trace, run.snapshot, {});
}

void ExpectSameRun(const SimReplayResult& a, const SimReplayResult& b,
                   const std::string& label) {
  EXPECT_EQ(a.sim_end_time, b.sim_end_time) << label;
  EXPECT_EQ(a.sim_switches, b.sim_switches) << label;
  EXPECT_EQ(a.report.wall_time, b.report.wall_time) << label;
  EXPECT_EQ(a.report.failed_events, b.report.failed_events) << label;
  EXPECT_EQ(a.storage.media_read_blocks, b.storage.media_read_blocks) << label;
  EXPECT_EQ(a.storage.cache_hit_blocks, b.storage.cache_hit_blocks) << label;
  ASSERT_EQ(a.report.outcomes.size(), b.report.outcomes.size()) << label;
  for (size_t i = 0; i < a.report.outcomes.size(); ++i) {
    ASSERT_EQ(a.report.outcomes[i].issue, b.report.outcomes[i].issue)
        << label << " action " << i;
    ASSERT_EQ(a.report.outcomes[i].complete, b.report.outcomes[i].complete)
        << label << " action " << i;
  }
}

// The suite-replay equivalence property: replay k of a parallel suite run is
// bit-identical to a standalone replay seeded with ShardSeed(seed, k) — the
// basis for trusting parallel suite throughput numbers.
TEST(SimParallel, SuiteShardsMatchStandaloneRuns) {
  core::CompiledBenchmark bench = CompileSmallBench();
  std::vector<const core::CompiledBenchmark*> benches = {&bench, &bench, &bench};

  SimTarget target;
  target.seed = 2026;
  target.sim_backend = SimBackend::kParallel;
  target.jobs = 2;
  SuiteReplayResult suite = core::ReplaySuiteOnSimTarget(benches, target);
  ASSERT_EQ(suite.runs.size(), 3u);
  // Independent replays: the suite is a single time window.
  EXPECT_EQ(suite.windows, 1u);

  for (size_t k = 0; k < 3; ++k) {
    SimTarget solo;
    solo.seed = Simulation::ShardSeed(target.seed, k);
    SimReplayResult standalone = core::ReplayCompiledOnSimTarget(bench, solo);
    ExpectSameRun(suite.runs[k], standalone, "replay " + std::to_string(k));
  }
  // Replay 0 keeps the root seed; others get distinct derived streams.
  EXPECT_EQ(Simulation::ShardSeed(target.seed, 0), target.seed);
  EXPECT_NE(Simulation::ShardSeed(target.seed, 1), target.seed);
  EXPECT_NE(Simulation::ShardSeed(target.seed, 1),
            Simulation::ShardSeed(target.seed, 2));
}

// Same property under an exploration schedule: the per-replay policy seed
// is derived with the same ShardSeed stream.
TEST(SimParallel, SuiteShardsMatchStandaloneUnderRandomSchedule) {
  core::CompiledBenchmark bench = CompileFourReaderBench();
  std::vector<const core::CompiledBenchmark*> benches = {&bench, &bench};

  SimTarget target;
  target.seed = 7;
  target.schedule.kind = sim::ScheduleKind::kRandom;
  target.schedule.seed = 33;
  target.sim_backend = SimBackend::kParallel;
  target.jobs = 2;
  SuiteReplayResult suite = core::ReplaySuiteOnSimTarget(benches, target);
  ASSERT_EQ(suite.runs.size(), 2u);

  for (size_t k = 0; k < 2; ++k) {
    SimTarget solo;
    solo.seed = Simulation::ShardSeed(target.seed, k);
    solo.schedule.kind = sim::ScheduleKind::kRandom;
    solo.schedule.seed = Simulation::ShardSeed(target.schedule.seed, k);
    SimReplayResult standalone = core::ReplayCompiledOnSimTarget(bench, solo);
    ExpectSameRun(suite.runs[k], standalone, "replay " + std::to_string(k));
  }
}

TEST(SimParallel, SuiteIndependentOfWorkerCount) {
  core::CompiledBenchmark bench = CompileSmallBench();
  std::vector<const core::CompiledBenchmark*> benches = {&bench, &bench, &bench,
                                                         &bench};
  SimTarget target;
  target.seed = 555;
  target.sim_backend = SimBackend::kParallel;

  target.jobs = 1;
  SuiteReplayResult serial = core::ReplaySuiteOnSimTarget(benches, target);
  for (size_t jobs : {2u, 4u}) {
    target.jobs = jobs;
    SuiteReplayResult par = core::ReplaySuiteOnSimTarget(benches, target);
    ASSERT_EQ(par.runs.size(), serial.runs.size());
    EXPECT_EQ(par.end_time, serial.end_time);
    for (size_t k = 0; k < par.runs.size(); ++k) {
      ExpectSameRun(par.runs[k], serial.runs[k],
                    "jobs=" + std::to_string(jobs) + " replay " + std::to_string(k));
    }
  }
}

// An empty suite replays nothing and starts no pool.
TEST(SimParallel, EmptySuiteReplaysNothing) {
  SimTarget target;
  target.sim_backend = SimBackend::kParallel;
  target.jobs = 4;
  SuiteReplayResult suite = core::ReplaySuiteOnSimTarget({}, target);
  EXPECT_TRUE(suite.runs.empty());
  EXPECT_EQ(suite.end_time, 0);
  EXPECT_EQ(suite.windows, 0u);
  EXPECT_EQ(suite.workers, 1u);
}

// More jobs than benchmarks: one worker per benchmark, and the same runs
// as the fibers backend's serial loop on the calling thread.
TEST(SimParallel, SuiteWorkersCappedAtBenchmarkCount) {
  core::CompiledBenchmark bench = CompileSmallBench();
  std::vector<const core::CompiledBenchmark*> benches = {&bench, &bench};
  SimTarget target;
  target.seed = 91;
  target.sim_backend = SimBackend::kParallel;
  target.jobs = 8;
  SuiteReplayResult par = core::ReplaySuiteOnSimTarget(benches, target);
  EXPECT_EQ(par.workers, 2u);
  EXPECT_EQ(par.windows, 1u);

  target.sim_backend = SimBackend::kFibers;
  SuiteReplayResult serial = core::ReplaySuiteOnSimTarget(benches, target);
  EXPECT_EQ(serial.workers, 1u);
  EXPECT_EQ(serial.windows, 1u);
  EXPECT_EQ(par.end_time, serial.end_time);
  ASSERT_EQ(par.runs.size(), serial.runs.size());
  for (size_t k = 0; k < par.runs.size(); ++k) {
    ExpectSameRun(par.runs[k], serial.runs[k], "replay " + std::to_string(k));
  }
}

}  // namespace
}  // namespace artc
