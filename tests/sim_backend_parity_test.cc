// Differential test for the two Simulation backends: the single-host-thread
// fiber backend (default) and the sharded parallel backend must produce
// bit-identical schedules for the same seed — same virtual end time, same
// switch count, same side-effect order, same replay reports. The scheduler
// (ready list, RNG, event queue) is shared between backends, so any
// divergence means the window machinery leaked into scheduling. Both must
// also equal goldens recorded from an independent switch mechanism (one
// host std::thread per simulated thread, run token over a mutex/condvar).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/check/generator.h"
#include "src/core/artc.h"
#include "src/obs/critpath.h"
#include "src/sim/schedule.h"
#include "src/sim/simulation.h"
#include "src/workloads/micro.h"
#include "src/workloads/synthetic_gen.h"
#include "src/workloads/workload.h"

namespace artc {
namespace {

using core::SimReplayResult;
using core::SimTarget;
using sim::SimBackend;
using sim::SimCondVar;
using sim::SimMutex;
using sim::Simulation;

constexpr SimBackend kAllBackends[] = {SimBackend::kFibers, SimBackend::kParallel};

// A deliberately messy program exercising every scheduling primitive:
// seeded ready-list picks, sleeps, condvars (NotifyOne's RNG choice),
// mutex contention, spawn-from-thread, join, callbacks and cancellation.
struct ChaosResult {
  TimeNs end_time = 0;
  uint64_t switches = 0;
  std::vector<int> order;

  bool operator==(const ChaosResult& o) const {
    return end_time == o.end_time && switches == o.switches && order == o.order;
  }
};

ChaosResult RunChaos(uint64_t seed, SimBackend backend) {
  Simulation sim(seed, backend);
  ChaosResult r;
  SimCondVar cv(&sim);
  SimMutex mu(&sim);
  bool go = false;
  for (int i = 0; i < 6; ++i) {
    sim.Spawn("waiter", [&, i] {
      while (!go) {
        cv.Wait();
      }
      sim.Sleep(Us(10 + i));
      mu.Lock();
      sim.Sleep(Us(50));
      r.order.push_back(i);
      mu.Unlock();
    });
  }
  sim.Spawn("spawner", [&] {
    sim.Sleep(Us(5));
    sim::SimThreadId child = sim.Spawn("child", [&] {
      sim.Sleep(Us(7));
      r.order.push_back(100);
    });
    sim.Join(child);
    go = true;
    cv.NotifyAll();
    for (int k = 0; k < 3; ++k) {
      sim.Sleep(Us(20));
      cv.NotifyOne();  // no waiters most of the time; consumes no RNG then
      r.order.push_back(200 + k);
    }
  });
  uint64_t cancelled = sim.ScheduleCallback(Ms(1), [&] { r.order.push_back(-1); });
  sim.ScheduleCallback(Us(3), [&] {
    r.order.push_back(300);
    sim.CancelCallback(cancelled);
    sim.ScheduleCallback(sim.Now() + Us(1), [&] { r.order.push_back(301); });
  });
  r.end_time = sim.Run();
  r.switches = sim.switch_count();
  return r;
}

TEST(SimBackendParity, ChaosProgramIdenticalAcrossBackends) {
  struct Golden {
    uint64_t seed;
    ChaosResult result;
  };
  const Golden kGolden[] = {
      {1, {322000, 37, {300, 301, 100, 200, 201, 0, 202, 5, 4, 3, 2, 1}}},
      {7, {322000, 37, {300, 301, 100, 200, 201, 0, 202, 4, 5, 3, 1, 2}}},
      {42, {322000, 37, {300, 301, 100, 200, 201, 0, 202, 2, 4, 1, 5, 3}}},
      {20260806, {322000, 37, {300, 301, 100, 200, 201, 0, 202, 2, 3, 5, 1, 4}}},
  };
  for (const Golden& g : kGolden) {
    for (SimBackend backend : kAllBackends) {
      EXPECT_EQ(RunChaos(g.seed, backend), g.result)
          << "seed " << g.seed << " on " << sim::SimBackendName(backend);
    }
  }
}

TEST(SimBackendParity, BackendNamesRoundTripAndThreadsIsRejected) {
  SimBackend out = SimBackend::kFibers;
  EXPECT_TRUE(sim::ParseSimBackendName("parallel", &out));
  EXPECT_STREQ(sim::SimBackendName(out), "parallel");
  // "threads" names no backend; a failed parse leaves the output untouched.
  EXPECT_FALSE(sim::ParseSimBackendName("threads", &out));
  EXPECT_EQ(out, SimBackend::kParallel);
}

TEST(SimBackendParity, DeterministicWithinEachBackend) {
  for (SimBackend backend : kAllBackends) {
    EXPECT_EQ(RunChaos(9, backend), RunChaos(9, backend));
  }
}

TEST(SimBackendParity, DeadlockUnwindsCleanlyOnAllBackends) {
  for (SimBackend backend : kAllBackends) {
    auto sim = std::make_unique<Simulation>(1, backend);
    SimCondVar cv(sim.get());
    sim->Spawn("stuck", [&] { cv.Wait(); });
    sim->Run();
    EXPECT_EQ(sim->UnfinishedThreads(), 1u);
    sim.reset();  // must unwind the blocked thread and free its stack
  }
}

core::CompiledBenchmark CompileParityBench() {
  workloads::RandomReaders::Options opt;
  opt.threads = 4;
  opt.reads_per_thread = 60;
  opt.file_bytes = 64ULL << 20;
  workloads::RandomReaders workload(opt);
  workloads::TracedRun run = workloads::TraceWorkload(workload, {});
  return core::Compile(run.trace, run.snapshot, {});
}

// Golden virtual results of one replay.
struct ReplayGolden {
  TimeNs end_time;
  uint64_t switches;
  TimeNs wall_time;
};

void ExpectGoldenReplay(const SimReplayResult& r, const ReplayGolden& g,
                        const char* label) {
  EXPECT_EQ(r.sim_end_time, g.end_time) << label;
  EXPECT_EQ(r.sim_switches, g.switches) << label;
  EXPECT_EQ(r.report.wall_time, g.wall_time) << label;
}

void ExpectIdenticalReplays(const SimReplayResult& a, const SimReplayResult& b,
                            const char* label) {
  EXPECT_EQ(a.sim_end_time, b.sim_end_time) << label;
  EXPECT_EQ(a.sim_switches, b.sim_switches) << label;
  EXPECT_EQ(a.report.wall_time, b.report.wall_time) << label;
  EXPECT_EQ(a.report.total_events, b.report.total_events) << label;
  EXPECT_EQ(a.report.failed_events, b.report.failed_events) << label;
  EXPECT_EQ(a.report.total_dep_stall, b.report.total_dep_stall) << label;
  ASSERT_EQ(a.report.outcomes.size(), b.report.outcomes.size()) << label;
  for (size_t i = 0; i < a.report.outcomes.size(); ++i) {
    const core::ActionOutcome& x = a.report.outcomes[i];
    const core::ActionOutcome& y = b.report.outcomes[i];
    ASSERT_EQ(x.issue, y.issue) << label << " action " << i;
    ASSERT_EQ(x.complete, y.complete) << label << " action " << i;
    ASSERT_EQ(x.ret, y.ret) << label << " action " << i;
  }
}

// Full pipeline: trace a multithreaded workload once, replay the compiled
// benchmark on both backends, and require identical reports down to the
// per-action timestamps and golden end time, switch count and wall time —
// also under the exploration schedule policies (random / PCT), which
// consume extra RNG at every choice point and so catch any backend that
// perturbs choice-point order.
TEST(SimBackendParity, ReplayReportsIdenticalAcrossBackends) {
  core::CompiledBenchmark bench = CompileParityBench();
  ASSERT_GT(bench.actions.size(), 200u);

  sim::ScheduleSpec random_spec;
  random_spec.kind = sim::ScheduleKind::kRandom;
  random_spec.seed = 77;
  sim::ScheduleSpec pct_spec;
  pct_spec.kind = sim::ScheduleKind::kPct;
  pct_spec.seed = 77;
  pct_spec.pct_change_points = 5;
  pct_spec.pct_horizon = 4000;
  const std::pair<sim::ScheduleSpec, ReplayGolden> kCases[] = {
      {sim::ScheduleSpec{}, {598647149, 275, 598647149}},
      {random_spec, {598647149, 274, 598647149}},
      {pct_spec, {598647149, 274, 598647149}},
  };
  for (const auto& [spec, golden] : kCases) {
    const std::string schedule_name = spec.ToString();
    const char* schedule = schedule_name.c_str();
    SimTarget target;
    target.seed = 12345;
    target.schedule = spec;
    target.sim_backend = SimBackend::kFibers;
    SimReplayResult fibers = core::ReplayCompiledOnSimTarget(bench, target);
    target.sim_backend = SimBackend::kParallel;
    SimReplayResult parallel = core::ReplayCompiledOnSimTarget(bench, target);

    ExpectGoldenReplay(fibers, golden, schedule);
    ExpectIdenticalReplays(fibers, parallel, schedule);
  }
}

// Sync-heavy traces — mutex handoffs, barrier phases, condvar wakeups and
// thread joins, compiled into mutex/barrier/cond/join completion deps —
// replay blocked waits as ordinary dep stalls, so their reports must be
// just as bit-identical across backends as plain fs traces.
TEST(SimBackendParity, SyncTraceReplayIdenticalAcrossBackends) {
  check::GenOptions gen;
  gen.seed = 4242;
  gen.threads = 4;
  gen.ops_per_thread = 24;
  gen.sync = true;
  trace::TraceBundle bundle = check::GenerateTrace(gen);
  uint64_t sync_events = 0;
  for (const trace::TraceEvent& ev : bundle.trace.events) {
    switch (ev.call) {
      case trace::Sys::kMutexLock:
      case trace::Sys::kMutexUnlock:
      case trace::Sys::kBarrierInit:
      case trace::Sys::kBarrierWait:
      case trace::Sys::kCondWait:
      case trace::Sys::kCondSignal:
      case trace::Sys::kCondBroadcast:
      case trace::Sys::kThreadJoin:
        sync_events++;
        break;
      default:
        break;
    }
  }
  ASSERT_GT(sync_events, 20u) << "generator produced no sync workload";
  core::CompiledBenchmark bench = core::Compile(bundle.trace, bundle.snapshot, {});

  sim::ScheduleSpec random_spec;
  random_spec.kind = sim::ScheduleKind::kRandom;
  random_spec.seed = 31;
  const std::pair<sim::ScheduleSpec, ReplayGolden> kCases[] = {
      {sim::ScheduleSpec{}, {29436636, 705, 29436636}},
      {random_spec, {29436636, 700, 29436636}},
  };
  for (const auto& [spec, golden] : kCases) {
    const std::string schedule_name = spec.ToString();
    SimTarget target;
    target.seed = 777;
    target.schedule = spec;
    target.sim_backend = SimBackend::kFibers;
    SimReplayResult fibers = core::ReplayCompiledOnSimTarget(bench, target);
    target.sim_backend = SimBackend::kParallel;
    SimReplayResult parallel = core::ReplayCompiledOnSimTarget(bench, target);
    ExpectGoldenReplay(fibers, golden, schedule_name.c_str());
    ExpectIdenticalReplays(fibers, parallel, schedule_name.c_str());
  }
}

// The 200k-event lockserver synthetic (8 threads, synth seed 31) compiled
// and replayed at seed 7: sync edge counts and the mutex/barrier stall
// split of its critical path.
TEST(SimBackendParity, LockServerGolden) {
  workloads::SynthOptions opt;
  opt.scenario = workloads::SynthScenario::kLockServer;
  opt.threads = 8;
  opt.events = 200000;
  opt.seed = 31;
  trace::TraceBundle bundle = workloads::GenerateSyntheticBundle(opt);
  core::CompiledBenchmark bench = core::Compile(bundle.trace, bundle.snapshot, {});
  EXPECT_EQ(bench.actions.size(), 200000u);
  EXPECT_EQ(bench.thread_actions.size(), 9u);
  EXPECT_EQ(bench.dep_arena.size(), 44048u);
  uint64_t sync_edges = 0;
  for (core::RuleTag rule : {core::RuleTag::kMutex, core::RuleTag::kBarrier,
                             core::RuleTag::kCond, core::RuleTag::kJoin}) {
    sync_edges += bench.edge_stats.count_by_rule[static_cast<size_t>(rule)];
  }
  EXPECT_EQ(sync_edges, 45937u);

  SimTarget target;
  target.seed = 7;
  SimReplayResult replay = core::ReplayCompiledOnSimTarget(bench, target);
  obs::CritPathReport cp = obs::AnalyzeSimReplay(bench, replay);
  EXPECT_EQ(replay.report.failed_events, 0u);
  EXPECT_EQ(replay.report.wall_time, 2433767932);
  EXPECT_EQ(cp.StallByRule(core::RuleTag::kMutex), 1960081845);
  EXPECT_EQ(cp.StallByRule(core::RuleTag::kBarrier), 115791361);
}

core::CompiledBenchmark CompileRandomReaders16() {
  workloads::RandomReaders::Options opt;
  opt.threads = 16;
  opt.reads_per_thread = 6500;
  workloads::RandomReaders workload(opt);
  workloads::TracedRun run = workloads::TraceWorkload(workload, {});
  return core::Compile(run.trace, run.snapshot, {});
}

// The 104k-action random-readers-16 trace replayed at seed 1 on fibers and
// on a one-shard kParallel simulation.
TEST(SimBackendParity, RandomReaders16ReplayGolden) {
  core::CompiledBenchmark bench = CompileRandomReaders16();
  SimTarget target;
  target.seed = 1;
  target.sim_backend = SimBackend::kFibers;
  SimReplayResult fibers = core::ReplayCompiledOnSimTarget(bench, target);
  target.sim_backend = SimBackend::kParallel;
  SimReplayResult parallel = core::ReplayCompiledOnSimTarget(bench, target);

  ExpectGoldenReplay(fibers, {209688891493, 104132, 209688891493}, "rr16");
  EXPECT_EQ(fibers.report.failed_events, 0u);
  ExpectIdenticalReplays(fibers, parallel, "rr16");
}

// Eight copies of the same trace as one sharded kParallel suite at seed 1.
// SimParallel.SuiteShardsMatchStandaloneRuns holds each shard to its
// standalone run; this pins the suite's totals.
TEST(SimBackendParity, RandomReaders16SuiteGolden) {
  core::CompiledBenchmark bench = CompileRandomReaders16();
  std::vector<const core::CompiledBenchmark*> benches(8, &bench);
  SimTarget target;
  target.seed = 1;
  target.sim_backend = SimBackend::kParallel;
  core::SuiteReplayResult suite = core::ReplaySuiteOnSimTarget(benches, target);
  ASSERT_EQ(suite.runs.size(), 8u);

  uint64_t switches = 0;
  uint64_t failed = 0;
  TimeNs max_end = 0;
  TimeNs max_wall = 0;
  for (const SimReplayResult& run : suite.runs) {
    switches += run.sim_switches;
    failed += run.report.failed_events;
    max_end = std::max(max_end, run.sim_end_time);
    max_wall = std::max(max_wall, run.report.wall_time);
  }
  EXPECT_EQ(switches, 833049u);
  EXPECT_EQ(max_end, 209688891493);
  EXPECT_EQ(max_wall, 209688891493);
  EXPECT_EQ(failed, 0u);
}

// Critical-path analysis consumes the replay report + compiled benchmark
// only, so identical replays must yield identical stall attributions on
// both backends (and turning the analyzer on must not perturb the replay).
TEST(SimBackendParity, CritPathIdenticalAcrossBackends) {
  core::CompiledBenchmark bench = CompileParityBench();

  SimTarget target;
  target.seed = 999;
  target.sim_backend = SimBackend::kFibers;
  SimReplayResult fibers = core::ReplayCompiledOnSimTarget(bench, target);
  obs::CritPathReport base = obs::AnalyzeSimReplay(bench, fibers);

  target.sim_backend = SimBackend::kParallel;
  SimReplayResult other = core::ReplayCompiledOnSimTarget(bench, target);
  obs::CritPathReport cp = obs::AnalyzeSimReplay(bench, other);
  EXPECT_EQ(base.segments.size(), cp.segments.size());
  EXPECT_EQ(base.end_time, cp.end_time);
  EXPECT_EQ(base.exec_ns, cp.exec_ns);
  EXPECT_EQ(base.stall_ns, cp.stall_ns);
  EXPECT_EQ(base.pacing_ns, cp.pacing_ns);
  EXPECT_EQ(base.stall_unattributed, cp.stall_unattributed);
  for (size_t i = 0; i < base.stall_by_rule_kind.size(); ++i) {
    EXPECT_EQ(base.stall_by_rule_kind[i], cp.stall_by_rule_kind[i])
        << "rule " << i;
  }
  EXPECT_EQ(base.stall_by_resource, cp.stall_by_resource);
}

}  // namespace
}  // namespace artc
