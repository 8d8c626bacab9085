#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "src/core/artc.h"
#include "src/core/compiler.h"
#include "src/core/emulation.h"
#include "src/workloads/magritte.h"
#include "src/workloads/micro.h"
#include "src/workloads/minikv.h"
#include "src/workloads/workload.h"

namespace artc::core {
namespace {

using workloads::RandomReaders;
using workloads::SourceConfig;
using workloads::TracedRun;
using workloads::TraceWorkload;

TracedRun SmallRandomReaderTrace(uint32_t threads = 2, uint32_t reads = 60) {
  RandomReaders::Options opt;
  opt.threads = threads;
  opt.reads_per_thread = reads;
  opt.file_bytes = 64ULL << 20;
  RandomReaders w(opt);
  SourceConfig src;
  src.storage = storage::MakeNamedConfig("ssd");
  return TraceWorkload(w, src);
}

TEST(ReplayMethods, FindByNameRoundTrips) {
  for (const char* name : kReplayMethodNames) {
    std::optional<ReplayMethod> m = FindReplayMethod(name);
    ASSERT_TRUE(m.has_value()) << name;
    EXPECT_STREQ(ReplayMethodName(*m), name);
  }
  EXPECT_EQ(FindReplayMethod("temporal"), ReplayMethod::kTemporal);
  EXPECT_FALSE(FindReplayMethod("bogus").has_value());
  EXPECT_FALSE(FindReplayMethod("").has_value());
}

TEST(Compiler, ProducesActionsAndThreads) {
  TracedRun run = SmallRandomReaderTrace();
  CompileOptions opt;
  CompiledBenchmark bench = Compile(run.trace, run.snapshot, opt);
  EXPECT_EQ(bench.actions.size(), run.trace.events.size());
  EXPECT_EQ(bench.thread_actions.size(), 2u);  // two reader threads
  EXPECT_GT(bench.fd_slot_count, 0u);
  EXPECT_EQ(bench.model_warnings, 0u);
  // Deps only point backward.
  for (uint32_t i = 0; i < bench.actions.size(); ++i) {
    for (const Dep& d : bench.DepsFor(i)) {
      EXPECT_LT(d.event, i);
    }
  }
}

TEST(Compiler, SingleThreadedHasOneReplayThreadAndNoDeps) {
  TracedRun run = SmallRandomReaderTrace();
  CompileOptions opt;
  opt.method = ReplayMethod::kSingleThreaded;
  CompiledBenchmark bench = Compile(run.trace, run.snapshot, opt);
  ASSERT_EQ(bench.thread_actions.size(), 1u);
  EXPECT_EQ(bench.thread_actions[0].size(), bench.actions.size());
  for (uint32_t i = 0; i < bench.actions.size(); ++i) {
    EXPECT_TRUE(bench.DepsFor(i).empty());
  }
}

TEST(Compiler, TemporalChainsIssueOrder) {
  TracedRun run = SmallRandomReaderTrace();
  CompileOptions opt;
  opt.method = ReplayMethod::kTemporal;
  CompiledBenchmark bench = Compile(run.trace, run.snapshot, opt);
  for (size_t i = 1; i < bench.actions.size(); ++i) {
    DepSpan deps = bench.DepsFor(static_cast<uint32_t>(i));
    ASSERT_EQ(deps.size(), 1u);
    EXPECT_EQ(deps[0].event, i - 1);
    EXPECT_EQ(deps[0].kind, DepKind::kIssue);
  }
}

TEST(Compiler, ArtcEdgesAreFewerButLongerThanTemporal) {
  // The Fig. 8 property: ARTC has (somewhat) fewer and much longer edges.
  workloads::KvReadRandom::Options opt;
  opt.threads = 4;
  opt.gets_per_thread = 150;
  opt.tables = 32;
  opt.keys_per_table = 2000;
  workloads::KvReadRandom w(opt);
  SourceConfig src;
  src.storage = storage::MakeNamedConfig("hdd");
  TracedRun run = TraceWorkload(w, src);

  CompileOptions artc_opt;
  CompiledBenchmark artc = Compile(run.trace, run.snapshot, artc_opt);
  CompileOptions temporal_opt;
  temporal_opt.method = ReplayMethod::kTemporal;
  CompiledBenchmark temporal = Compile(run.trace, run.snapshot, temporal_opt);

  uint64_t artc_edges =
      artc.edge_stats.TotalEdges() -
      artc.edge_stats.count_by_rule[static_cast<size_t>(RuleTag::kThreadSeq)];
  uint64_t temporal_edges = temporal.edge_stats.TotalEdges();
  EXPECT_GT(artc_edges, 0u);
  EXPECT_LT(artc_edges, temporal_edges);

  double artc_len =
      artc.edge_stats.total_length_ns[static_cast<size_t>(RuleTag::kFileSeq)] /
      std::max<double>(
          1.0, static_cast<double>(
                   artc.edge_stats.count_by_rule[static_cast<size_t>(RuleTag::kFileSeq)]));
  double temporal_len =
      temporal.edge_stats.total_length_ns[static_cast<size_t>(RuleTag::kTemporal)] /
      static_cast<double>(temporal_edges);
  EXPECT_GT(artc_len, temporal_len * 5);
}

TEST(Replay, ArtcOnSameTargetIsSemanticallyCleanAndTimingAccurate) {
  TracedRun run = SmallRandomReaderTrace(2, 100);
  SimTarget target;
  target.storage = storage::MakeNamedConfig("ssd");
  CompileOptions opt;
  SimReplayResult res = ReplayOnSimTarget(run.trace, run.snapshot, opt, target);
  EXPECT_EQ(res.report.failed_events, 0u) << res.report.Summary();
  double err = std::abs(ToSeconds(res.report.wall_time) - ToSeconds(run.elapsed)) /
               ToSeconds(run.elapsed);
  EXPECT_LT(err, 0.2) << "replay " << ToSeconds(res.report.wall_time) << "s vs orig "
                      << ToSeconds(run.elapsed) << "s";
}

TEST(Replay, AllMethodsSemanticallyCleanOnConstrainedWorkload) {
  TracedRun run = SmallRandomReaderTrace();
  for (ReplayMethod m : {ReplayMethod::kArtc, ReplayMethod::kSingleThreaded,
                         ReplayMethod::kTemporal, ReplayMethod::kUnconstrained}) {
    CompileOptions opt;
    opt.method = m;
    SimTarget target;
    target.storage = storage::MakeNamedConfig("ssd");
    SimReplayResult res = ReplayOnSimTarget(run.trace, run.snapshot, opt, target);
    // Private per-thread files: even unconstrained replay is clean.
    EXPECT_EQ(res.report.failed_events, 0u) << ReplayMethodName(m);
    EXPECT_EQ(res.report.total_events, run.trace.events.size());
  }
}

TEST(Replay, UnconstrainedBreaksCrossThreadHandoff) {
  // A workload where one thread opens files and others write/close them
  // must produce replay errors when all cross-thread ordering is dropped.
  const workloads::MagritteSpec& spec =
      workloads::FindMagritteSpec("iphoto_import");
  SourceConfig src;
  src.storage = storage::MakeNamedConfig("ssd");
  TracedRun run = workloads::TraceMagritte(spec, src);
  ASSERT_GT(run.trace.events.size(), 500u);

  SimTarget target;
  target.storage = storage::MakeNamedConfig("ssd");
  CompileOptions uc;
  uc.method = ReplayMethod::kUnconstrained;
  SimReplayResult uc_res = ReplayOnSimTarget(run.trace, run.snapshot, uc, target);

  CompileOptions artc;
  SimReplayResult artc_res = ReplayOnSimTarget(run.trace, run.snapshot, artc, target);

  EXPECT_GT(uc_res.report.failed_events, artc_res.report.failed_events * 5)
      << "UC: " << uc_res.report.Summary() << "\nARTC: " << artc_res.report.Summary();
  // ARTC's residual errors stem from the injected xattr-init gaps only.
  EXPECT_LE(artc_res.report.failed_events, 16u) << artc_res.report.Summary();
}

TEST(Replay, PredelayNaturalPacingSlowsReplay) {
  TracedRun run = SmallRandomReaderTrace(1, 50);
  SimTarget afap;
  afap.storage = storage::MakeNamedConfig("ssd");
  CompileOptions opt;
  SimReplayResult fast = ReplayOnSimTarget(run.trace, run.snapshot, opt, afap);
  SimTarget natural = afap;
  natural.replay.pacing = PacingMode::kNatural;
  SimReplayResult slow = ReplayOnSimTarget(run.trace, run.snapshot, opt, natural);
  EXPECT_GT(slow.report.wall_time, fast.report.wall_time);
  // Natural-speed replay should approximate the original closely.
  double err = std::abs(ToSeconds(slow.report.wall_time) - ToSeconds(run.elapsed)) /
               ToSeconds(run.elapsed);
  EXPECT_LT(err, 0.15);
}

TEST(Replay, FdValuesAreRemappedNotReused) {
  // Two consecutive generations of fd 3 (T2 opens after T1 closes in the
  // trace); replay may overlap them, and the slot table must keep each
  // thread's calls on its own runtime descriptor.
  trace::Trace t;
  auto add = [&t](uint32_t tid, trace::Sys call, int64_t ret,
                  TimeNs at) -> trace::TraceEvent& {
    trace::TraceEvent ev;
    ev.index = t.events.size();
    ev.tid = tid;
    ev.call = call;
    ev.ret = ret;
    ev.enter = at;
    ev.ret_time = at + 100;
    t.events.push_back(ev);
    return t.events.back();
  };
  auto& o1 = add(1, trace::Sys::kOpen, 3, 0);
  o1.path = "/a";
  o1.flags = trace::kOpenRead;
  o1.fd = 3;
  auto& r1 = add(1, trace::Sys::kRead, 4096, 1000);
  r1.fd = 3;
  r1.size = 4096;
  auto& c1 = add(1, trace::Sys::kClose, 0, 2000);
  c1.fd = 3;
  auto& o2 = add(2, trace::Sys::kOpen, 3, 2500);  // next generation of "3"
  o2.path = "/b";
  o2.flags = trace::kOpenRead;
  o2.fd = 3;
  auto& r2 = add(2, trace::Sys::kRead, 4096, 3500);
  r2.fd = 3;
  r2.size = 4096;
  auto& c2 = add(2, trace::Sys::kClose, 0, 4500);
  c2.fd = 3;

  trace::FsSnapshot snap;
  snap.AddFile("/a", 8192);
  snap.AddFile("/b", 8192);
  snap.Canonicalize();

  CompileOptions opt;
  CompiledBenchmark bench = Compile(t, snap, opt);
  EXPECT_EQ(bench.fd_slot_count, 2u);
  SimTarget target;
  target.storage = storage::MakeNamedConfig("ssd");
  SimReplayResult res = ReplayCompiledOnSimTarget(bench, target);
  EXPECT_EQ(res.report.failed_events, 0u) << res.report.Summary();
}

TEST(Replay, ReplaysTraceWithOsxCallsOnLinuxTarget) {
  trace::Trace t;
  auto add = [&t](trace::Sys call, int64_t ret) -> trace::TraceEvent& {
    trace::TraceEvent ev;
    ev.index = t.events.size();
    ev.tid = 1;
    ev.call = call;
    ev.ret = ret;
    ev.enter = static_cast<TimeNs>(t.events.size()) * 1000;
    ev.ret_time = ev.enter + 100;
    t.events.push_back(ev);
    return t.events.back();
  };
  auto& ga = add(trace::Sys::kGetAttrList, 0);
  ga.path = "/a";
  auto& xd = add(trace::Sys::kExchangeData, 0);
  xd.path = "/a";
  xd.path2 = "/b";
  auto& u1 = add(trace::Sys::kOsxUndoc1, 0);
  u1.path = "/a";

  trace::FsSnapshot snap;
  snap.AddFile("/a", 100);
  snap.AddFile("/b", 5000);
  snap.Canonicalize();

  CompileOptions opt;
  SimTarget target;
  target.storage = storage::MakeNamedConfig("ssd");
  target.emulation.target_os = "linux";
  SimReplayResult res = ReplayOnSimTarget(t, snap, opt, target);
  EXPECT_EQ(res.report.failed_events, 0u) << res.report.Summary();
}

TEST(Emulation, RuleTable) {
  EXPECT_EQ(GetEmulationRule(trace::Sys::kGetAttrList, "linux").action,
            EmulationAction::kSubstitute);
  EXPECT_EQ(GetEmulationRule(trace::Sys::kGetAttrList, "osx").action,
            EmulationAction::kNative);
  EXPECT_EQ(GetEmulationRule(trace::Sys::kExchangeData, "linux").action,
            EmulationAction::kSequence);
  EXPECT_EQ(GetEmulationRule(trace::Sys::kFcntlRdAdvise, "freebsd").action,
            EmulationAction::kIgnore);
  EXPECT_EQ(GetEmulationRule(trace::Sys::kFcntlRdAdvise, "linux").action,
            EmulationAction::kSubstitute);
  EXPECT_EQ(GetEmulationRule(trace::Sys::kRead, "linux").action,
            EmulationAction::kNative);
  EXPECT_EQ(GetEmulationRule(trace::Sys::kFcntlFullFsync, "linux").substitute,
            trace::Sys::kFsync);
}

TEST(Report, OutcomeMatching) {
  trace::TraceEvent ev;
  ev.call = trace::Sys::kOpen;
  ev.ret = 3;
  EXPECT_TRUE(OutcomeMatches(ev, 7));    // any successful fd matches
  EXPECT_FALSE(OutcomeMatches(ev, -2));  // failure does not
  ev.call = trace::Sys::kRead;
  ev.ret = 4096;
  EXPECT_TRUE(OutcomeMatches(ev, 4096));
  EXPECT_FALSE(OutcomeMatches(ev, 100));  // short read mismatches
  ev.ret = -trace::kENOENT;
  EXPECT_TRUE(OutcomeMatches(ev, -trace::kENOENT));
  EXPECT_FALSE(OutcomeMatches(ev, -trace::kEBADF));
}

}  // namespace
}  // namespace artc::core
