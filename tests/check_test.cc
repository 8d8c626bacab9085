// Tests for the src/check/ harness: generator determinism, the independent
// happens-before reference model, the invariant oracle (including negative
// cases proving it actually rejects rule-violating graphs), schedule
// policies, and the multi-schedule explorer. Also pins down the two
// annotator ordering bugs the fuzzer found, as crafted-trace regressions.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/check/explorer.h"
#include "src/check/generator.h"
#include "src/check/oracle.h"
#include "src/check/refmodel.h"
#include "src/core/artc.h"
#include "src/fsmodel/resource_model.h"
#include "src/sim/schedule.h"
#include "src/trace/trace_io.h"
#include "src/util/rng.h"

#ifndef ARTC_FIXTURE_DIR
#error "build must define ARTC_FIXTURE_DIR"
#endif

namespace artc::check {
namespace {

std::string Serialize(const trace::TraceBundle& bundle) {
  std::ostringstream out;
  trace::WriteTraceBundle(bundle, out);
  return out.str();
}

trace::TraceBundle ParseBundle(const std::string& text) {
  std::istringstream in(text);
  return trace::ReadTraceBundle(in);
}

TEST(Generator, DeterministicForSeed) {
  GenOptions opt;
  opt.seed = 42;
  std::string a = Serialize(GenerateTrace(opt));
  std::string b = Serialize(GenerateTrace(opt));
  EXPECT_EQ(a, b);

  opt.seed = 43;
  EXPECT_NE(a, Serialize(GenerateTrace(opt)));
}

// The generator holds one global simulated mutex across every operation, so
// the recorded call windows must be disjoint and in trace order — which is
// what makes the trace sequentially consistent and thus replayable under
// any legal schedule.
TEST(Generator, TracesAreSequentiallyConsistent) {
  for (uint64_t seed : {7u, 8u, 9u}) {
    GenOptions opt;
    opt.seed = seed;
    trace::TraceBundle bundle = GenerateTrace(opt);
    ASSERT_FALSE(bundle.trace.events.empty());
    for (size_t i = 1; i < bundle.trace.events.size(); ++i) {
      const trace::TraceEvent& prev = bundle.trace.events[i - 1];
      const trace::TraceEvent& cur = bundle.trace.events[i];
      EXPECT_GE(cur.enter, prev.ret_time) << "overlapping windows at event " << i;
    }

    // Self-consistency: the production annotator and the independent
    // reference model must both accept the trace without a single warning
    // or predicted-return mismatch.
    fsmodel::AnnotatedTrace annotated =
        fsmodel::AnnotateTrace(bundle.trace, bundle.snapshot);
    EXPECT_EQ(annotated.warnings, 0u) << "seed " << seed;

    RefModel model = BuildRefModel(bundle);
    EXPECT_EQ(model.mismatched_returns, 0u) << model.first_mismatch;
    EXPECT_EQ(model.unsupported_events, 0u);
    EXPECT_FALSE(model.edges.empty());
    for (const HbEdge& e : model.edges) {
      EXPECT_LT(e.before, e.after);
      EXPECT_LT(e.after, bundle.trace.events.size());
    }
  }
}

TEST(Generator, BundleRoundTrips) {
  GenOptions opt;
  opt.seed = 21;
  trace::TraceBundle bundle = GenerateTrace(opt);
  std::string text = Serialize(bundle);
  trace::TraceBundle reread = ParseBundle(text);
  EXPECT_EQ(reread.trace.events.size(), bundle.trace.events.size());
  EXPECT_EQ(reread.snapshot.entries.size(), bundle.snapshot.entries.size());
  EXPECT_EQ(Serialize(reread), text);
}

TEST(SnapshotDigest, DistinguishesStates) {
  GenOptions opt;
  opt.seed = 3;
  trace::TraceBundle bundle = GenerateTrace(opt);
  trace::FsSnapshot empty;
  EXPECT_EQ(trace::SnapshotDigest(bundle.snapshot), trace::SnapshotDigest(bundle.snapshot));
  EXPECT_NE(trace::SnapshotDigest(bundle.snapshot), trace::SnapshotDigest(empty));
}

// ---------------------------------------------------------------------------
// Schedule policies.

TEST(SchedulePolicy, SpecToStringForms) {
  sim::ScheduleSpec spec;
  EXPECT_EQ(spec.ToString(), "default");
  EXPECT_EQ(sim::MakeSchedulePolicy(spec), nullptr);

  spec.kind = sim::ScheduleKind::kRandom;
  spec.seed = 7;
  EXPECT_EQ(spec.ToString(), "random:7");
  EXPECT_NE(sim::MakeSchedulePolicy(spec), nullptr);

  spec.kind = sim::ScheduleKind::kPct;
  spec.pct_change_points = 8;
  EXPECT_EQ(spec.ToString(), "pct:7/8");
  EXPECT_NE(sim::MakeSchedulePolicy(spec), nullptr);
}

TEST(SchedulePolicy, ParseRoundTripsAndRejectsMalformedNumbers) {
  std::vector<sim::ScheduleSpec> specs(4);
  specs[1].kind = sim::ScheduleKind::kRandom;
  specs[1].seed = 18446744073709551615ULL;
  specs[2].kind = sim::ScheduleKind::kPct;
  specs[2].seed = 5;
  specs[2].pct_change_points = 4;
  specs[3].kind = sim::ScheduleKind::kPct;
  specs[3].seed = 0;
  specs[3].pct_change_points = 4294967295U;
  for (const sim::ScheduleSpec& spec : specs) {
    sim::ScheduleSpec parsed;
    ASSERT_TRUE(sim::ParseScheduleSpec(spec.ToString(), &parsed)) << spec.ToString();
    EXPECT_EQ(parsed.ToString(), spec.ToString());
  }

  // A bare PCT seed keeps the default change-point count.
  sim::ScheduleSpec pct;
  ASSERT_TRUE(sim::ParseScheduleSpec("pct:5", &pct));
  EXPECT_EQ(pct.ToString(), "pct:5/8");

  for (const char* bad : {"random:", "random:abc", "random:1x", "random:-1",
                          "random:18446744073709551616", "pct:", "pct:5x/zz",
                          "pct:5/", "pct:/4", "pct:5/4294967296", "default:1",
                          "Random:1", ""}) {
    sim::ScheduleSpec parsed;
    parsed.kind = sim::ScheduleKind::kRandom;
    EXPECT_FALSE(sim::ParseScheduleSpec(bad, &parsed)) << bad;
    EXPECT_EQ(parsed.ToString(), "default") << bad;
  }
}

TEST(SchedulePolicy, RandomIsDeterministicPerSeed) {
  const sim::SimThreadId ids[] = {3, 5, 8, 13};
  auto run = [&](uint64_t seed) {
    sim::RandomSchedulePolicy policy(seed);
    Rng rng(999);  // simulation stream; the policy must not depend on it
    std::vector<size_t> picks;
    for (int i = 0; i < 64; ++i) {
      size_t n = 2 + static_cast<size_t>(i % 3);
      size_t pick = policy.Pick(sim::ChoicePoint::kRun, ids, n, rng);
      EXPECT_LT(pick, n);
      picks.push_back(pick);
    }
    return picks;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

TEST(SchedulePolicy, PctPicksStayInRange) {
  const sim::SimThreadId ids[] = {1, 2, 3, 4, 5, 6};
  sim::PctSchedulePolicy policy(11, 4, 256);
  Rng rng(1);
  for (int i = 0; i < 512; ++i) {
    size_t n = 2 + static_cast<size_t>(i % 5);
    EXPECT_LT(policy.Pick(i % 2 == 0 ? sim::ChoicePoint::kRun : sim::ChoicePoint::kWake,
                          ids, n, rng),
              n);
  }
}

TEST(SchedulePolicy, PrefixReplaysPicksAndRecordsFactors) {
  const sim::SimThreadId ids[] = {1, 2, 3};
  sim::PrefixSchedulePolicy policy({1, 0, 2});
  Rng rng(1);
  EXPECT_EQ(policy.Pick(sim::ChoicePoint::kRun, ids, 3, rng), 1u);
  EXPECT_EQ(policy.Pick(sim::ChoicePoint::kRun, ids, 3, rng), 0u);
  EXPECT_EQ(policy.Pick(sim::ChoicePoint::kWake, ids, 3, rng), 2u);
  // Beyond the prefix: always the default candidate.
  EXPECT_EQ(policy.Pick(sim::ChoicePoint::kRun, ids, 2, rng), 0u);
  EXPECT_EQ(policy.factors(), (std::vector<uint32_t>{3, 3, 3, 2}));
}

// ---------------------------------------------------------------------------
// Oracle negatives: prove the checker actually rejects bad graphs/runs.

trace::TraceBundle TwoOpensOfOneFile() {
  return ParseBundle(
      "#snapshot F /a 100\n"
      "0 1 1000 2000 open ret=3 path=\"/a\" flags=0x0 mode=0\n"
      "1 2 3000 4000 open ret=4 path=\"/a\" flags=0x0 mode=0\n");
}

TEST(Oracle, FlagsHappensBeforeViolation) {
  trace::TraceBundle bundle = TwoOpensOfOneFile();
  RefModel model = BuildRefModel(bundle);
  ASSERT_FALSE(model.edges.empty());  // at least the sequential-rule edge 0 -> 1

  core::ReplayReport report;
  report.outcomes.resize(2);
  report.outcomes[0] = {.issue = 10, .complete = 20, .executed = true};
  report.outcomes[1] = {.issue = 25, .complete = 30, .executed = true};
  EXPECT_TRUE(CheckSchedule(model, bundle.trace, report).ok());

  // Now run them "in parallel": event 1 issues before event 0 completes.
  report.outcomes[1].issue = 5;
  OracleFindings findings = CheckSchedule(model, bundle.trace, report);
  EXPECT_GT(findings.hb_violations, 0u);
  EXPECT_FALSE(findings.ok());
  EXPECT_FALSE(findings.first_violation.empty());
}

TEST(Oracle, FlagsUnexecutedActions) {
  trace::TraceBundle bundle = TwoOpensOfOneFile();
  RefModel model = BuildRefModel(bundle);
  core::ReplayReport report;
  report.outcomes.resize(2);
  report.outcomes[0] = {.issue = 10, .complete = 20, .executed = true};
  report.outcomes[1] = {.issue = 25, .complete = 30, .executed = false};
  OracleFindings findings = CheckSchedule(model, bundle.trace, report);
  EXPECT_EQ(findings.unexecuted, 1u);
  EXPECT_FALSE(findings.ok());
}

// Compiling with the name rule disabled must produce graphs the oracle
// rejects — the end-to-end negative proving the harness would catch a
// compiler that silently dropped a rule. The trace needs an op whose ONLY
// ordering comes through a path generation: a mkdir that fails because its
// parent was already removed. (Two successful ops in one directory won't
// do — the sequential rule on the shared parent node still orders them.)
TEST(Oracle, CatchesCompilerMissingNameRule) {
  trace::TraceBundle bundle = ParseBundle(
      "#snapshot D /d\n"
      "0 1 1000 2000 rmdir ret=0 path=\"/d\"\n"
      "1 2 3000 4000 mkdir ret=-2 path=\"/d/x\" mode=0755\n");

  ExploreOptions opt;
  opt.random_schedules = 2;
  opt.pct_schedules = 0;
  opt.exhaustive_preemption_bound = 1;
  opt.exhaustive_budget = 16;

  // Control: with the full rule set every enumerated schedule is clean.
  ExploreResult control = ExploreBundle(bundle, opt);
  EXPECT_TRUE(control.ok()) << (control.problems.empty() ? "" : control.problems[0]);
  EXPECT_GT(control.schedules_run, 1u);

  // Without the name rule the failed mkdir compiles with zero deps, issues
  // before the rmdir completes, and both the return check and the refmodel
  // edge 0 -> 1 flag the run.
  opt.compile.modes.path_stage_name = false;
  ExploreResult result = ExploreBundle(bundle, opt);
  EXPECT_GT(result.violations, 0u)
      << "explorer accepted replays compiled without the name rule";
}

// ---------------------------------------------------------------------------
// Regressions for the two annotator bugs the fuzzer found.

// Bug 1: an operation that fails because an intermediate path component is
// missing (here: mkdir under a removed directory) must depend on the event
// that unbound that prefix. Without the edge the mkdir can replay before
// the rmdir, find the parent alive, and return 0 instead of -ENOENT.
TEST(Regression, FailedOpDependsOnMissingPrefix) {
  trace::TraceBundle bundle = ParseBundle(
      "#snapshot D /d\n"
      "0 1 1000 2000 rmdir ret=0 path=\"/d\"\n"
      "1 2 3000 4000 mkdir ret=-2 path=\"/d/x\" mode=0755\n");

  core::CompiledBenchmark bench =
      core::Compile(bundle.trace, bundle.snapshot, core::CompileOptions{});
  bool depends_on_rmdir = false;
  for (const core::Dep& d : bench.DepsFor(1)) {
    if (d.event == 0) {
      depends_on_rmdir = true;
    }
  }
  EXPECT_TRUE(depends_on_rmdir)
      << "failed mkdir compiled with no edge to the rmdir that removed its parent";

  // The independent model must agree that the edge is required.
  RefModel model = BuildRefModel(bundle);
  bool model_has_edge = false;
  for (const HbEdge& e : model.edges) {
    model_has_edge |= (e.before == 0 && e.after == 1);
  }
  EXPECT_TRUE(model_has_edge);
  EXPECT_EQ(model.mismatched_returns, 0u) << model.first_mismatch;
}

// Bug 2: rename(a, b) where both names are hard links to the same inode is
// a POSIX no-op (returns 0, the source stays bound). The annotator used to
// unbind the source anyway, desynchronizing its shadow namespace — every
// later access through the stale name was modeled as a fresh create and
// its sequential/stage edges were silently dropped.
TEST(Regression, SameNodeRenameIsANoop) {
  trace::TraceBundle bundle = ParseBundle(
      "#snapshot F /a 100\n"
      "0 1 1000 2000 link ret=0 path=\"/a\" path2=\"/b\"\n"
      "1 1 3000 4000 rename ret=0 path=\"/a\" path2=\"/b\"\n"
      "2 1 5000 6000 open ret=3 path=\"/a\" flags=0x0 mode=0\n"
      "3 2 7000 8000 open ret=4 path=\"/b\" flags=0x0 mode=0\n");

  fsmodel::AnnotatedTrace annotated =
      fsmodel::AnnotateTrace(bundle.trace, bundle.snapshot);
  EXPECT_EQ(annotated.warnings, 0u)
      << "annotator lost the /a binding across a same-node rename";

  RefModel model = BuildRefModel(bundle);
  EXPECT_EQ(model.mismatched_returns, 0u) << model.first_mismatch;
  // Both opens reach the same inode, so the sequential rule must order them.
  bool opens_ordered = false;
  for (const HbEdge& e : model.edges) {
    opens_ordered |= (e.before == 2 && e.after == 3 && e.rule == HbRule::kFileSeq);
  }
  EXPECT_TRUE(opens_ordered);
}

// ---------------------------------------------------------------------------
// Explorer end-to-end.

TEST(Explorer, DefaultPolicyRunsAreBitIdentical) {
  GenOptions gen;
  gen.seed = 12;
  gen.threads = 3;
  gen.ops_per_thread = 10;
  trace::TraceBundle bundle = GenerateTrace(gen);
  core::CompiledBenchmark bench =
      core::Compile(bundle.trace, bundle.snapshot, core::CompileOptions{});
  core::SimTarget target;
  target.storage = storage::MakeNamedConfig("ssd");

  trace::FsSnapshot state_a;
  trace::FsSnapshot state_b;
  core::SimReplayResult a = core::ReplayCompiledUnderPolicy(bench, target, nullptr, &state_a);
  core::SimReplayResult b = core::ReplayCompiledUnderPolicy(bench, target, nullptr, &state_b);
  EXPECT_EQ(a.sim_end_time, b.sim_end_time);
  EXPECT_EQ(a.sim_switches, b.sim_switches);
  EXPECT_EQ(trace::SnapshotDigest(state_a), trace::SnapshotDigest(state_b));
  EXPECT_EQ(a.unfinished_threads, 0u);

  // The spec-driven entry point builds the same world: its default spec is
  // the built-in scheduler, and a random spec is that spec's policy.
  trace::FsSnapshot state_c;
  core::SimReplayResult c = core::ReplayCompiledOnSimTarget(bench, target, &state_c);
  EXPECT_EQ(c.sim_end_time, a.sim_end_time);
  EXPECT_EQ(c.sim_switches, a.sim_switches);
  EXPECT_EQ(trace::SnapshotDigest(state_c), trace::SnapshotDigest(state_a));

  ASSERT_TRUE(sim::ParseScheduleSpec("random:5", &target.schedule));
  sim::RandomSchedulePolicy policy(5);
  core::SimReplayResult by_spec = core::ReplayCompiledOnSimTarget(bench, target);
  core::SimReplayResult by_policy = core::ReplayCompiledUnderPolicy(bench, target, &policy);
  EXPECT_EQ(by_spec.sim_end_time, by_policy.sim_end_time);
  EXPECT_EQ(by_spec.sim_switches, by_policy.sim_switches);
  EXPECT_EQ(by_spec.report.wall_time, by_policy.report.wall_time);
}

TEST(Explorer, MultiScheduleCleanOnGeneratedTrace) {
  GenOptions gen;
  gen.seed = 5;
  trace::TraceBundle bundle = GenerateTrace(gen);

  ExploreOptions opt;
  opt.seed = 5;
  opt.random_schedules = 4;
  opt.pct_schedules = 2;
  ExploreResult result = ExploreBundle(bundle, opt);
  EXPECT_TRUE(result.ok()) << (result.problems.empty() ? "" : result.problems[0]);
  EXPECT_GE(result.schedules_run, 7u);  // baseline + 4 random + 2 pct
  EXPECT_GT(result.hb_edges, 0u);

  // Schedule-invariant final state: every run converged on one digest.
  ASSERT_FALSE(result.runs.empty());
  std::set<uint64_t> digests;
  for (const ScheduleRunSummary& run : result.runs) {
    digests.insert(run.digest);
  }
  EXPECT_EQ(digests.size(), 1u);
}

TEST(Explorer, ExhaustiveEnumerationVisitsSiblingSchedules) {
  GenOptions gen;
  gen.seed = 33;
  gen.threads = 2;
  gen.ops_per_thread = 5;
  trace::TraceBundle bundle = GenerateTrace(gen);

  ExploreOptions opt;
  opt.seed = 33;
  opt.random_schedules = 0;
  opt.pct_schedules = 0;
  opt.exhaustive_preemption_bound = 1;
  opt.exhaustive_budget = 12;
  ExploreResult result = ExploreBundle(bundle, opt);
  EXPECT_TRUE(result.ok()) << (result.problems.empty() ? "" : result.problems[0]);
  EXPECT_GT(result.schedules_run, 1u);  // baseline plus enumerated prefixes
}

// A corpus bundle with one return value altered: the trace-level check
// fails whatever the schedule.
trace::TraceBundle StatRetMismatchBundle() {
  std::ifstream in(ARTC_FIXTURE_DIR "/stat_ret_mismatch.trace");
  return trace::ReadTraceBundle(in);
}

TEST(Explorer, UnderSpecAppliesTheExplorationVerdict) {
  trace::TraceBundle bundle = StatRetMismatchBundle();
  ASSERT_FALSE(bundle.trace.events.empty());
  ExploreOptions opt;
  opt.random_schedules = 2;
  opt.pct_schedules = 0;
  ExploreResult explored = ExploreBundle(bundle, opt);
  ExploreResult repro = ExploreUnderSpec(bundle, sim::ScheduleSpec(), opt);
  ASSERT_FALSE(explored.ok());
  ASSERT_FALSE(repro.ok());
  EXPECT_EQ(repro.schedules_run, 2u);  // the baseline and the named schedule
  EXPECT_EQ(repro.hb_edges, explored.hb_edges);
  ASSERT_FALSE(repro.problems.empty());
  EXPECT_EQ(repro.problems[0], explored.problems[0]);
  EXPECT_NE(repro.problems[0].find("disagrees with the reference model"), std::string::npos)
      << repro.problems[0];
}

TEST(Explorer, ReproCommandNamesTheStorage) {
  ExploreOptions opt;
  opt.random_schedules = 1;
  opt.pct_schedules = 0;
  opt.target.storage = storage::MakeNamedConfig("hdd");
  opt.repro_dir = testing::TempDir() + "/check_test_repro_storage";
  std::filesystem::remove_all(opt.repro_dir);
  ExploreResult result = ExploreBundle(StatRetMismatchBundle(), opt);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.repro_path, opt.repro_dir + "/repro.trace");

  std::ifstream txt(opt.repro_dir + "/repro.txt");
  std::string line;
  std::string reproduce;
  while (std::getline(txt, line)) {
    if (line.rfind("reproduce: ", 0) == 0) {
      reproduce = line;
    }
  }
  EXPECT_EQ(reproduce, "reproduce: check_artc --corpus=" + result.repro_path +
                           " --schedule=default --storage=hdd");
  std::filesystem::remove_all(opt.repro_dir);
}

// A bundle that fails the trace-level checks is still minimized, and the
// minimized bundle fails under the schedule its repro.txt prints.
TEST(Explorer, TraceLevelFailureReproIsMinimized) {
  ExploreOptions opt;
  opt.random_schedules = 1;
  opt.pct_schedules = 0;
  opt.repro_obs_trace = true;
  opt.repro_dir = testing::TempDir() + "/check_test_repro_minimized";
  std::filesystem::remove_all(opt.repro_dir);
  const trace::TraceBundle bundle = StatRetMismatchBundle();
  ASSERT_EQ(bundle.trace.events.size(), 112u);
  ASSERT_FALSE(ExploreBundle(bundle, opt).ok());

  std::ifstream txt(opt.repro_dir + "/repro.txt");
  std::string line;
  std::string schedule;
  while (std::getline(txt, line)) {
    if (line.rfind("schedule: ", 0) == 0) {
      schedule = line.substr(10);
    }
  }
  sim::ScheduleSpec spec;
  ASSERT_TRUE(sim::ParseScheduleSpec(schedule, &spec)) << schedule;
  std::ifstream in(opt.repro_dir + "/repro.trace");
  const trace::TraceBundle repro = trace::ReadTraceBundle(in);
  EXPECT_LT(repro.trace.events.size(), 112u);
  EXPECT_FALSE(ExploreUnderSpec(repro, spec, opt).ok());
  EXPECT_TRUE(std::filesystem::exists(opt.repro_dir + "/repro_obs.json"));
  std::filesystem::remove_all(opt.repro_dir);
}

}  // namespace
}  // namespace artc::check
