// Sweep engine tests: grid parsing and validation, content-addressed cell
// ids, byte-identical JSONL emission across worker counts, per-cell parity
// with a standalone replay of the same configuration (on the fibers AND
// parallel simulation backends), aggregate consistency, original runs and
// replay errors for named workloads, and drill-down parity with the sweep
// row it drills into.
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/explorer.h"
#include "src/obs/obs.h"
#include "src/sweep/grid.h"
#include "src/sweep/sweep.h"
#include "src/sweep/workload_table.h"
#include "src/util/strings.h"
#include "src/workloads/micro.h"

namespace artc::sweep {
namespace {

// A small but genuinely multithreaded input: two readers, enough reads to
// produce non-trivial stalls, tiny enough that a ~dozen-cell sweep runs in
// well under a second.
workloads::TracedRun TraceSmallInput() {
  workloads::RandomReaders::Options opt;
  opt.threads = 2;
  opt.reads_per_thread = 60;
  opt.file_bytes = 8ull << 20;
  workloads::RandomReaders w(opt);
  workloads::SourceConfig source;
  source.storage = storage::MakeNamedConfig("ssd");
  return workloads::TraceWorkload(w, source);
}

SweepGrid SmallGrid() {
  SweepGrid grid;
  grid.axes["method"] = {"artc", "temporal"};
  grid.axes["storage"] = {"hdd", "ssd"};
  grid.axes["seed"] = {"1", "2"};
  return grid;
}

SweepPlan BuildSmallPlan(SweepGrid grid) {
  workloads::TracedRun run = TraceSmallInput();
  SweepPlan plan;
  std::string error;
  EXPECT_TRUE(BuildSweepPlan(std::move(run.trace), run.snapshot,
                             std::move(grid), "random_readers", &plan, &error))
      << error;
  return plan;
}

std::string SweepToString(const SweepPlan& plan, size_t jobs,
                          size_t max_inflight, SweepReport* report) {
  std::ostringstream rows;
  SweepOptions options;
  options.jobs = jobs;
  options.max_inflight = max_inflight;
  options.include_host_time = false;
  options.jsonl_stream = &rows;
  std::string error;
  EXPECT_TRUE(RunSweep(plan, options, report, &error)) << error;
  return rows.str();
}

TEST(SweepGridTest, ParsesTextAndKeepsDefaults) {
  std::vector<SweepGrid> grids;
  std::string error;
  ASSERT_TRUE(ParseGridText("# comment\n"
                            "method = artc, temporal\n"
                            "storage = hdd, ssd   # trailing comment\n"
                            "cache_mb = 64, 384\n"
                            "seed = 1, 2\n",
                            &grids, &error))
      << error;
  ASSERT_EQ(grids.size(), 1u);
  const SweepGrid& grid = grids[0];
  EXPECT_EQ(grid.axes.at("method"), (std::vector<std::string>{"artc", "temporal"}));
  EXPECT_EQ(grid.axes.at("storage"), (std::vector<std::string>{"hdd", "ssd"}));
  EXPECT_EQ(grid.axes.at("cache_mb"), (std::vector<std::string>{"64", "384"}));
  EXPECT_EQ(grid.axes.count("fs"), 0u);  // unset: the default
  EXPECT_EQ(grid.CellCount(), 2u * 2 * 2 * 2);
  std::vector<CellConfig> cells;
  ASSERT_TRUE(grid.Expand(&cells, &error)) << error;
  EXPECT_EQ(cells[0].fs, "ext4");
  EXPECT_EQ(cells[0].workload, "iphoto_import");
  EXPECT_EQ(cells[0].cache_mb, 64);
  EXPECT_EQ(cells[15].seed, 2u);
}

TEST(SweepGridTest, EachCrossProductStartsFromTheOneBefore) {
  std::vector<SweepGrid> grids;
  std::string error;
  ASSERT_TRUE(ParseGridText("workload = random_readers\n"
                            "method = single, artc\n"
                            "source = hdd\n"
                            "storage = raid0\n"
                            "---\n"
                            "source = raid0\n"
                            "storage = hdd\n",
                            &grids, &error))
      << error;
  ASSERT_EQ(grids.size(), 2u);
  EXPECT_EQ(grids[1].axes.at("workload"), (std::vector<std::string>{"random_readers"}));
  EXPECT_EQ(grids[1].axes.at("method"), (std::vector<std::string>{"single", "artc"}));
  EXPECT_EQ(grids[1].axes.at("source"), (std::vector<std::string>{"raid0"}));
  std::vector<CellConfig> cells;
  ASSERT_TRUE(ExpandGrids(grids, &cells, &error)) << error;
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].source + ">" + cells[0].storage + "/" + cells[0].method,
            "hdd>raid0/single");
  EXPECT_EQ(cells[3].source + ">" + cells[3].storage + "/" + cells[3].method,
            "raid0>hdd/artc");

  // A cell two cross products both produce is an error, not a repeated row.
  ASSERT_TRUE(ParseGridText("storage = hdd, ssd\n---\nstorage = ssd\n", &grids, &error));
  EXPECT_FALSE(ExpandGrids(grids, &cells, &error));
  EXPECT_NE(error.find("cross product 2 repeats"), std::string::npos) << error;
  EXPECT_TRUE(cells.empty());
}

TEST(SweepGridTest, ScheduleAxisRejectsMalformedNumbers) {
  CellConfig cell;
  std::string error;
  ASSERT_TRUE(SetCellAxis(&cell, "schedule", "pct:5/4", &error)) << error;
  EXPECT_EQ(cell.schedule, "pct:5/4");
  for (const char* bad : {"random:abc", "random:", "pct:5x/zz", "pct:5/"}) {
    EXPECT_FALSE(SetCellAxis(&cell, "schedule", bad, &error)) << bad;
    EXPECT_NE(error.find("bad schedule"), std::string::npos) << error;
  }
}

TEST(SweepGridTest, SourcesParseAndPrintInOneSpelling) {
  CellConfig cell;
  std::string error;
  ASSERT_TRUE(SetCellAxis(&cell, "source", "raid0:cache_mb=96:fs=xfs", &error)) << error;
  EXPECT_EQ(cell.source, "raid0:fs=xfs:cache_mb=96");
  const CellConfig stack = cell.SourceStack();
  EXPECT_EQ(stack.storage, "raid0");
  EXPECT_EQ(stack.fs, "xfs");
  EXPECT_EQ(stack.StackName(), cell.source);
  EXPECT_EQ(stack.MakeSourceConfig().storage.cache.capacity_blocks, 96u * 256);
  EXPECT_EQ(stack.MakeSourceConfig().fs_profile, "xfs");
  ASSERT_TRUE(SetCellAxis(&cell, "source", "hdd:iosched=cfq-7ms", &error)) << error;
  EXPECT_EQ(cell.SourceStack().MakeSourceConfig().storage.scheduler,
            storage::SchedulerKind::kCfq);
  EXPECT_EQ(cell.SourceStack().MakeSourceConfig().storage.cfq.slice_sync, Ms(7));

  for (const char* bad : {"", "nvme", "hdd:fs=ntfs", "hdd:iosched=cfq-0ms",
                          "hdd:cache_mb=0", "hdd:cache_mb=x", "hdd:colour=red"}) {
    EXPECT_FALSE(SetCellAxis(&cell, "source", bad, &error)) << bad;
    EXPECT_NE(error.find("bad source"), std::string::npos) << error;
  }

  // A source written with its defaults spelled out is the same cell.
  SweepGrid a;
  a.axes["source"] = {"hdd:fs=ext4:iosched=base"};
  SweepGrid b;
  b.axes["source"] = {"hdd"};
  std::vector<CellConfig> ca, cb;
  ASSERT_TRUE(a.Expand(&ca, &error)) << error;
  ASSERT_TRUE(b.Expand(&cb, &error)) << error;
  EXPECT_EQ(ca[0].source, "hdd");
  EXPECT_EQ(ca[0].Id(), cb[0].Id());
}

TEST(SweepGridTest, RejectsUnknownAxesAndValues) {
  // Bad values surface as errors with their grid line, not aborts.
  auto rejects = [](const std::string& text, const std::string& needle) {
    std::vector<SweepGrid> grids;
    std::vector<CellConfig> cells;
    std::string error;
    EXPECT_FALSE(ParseGridText(text, &grids, &error) && ExpandGrids(grids, &cells, &error))
        << text;
    EXPECT_NE(error.find(needle), std::string::npos) << text << ": " << error;
  };
  rejects("warp_factor = 9\n", "grid line 1: unknown axis 'warp_factor'");
  // The sweep has no backend axis: every cell is one standalone
  // simulation.
  rejects("backend = fibers\n", "unknown axis 'backend'");
  rejects("seed = banana\n", "bad seed value 'banana'");
  rejects("seed = +1\n", "bad seed value");
  rejects("threads = -1\n", "bad threads value");
  rejects("storage = floppy\n", "floppy");
  rejects("schedule = sometimes\n", "sometimes");
  rejects("cache_mb = 0\n", "cache_mb");
  rejects("workload = bogus\n", "random_readers");
  rejects("source = nvme\n", "smallcache");
  for (const char* iosched : {"cfq-0ms", "cfq-1001ms", "cfq-05ms", "cfq-ms", "cfq-2s",
                              "cfq-1.5ms"}) {
    rejects(std::string("iosched = ") + iosched + "\n", "cfq-<N>ms");
  }
  rejects("workload = random_readers\nthreads = 65\n", "bad threads 65");
  rejects("storage = hdd\n---\nfs = ntfs\n", "grid line 3: unknown fs 'ntfs'");
  // A thread count only fits the programs that have one; the error names
  // the cross product.
  rejects("storage = hdd\n---\nworkload = iphoto_import\nthreads = 4\n",
          "cross product 2: workload 'iphoto_import' has no thread count");

  // Grids built in code are checked when expanded.
  SweepGrid grid;
  grid.axes["colour"] = {"red"};
  std::vector<CellConfig> cells;
  std::string error;
  EXPECT_FALSE(grid.Expand(&cells, &error));
  EXPECT_NE(error.find("unknown axis 'colour'"), std::string::npos) << error;

  std::vector<SweepGrid> grids;
  ASSERT_TRUE(ParseGridText("workload = seq_readers\nthreads = 0, 4\n"
                            "iosched = base, noop, cfq-1ms, cfq-1000ms\n",
                            &grids, &error));
  EXPECT_TRUE(ExpandGrids(grids, &cells, &error)) << error;
  EXPECT_EQ(cells.size(), 8u);
}

TEST(SweepGridTest, CellIdsAreContentAddressedAndUnique) {
  SweepGrid grid = SmallGrid();
  std::vector<CellConfig> cells;
  std::string error;
  ASSERT_TRUE(grid.Expand(&cells, &error)) << error;
  ASSERT_EQ(cells.size(), 8u);

  std::set<std::string> ids;
  for (const CellConfig& cell : cells) {
    EXPECT_EQ(cell.Id().size(), 16u);
    ids.insert(cell.Id());
  }
  EXPECT_EQ(ids.size(), cells.size());  // no collisions in the grid

  // Identity follows content, not grid position: a permuted grid yields the
  // same id set, and growing the grid keeps existing ids valid.
  SweepGrid permuted;
  permuted.axes["method"] = {"temporal", "artc"};
  permuted.axes["storage"] = {"ssd", "hdd"};
  permuted.axes["seed"] = {"2", "1"};
  std::vector<CellConfig> cells2;
  ASSERT_TRUE(permuted.Expand(&cells2, &error));
  std::set<std::string> ids2;
  for (const CellConfig& cell : cells2) {
    ids2.insert(cell.Id());
  }
  EXPECT_EQ(ids, ids2);

  // ...but a different workload is a different identity.
  CellConfig other = cells[0];
  other.workload = "trace_b";
  EXPECT_NE(other.Id(), cells[0].Id());
}

TEST(SweepTest, JsonlRowsAreByteIdenticalAcrossWorkerCounts) {
  SweepPlan plan = BuildSmallPlan(SmallGrid());
  SweepReport r1, r2, r4;
  const std::string rows1 = SweepToString(plan, 1, 0, &r1);
  const std::string rows2 = SweepToString(plan, 2, 0, &r2);
  const std::string rows4 = SweepToString(plan, 4, 0, &r4);
  EXPECT_FALSE(rows1.empty());
  EXPECT_EQ(rows1, rows2);
  EXPECT_EQ(rows1, rows4);

  // A tight backpressure window changes scheduling, not bytes.
  SweepReport rw;
  EXPECT_EQ(rows1, SweepToString(plan, 4, 1, &rw));

  // Aggregates are order-independent too.
  EXPECT_EQ(r1.end_ns_sum, r4.end_ns_sum);
  EXPECT_EQ(r1.stall_ns_sum, r4.stall_ns_sum);
  EXPECT_EQ(r1.digest_sum, r4.digest_sum);
  EXPECT_EQ(r1.failed_cells, r4.failed_cells);
}

// Golden for a fixed 12-cell grid (method x storage x seed) over
// RandomReaders 4x250 traced on ssd at seed 1: the grid-wide virtual
// aggregates, and the same rows at 4 workers as at 1.
TEST(SweepTest, TwelveCellGridGolden) {
  workloads::RandomReaders::Options opt;
  opt.threads = 4;
  opt.reads_per_thread = 250;
  workloads::RandomReaders w(opt);
  workloads::SourceConfig source;
  source.storage = storage::MakeNamedConfig("ssd");
  source.seed = 1;
  workloads::TracedRun run = workloads::TraceWorkload(w, source);
  SweepGrid grid;
  grid.axes["method"] = {"artc", "temporal"};
  grid.axes["storage"] = {"hdd", "ssd", "raid0"};
  grid.axes["seed"] = {"1", "2"};
  SweepPlan plan;
  std::string error;
  ASSERT_TRUE(BuildSweepPlan(std::move(run.trace), run.snapshot,
                             std::move(grid), "random_readers", &plan, &error))
      << error;

  SweepReport r4, r1;
  const std::string rows4 = SweepToString(plan, 4, 0, &r4);
  EXPECT_EQ(rows4, SweepToString(plan, 1, 0, &r1));
  EXPECT_EQ(r4.cells, 12u);
  EXPECT_EQ(r4.failed_cells, 0u);
  EXPECT_EQ(r4.end_ns_sum, 23074146472);
  EXPECT_EQ(r4.stall_ns_sum, 3636401646);
  EXPECT_EQ(r4.exec_ns_sum, 19437744826);
  EXPECT_EQ(r4.digest_sum, 0xc52b11f5c3c3c728u);
}

TEST(SweepTest, EqualCellDigestsDoNotCancelInTheAggregate) {
  // The readers only read, so both cells end in the same file-system state.
  SweepGrid grid;
  grid.axes["method"] = {"artc"};
  grid.axes["storage"] = {"hdd", "ssd"};
  SweepPlan plan = BuildSmallPlan(std::move(grid));
  SweepReport report;
  SweepToString(plan, 2, 0, &report);
  ASSERT_EQ(report.stats.size(), 2u);
  ASSERT_EQ(report.stats[0].digest, report.stats[1].digest);
  EXPECT_NE(report.digest_sum, 0u);
  EXPECT_EQ(report.digest_sum, 2 * MixCellDigest(report.stats[0].digest));
}

TEST(SweepTest, CellsMatchStandaloneReplay) {
  // Every cell's virtual results must be bit-identical to a standalone
  // replay of that configuration (a single replay runs on the calling
  // thread whatever the target's backend, so one replay per cell covers
  // both).
  SweepGrid grid;
  grid.axes["method"] = {"artc", "temporal"};
  grid.axes["storage"] = {"hdd", "ssd"};
  SweepPlan plan = BuildSmallPlan(std::move(grid));

  SweepReport report;
  SweepToString(plan, 4, 0, &report);
  ASSERT_EQ(report.stats.size(), plan.cells.size());

  for (const CellStats& stats : report.stats) {
    const CellConfig& cell = plan.cells[stats.index];
    trace::FsSnapshot final_state;
    const core::SimReplayResult standalone =
        core::ReplayCompiledOnSimTarget(plan.BenchFor(cell), cell.MakeTarget(), &final_state);
    const std::string where = cell.Echo();
    EXPECT_EQ(stats.end_ns, standalone.report.wall_time) << where;
    EXPECT_EQ(stats.sim_end_ns, standalone.sim_end_time) << where;
    EXPECT_EQ(stats.sim_switches, standalone.sim_switches) << where;
    EXPECT_EQ(stats.digest, check::SnapshotDigest(final_state)) << where;
    EXPECT_EQ(stats.storage.media_read_blocks, standalone.storage.media_read_blocks)
        << where;
  }
}

TEST(SweepTest, PlanIsIndependentOfItsWorkerCount) {
  // Four traces and four original runs: built serially and on four
  // workers, the plans must replay to the same rows.
  std::vector<SweepGrid> grids;
  std::string error;
  ASSERT_TRUE(ParseGridText("workload = seq_readers, random_readers\n"
                            "source = hdd, ssd\n"
                            "method = artc\n"
                            "storage = hdd, ssd\n",
                            &grids, &error));
  SweepPlan serial;
  SweepPlan parallel;
  ASSERT_TRUE(BuildSweepPlan(grids, &serial, &error, 1)) << error;
  ASSERT_TRUE(BuildSweepPlan(grids, &parallel, &error, 4)) << error;
  EXPECT_EQ(serial.compiled.size(), 4u);
  EXPECT_EQ(serial.originals, parallel.originals);
  ASSERT_EQ(serial.originals.size(), 4u);
  SweepReport a, b;
  EXPECT_EQ(SweepToString(serial, 2, 0, &a), SweepToString(parallel, 2, 0, &b));
  EXPECT_EQ(a.digest_sum, b.digest_sum);
}

TEST(SweepTest, NamedWorkloadCellsCarryTheOriginalRunAndReplayError) {
  // Fig. 5(d)'s program traced once on a 100 ms CFQ slice, replayed and
  // measured on two targets.
  std::vector<SweepGrid> grids;
  std::string error;
  ASSERT_TRUE(ParseGridText("workload = seq_readers\n"
                            "source = cfq-100ms\n"
                            "method = single, artc\n"
                            "storage = hdd\n"
                            "iosched = cfq-1ms, cfq-100ms\n",
                            &grids, &error));
  SweepPlan plan;
  ASSERT_TRUE(BuildSweepPlan(grids, &plan, &error)) << error;
  ASSERT_EQ(plan.cells.size(), 4u);
  EXPECT_EQ(plan.compiled.size(), 2u);   // one trace, two methods
  EXPECT_EQ(plan.originals.size(), 2u);  // one original per target

  SweepReport r1, r3;
  const std::string rows = SweepToString(plan, 1, 0, &r1);
  EXPECT_EQ(rows, SweepToString(plan, 3, 0, &r3));

  const std::optional<NamedWorkload> program = NamedWorkload::Find("seq_readers");
  ASSERT_TRUE(program.has_value());
  for (const CellStats& s : r1.stats) {
    EXPECT_EQ(s.orig_ns, program->Measure(0, s.config.MakeSourceConfig())) << s.config.Echo();
    EXPECT_DOUBLE_EQ(s.ErrorPct(), 100.0 * static_cast<double>(s.end_ns - s.orig_ns) /
                                       static_cast<double>(s.orig_ns));
    EXPECT_NE(s.ToJsonl(false).find(StrFormat("\"orig_ns\":%lld,\"error_pct\":",
                                              static_cast<long long>(s.orig_ns))),
              std::string::npos);
  }
  // Both targets' cells share their original; single replays mimic the
  // source's scheduling, so they miss the 1 ms target by far more than ARTC.
  EXPECT_EQ(r1.stats[0].orig_ns, r1.stats[2].orig_ns);
  EXPECT_GT(std::abs(r1.stats[0].ErrorPct()), 10 * std::abs(r1.stats[2].ErrorPct()));

  // The method axis aggregates |error_pct| over its two cells.
  bool saw_method = false;
  for (const AxisAgg& agg : r1.axes) {
    if (agg.axis == "method") {
      saw_method = true;
      EXPECT_EQ(agg.workload, "seq_readers");
      for (const AxisValueAgg& v : agg.values) {
        EXPECT_EQ(v.abs_error_pct.Count(), 2u);
      }
    }
  }
  EXPECT_TRUE(saw_method);
  EXPECT_NE(r1.OnePager().find("cfq-100ms -> hdd:iosched=cfq-1ms"), std::string::npos);

  // Drilling reproduces the whole row, original and error included.
  DrillResult drill;
  ASSERT_TRUE(DrillGrids(grids, r1.stats[1].id, &drill, &error)) << error;
  EXPECT_EQ(drill.stats.ToJsonl(false), r1.stats[1].ToJsonl(false));
}

TEST(SweepTest, AggregatesAndExtremesAreConsistentWithRows) {
  SweepPlan plan = BuildSmallPlan(SmallGrid());
  SweepReport report;
  SweepToString(plan, 2, 0, &report);

  TimeNs end_sum = 0;
  TimeNs stall_sum = 0;
  uint64_t digest_sum = 0;
  for (const CellStats& stats : report.stats) {
    end_sum += stats.end_ns;
    stall_sum += stats.stall_ns;
    digest_sum += MixCellDigest(stats.digest);
    // Tiling invariant surfaces distilled: exec+stall+pacing+idle == end.
    EXPECT_EQ(stats.exec_ns + stats.stall_ns + stats.pacing_ns + stats.idle_ns,
              stats.end_ns);
  }
  EXPECT_EQ(report.end_ns_sum, end_sum);
  EXPECT_EQ(report.stall_ns_sum, stall_sum);
  EXPECT_EQ(report.digest_sum, digest_sum);
  EXPECT_EQ(report.cells, plan.cells.size());

  for (const CellStats& stats : report.stats) {
    EXPECT_LE(report.stats[report.best_cell].end_ns, stats.end_ns);
    EXPECT_GE(report.stats[report.worst_cell].end_ns, stats.end_ns);
  }

  // Axes: method, storage, and seed vary; fs etc. do not.
  std::set<std::string> axis_names;
  for (const AxisAgg& axis : report.axes) {
    axis_names.insert(axis.axis);
    size_t cells = 0;
    for (const AxisValueAgg& v : axis.values) {
      cells += v.cells;
    }
    EXPECT_EQ(cells, report.cells);
  }
  EXPECT_EQ(axis_names, (std::set<std::string>{"method", "storage", "seed"}));

  // Report JSON and pager render without issue and carry the cell count.
  EXPECT_NE(report.ToJson().find("\"cells\":8"), std::string::npos);
  EXPECT_NE(report.OnePager().find("8 cells"), std::string::npos);
}

TEST(SweepTest, ProgressGaugesResetAcrossSweepsInOneProcess) {
  // Regression: the progress gauges live in the process-global registry and
  // survive between sweeps. Each RunSweep must rewind them to its own grid
  // rather than accumulate on top of the previous sweep (cells_total
  // summing both grids, progress_permille ending at 2000).
  SweepPlan eight = BuildSmallPlan(SmallGrid());
  SweepGrid two_grid;
  two_grid.axes["storage"] = {"hdd", "ssd"};
  SweepPlan two = BuildSmallPlan(std::move(two_grid));

  SweepReport report;
  SweepToString(eight, 2, 0, &report);
  std::map<std::string, int64_t> gauges =
      obs::DefaultRegistry().Snapshot().gauges;
  EXPECT_EQ(gauges["sweep.cells_total"], 8);
  EXPECT_EQ(gauges["sweep.progress_permille"], 1000);
  EXPECT_EQ(gauges["sweep.cells_inflight"], 0);

  SweepToString(two, 2, 0, &report);
  gauges = obs::DefaultRegistry().Snapshot().gauges;
  EXPECT_EQ(gauges["sweep.cells_total"], 2);
  EXPECT_EQ(gauges["sweep.progress_permille"], 1000);
  EXPECT_EQ(gauges["sweep.cells_inflight"], 0);
}

TEST(SweepTest, DrillReproducesTheSweptCellExactly) {
  std::vector<SweepGrid> grids;
  std::string error;
  ASSERT_TRUE(ParseGridText("workload = random_readers\n"
                            "source = ssd\n"
                            "method = artc, temporal\n"
                            "storage = hdd, ssd\n",
                            &grids, &error));
  SweepPlan plan;
  ASSERT_TRUE(BuildSweepPlan(grids, &plan, &error)) << error;
  SweepReport report;
  SweepToString(plan, 2, 0, &report);

  const CellStats& target = report.stats[3];
  DrillResult drill;
  ASSERT_TRUE(DrillGrids(grids, target.id, &drill, &error)) << error;
  // The drilled replay is bit-identical to the swept one: the whole
  // host-time-free row matches byte for byte.
  EXPECT_EQ(drill.stats.ToJsonl(false), target.ToJsonl(false));
  EXPECT_NE(drill.one_pager.find(target.id), std::string::npos);
  EXPECT_FALSE(drill.critpath_json.empty());

  // Prefix match works; ambiguous and unknown prefixes are errors.
  ASSERT_TRUE(DrillGrids(grids, target.id.substr(0, 6), &drill, &error));
  EXPECT_EQ(drill.stats.id, target.id);
  EXPECT_FALSE(DrillGrids(grids, "", &drill, &error));
  EXPECT_FALSE(DrillGrids(grids, "zzzz", &drill, &error));
}

}  // namespace
}  // namespace artc::sweep
