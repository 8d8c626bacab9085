// Sweep engine tests: grid parsing and validation, content-addressed cell
// ids, byte-identical JSONL emission across worker counts, per-cell parity
// with a standalone replay of the same configuration (on the fibers AND
// parallel simulation backends), aggregate consistency, and drill-down
// parity with the sweep row it drills into.
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/explorer.h"
#include "src/obs/obs.h"
#include "src/sweep/grid.h"
#include "src/sweep/sweep.h"
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
  grid.method = {"artc", "temporal"};
  grid.storage = {"hdd", "ssd"};
  grid.seed = {1, 2};
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
  SweepGrid grid;
  std::string error;
  ASSERT_TRUE(ParseGridText("# comment\n"
                            "method = artc, temporal\n"
                            "storage = hdd, ssd   # trailing comment\n"
                            "cache_mb = 64, 384\n"
                            "seed = 1, 2\n",
                            &grid, &error))
      << error;
  EXPECT_EQ(grid.method, (std::vector<std::string>{"artc", "temporal"}));
  EXPECT_EQ(grid.storage, (std::vector<std::string>{"hdd", "ssd"}));
  EXPECT_EQ(grid.cache_mb, (std::vector<int64_t>{64, 384}));
  EXPECT_TRUE(grid.fs.empty());  // unset until Normalize
  grid.Normalize();
  EXPECT_EQ(grid.fs, (std::vector<std::string>{"ext4"}));
  EXPECT_EQ(grid.CellCount(), 2u * 2 * 2 * 2);
}

TEST(SweepGridTest, RejectsUnknownAxesAndValues) {
  SweepGrid grid;
  std::string error;
  EXPECT_FALSE(ParseGridText("warp_factor = 9\n", &grid, &error));
  EXPECT_NE(error.find("warp_factor"), std::string::npos);

  EXPECT_FALSE(ParseGridText("seed = banana\n", &grid, &error));

  // Vocabulary violations surface as errors from Expand, not aborts.
  SweepGrid bad;
  ASSERT_TRUE(ParseGridText("storage = floppy\n", &bad, &error));
  std::vector<CellConfig> cells;
  EXPECT_FALSE(bad.Expand("t", &cells, &error));
  EXPECT_NE(error.find("floppy"), std::string::npos);

  SweepGrid bad_sched;
  ASSERT_TRUE(ParseGridText("schedule = sometimes\n", &bad_sched, &error));
  EXPECT_FALSE(bad_sched.Expand("t", &cells, &error));

  SweepGrid bad_cache;
  ASSERT_TRUE(ParseGridText("cache_mb = 0\n", &bad_cache, &error));
  EXPECT_FALSE(bad_cache.Expand("t", &cells, &error));

  // The backend vocabulary is fibers|parallel; "threads" is not a backend.
  SweepGrid bad_backend;
  ASSERT_TRUE(ParseGridText("backend = fibers, threads\n", &bad_backend, &error));
  EXPECT_FALSE(bad_backend.Expand("t", &cells, &error));
  EXPECT_NE(error.find("unknown backend 'threads'"), std::string::npos) << error;
}

TEST(SweepGridTest, CellIdsAreContentAddressedAndUnique) {
  SweepGrid grid = SmallGrid();
  std::vector<CellConfig> cells;
  std::string error;
  ASSERT_TRUE(grid.Expand("trace_a", &cells, &error)) << error;
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
  permuted.method = {"temporal", "artc"};
  permuted.storage = {"ssd", "hdd"};
  permuted.seed = {2, 1};
  std::vector<CellConfig> cells2;
  ASSERT_TRUE(permuted.Expand("trace_a", &cells2, &error));
  std::set<std::string> ids2;
  for (const CellConfig& cell : cells2) {
    ids2.insert(cell.Id());
  }
  EXPECT_EQ(ids, ids2);

  // ...but a different trace name is a different identity.
  CellConfig other = cells[0];
  other.trace_name = "trace_b";
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
  grid.method = {"artc", "temporal"};
  grid.storage = {"hdd", "ssd", "raid0"};
  grid.seed = {1, 2};
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
  // The backend axis leaves virtual results alone, so both cells end in the
  // same file-system state.
  SweepGrid grid;
  grid.method = {"artc"};
  grid.storage = {"ssd"};
  grid.backend = {"fibers", "parallel"};
  SweepPlan plan = BuildSmallPlan(std::move(grid));
  SweepReport report;
  SweepToString(plan, 2, 0, &report);
  ASSERT_EQ(report.stats.size(), 2u);
  ASSERT_EQ(report.stats[0].digest, report.stats[1].digest);
  EXPECT_NE(report.digest_sum, 0u);
  EXPECT_EQ(report.digest_sum, 2 * MixCellDigest(report.stats[0].digest));
}

TEST(SweepTest, CellsMatchStandaloneReplayOnFibersAndParallelBackends) {
  // Same grid twice over the backend axis: every cell's virtual results
  // must be bit-identical to a standalone replay of that configuration.
  SweepGrid grid;
  grid.method = {"artc"};
  grid.storage = {"hdd", "ssd"};
  grid.backend = {"fibers", "parallel"};
  SweepPlan plan = BuildSmallPlan(std::move(grid));

  SweepReport report;
  SweepToString(plan, 4, 0, &report);
  ASSERT_EQ(report.stats.size(), plan.cells.size());

  for (const CellStats& stats : report.stats) {
    const CellConfig& cell = plan.cells[stats.index];
    trace::FsSnapshot final_state;
    const core::SimReplayResult standalone = core::ReplayCompiledOnSimTarget(
        plan.BenchFor(cell), cell.MakeTarget(), &final_state);
    EXPECT_EQ(stats.end_ns, standalone.report.wall_time) << cell.Echo();
    EXPECT_EQ(stats.sim_end_ns, standalone.sim_end_time) << cell.Echo();
    EXPECT_EQ(stats.sim_switches, standalone.sim_switches) << cell.Echo();
    EXPECT_EQ(stats.digest, check::SnapshotDigest(final_state)) << cell.Echo();
  }

  // The backend axis itself must be invisible in the virtual results:
  // fibers and parallel cells that agree on everything else agree on
  // end time and digest.
  std::map<std::string, std::pair<TimeNs, uint64_t>> by_config;
  for (const CellStats& stats : report.stats) {
    CellConfig scrubbed = stats.config;
    scrubbed.backend = '*';
    auto [it, inserted] = by_config.emplace(
        scrubbed.Echo(), std::make_pair(stats.end_ns, stats.digest));
    if (!inserted) {
      EXPECT_EQ(it->second.first, stats.end_ns) << scrubbed.Echo();
      EXPECT_EQ(it->second.second, stats.digest) << scrubbed.Echo();
    }
  }
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
  two_grid.storage = {"hdd", "ssd"};
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
  SweepPlan plan = BuildSmallPlan(SmallGrid());
  SweepReport report;
  SweepToString(plan, 2, 0, &report);

  const CellStats& target = report.stats[3];
  DrillResult drill;
  std::string error;
  ASSERT_TRUE(DrillCell(plan, target.id, &drill, &error)) << error;
  // The drilled replay is bit-identical to the swept one: the whole
  // host-time-free row matches byte for byte.
  EXPECT_EQ(drill.stats.ToJsonl(false), target.ToJsonl(false));
  EXPECT_NE(drill.one_pager.find(target.id), std::string::npos);
  EXPECT_FALSE(drill.critpath_json.empty());

  // Prefix match works; ambiguous and unknown prefixes are errors.
  ASSERT_TRUE(DrillCell(plan, target.id.substr(0, 6), &drill, &error));
  EXPECT_EQ(drill.stats.id, target.id);
  EXPECT_FALSE(DrillCell(plan, "", &drill, &error));
  EXPECT_FALSE(DrillCell(plan, "zzzz", &drill, &error));
}

}  // namespace
}  // namespace artc::sweep
