// artc_sweep: what-if exploration over a declarative scenario grid. Each
// cell names a workload (and its thread count), the source stack it is
// traced on, and the replay method, fs profile, storage hardware, I/O
// scheduler, cache size, schedule policy, seed and pacing it is replayed
// with. The sweep traces each workload once per source, compiles it once
// per replay method, measures the original program once per target,
// replays every cell on the host thread pool, and streams one JSONL row per
// cell with the virtual end time, the error against the original, the
// critical-path stall attribution, the storage block counts and the
// fs-state digest. Progress is live on the obs metrics plane
// (ARTC_METRICS_PORT / ARTC_*), and any row can be re-run alone, fully
// instrumented, with --drill.
//
//   artc_sweep --grid=bench/grids/fig5a.grid      # one paper figure
//   artc_sweep --grid=grid.txt --jobs=8 --out=rows.jsonl --report=report.json
//   artc_sweep --grid=grid.txt --list             # cell ids, no replays
//   artc_sweep --grid=grid.txt --drill=3f2a...    # one cell, one-pager
//
// Grid file format, one axis per line (unset axes keep their defaults; a
// `---` line starts another cross product as a copy of the one before):
//   workload = random_readers
//   threads  = 1, 2, 8
//   source   = hdd, raid0:cache_mb=96
//   method   = single, temporal, artc
//   storage  = hdd, ssd, raid0
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/sweep/sweep.h"
#include "src/util/flags.h"

namespace artc {
namespace {

int Main(int argc, char** argv) {
  std::string grid_path;
  std::string report_path;
  std::string drill;
  bool list = false;
  bool no_host_ms = false;
  sweep::SweepOptions options;
  util::FlagSet flags;
  flags.String("grid", &grid_path);
  flags.Switch("list", &list);
  flags.String("drill", &drill);
  flags.String("report", &report_path);
  flags.Unsigned("jobs", &options.jobs);
  flags.Switch("no-host-ms", &no_host_ms);
  flags.String("out", &options.jsonl_path);
  bench::HarnessObsSession obs_session(argc, argv, &flags);

  std::string error;
  std::vector<sweep::SweepGrid> grids(1);
  if (!grid_path.empty()) {
    if (!sweep::ParseGridFile(grid_path, &grids, &error)) {
      std::fprintf(stderr, "artc_sweep: %s\n", error.c_str());
      return 2;
    }
  } else {
    // Demo grid: enough spread to make the sensitivity table interesting.
    grids[0].axes["method"] = {"artc", "temporal"};
    grids[0].axes["storage"] = {"hdd", "ssd", "raid0"};
    grids[0].axes["seed"] = {"1", "2"};
  }

  if (list) {
    std::vector<sweep::CellConfig> cells;
    if (!sweep::ExpandGrids(grids, &cells, &error)) {
      std::fprintf(stderr, "artc_sweep: %s\n", error.c_str());
      return 2;
    }
    for (const sweep::CellConfig& cell : cells) {
      std::printf("%s  %s\n", cell.Id().c_str(), cell.Echo().c_str());
    }
    return 0;
  }

  if (!drill.empty()) {
    sweep::DrillResult result;
    if (!sweep::DrillGrids(std::move(grids), drill, &result, &error, options.jobs)) {
      std::fprintf(stderr, "artc_sweep: %s\n", error.c_str());
      return 2;
    }
    std::fputs(result.one_pager.c_str(), stdout);
    std::printf("row: %s\n", result.stats.ToJsonl(false).c_str());
    if (!report_path.empty() &&
        !bench::WriteReport(report_path, result.critpath_json)) {
      return 1;
    }
    return 0;
  }

  sweep::SweepPlan plan;
  if (!sweep::BuildSweepPlan(std::move(grids), &plan, &error, options.jobs)) {
    std::fprintf(stderr, "artc_sweep: %s\n", error.c_str());
    return 2;
  }
  options.include_host_time = !no_host_ms;
  sweep::SweepReport report;
  if (!sweep::RunSweep(plan, options, &report, &error)) {
    std::fprintf(stderr, "artc_sweep: %s\n", error.c_str());
    return 1;
  }
  std::fputs(report.OnePager().c_str(), stdout);
  if (!options.jsonl_path.empty()) {
    std::printf("wrote %s (%zu rows)\n", options.jsonl_path.c_str(),
                report.cells);
  }
  if (!report_path.empty() && !bench::WriteReport(report_path, report.ToJson())) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace artc

int main(int argc, char** argv) { return artc::Main(argc, argv); }
