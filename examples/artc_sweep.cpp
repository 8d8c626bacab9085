// artc_sweep: fleet-scale what-if exploration over one traced workload.
// Expands a declarative scenario grid (replay method x fs profile x storage
// hardware x I/O scheduler x cache size x schedule policy x seed x backend
// x pacing), compiles the trace once per replay method, replays every cell
// on the host thread pool, and streams one JSONL row per cell with the
// virtual end time, critical-path stall attribution, and fs-state digest.
// Progress is live on the obs metrics plane (--metrics-port / ARTC_*), and
// any row can be re-run alone, fully instrumented, with --drill.
//
//   artc_sweep --micro=random_readers --grid=grid.txt --out=rows.jsonl
//   artc_sweep --workload=iphoto_import --jobs=8 --report=report.json
//   artc_sweep --micro=random_readers --list           # cell ids, no replays
//   artc_sweep --micro=random_readers --drill=3f2a...  # one cell, one-pager
//
// Grid file format, one axis per line (unset axes keep their defaults):
//   method  = artc, temporal
//   storage = hdd, ssd, raid0
//   cache_mb = 64, 384
//   seed    = 1, 2
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/sweep/sweep.h"
#include "src/util/flags.h"

namespace artc {
namespace {

int Main(int argc, char** argv) {
  bench::WorkloadSource ws;
  std::string grid_path;
  std::string report_path;
  std::string drill;
  bool list = false;
  bool no_host_ms = false;
  sweep::SweepOptions options;
  util::FlagSet flags;
  ws.AddFlags(&flags);
  flags.String("grid", &grid_path);
  flags.Switch("list", &list);
  flags.String("drill", &drill);
  flags.String("report", &report_path);
  flags.Unsigned("jobs", &options.jobs);
  flags.Switch("no-host-ms", &no_host_ms);
  flags.String("out", &options.jsonl_path);
  bench::HarnessObsSession obs_session(argc, argv, &flags);

  std::string error;
  sweep::SweepGrid grid;
  if (!grid_path.empty()) {
    if (!sweep::ParseGridFile(grid_path, &grid, &error)) {
      std::fprintf(stderr, "artc_sweep: %s\n", error.c_str());
      return 2;
    }
  } else {
    // Demo grid: enough spread to make the sensitivity table interesting.
    grid.method = {"artc", "temporal"};
    grid.storage = {"hdd", "ssd", "raid0"};
    grid.seed = {1, 2};
  }

  workloads::TracedRun run = bench::TraceWorkloadSource(ws, flags);
  sweep::SweepPlan plan;
  if (!sweep::BuildSweepPlan(std::move(run.trace), run.snapshot, grid,
                             run.workload_name, &plan, &error)) {
    std::fprintf(stderr, "artc_sweep: %s\n", error.c_str());
    return 2;
  }

  if (list) {
    for (const sweep::CellConfig& cell : plan.cells) {
      std::printf("%s  %s\n", cell.Id().c_str(), cell.Echo().c_str());
    }
    return 0;
  }

  if (!drill.empty()) {
    sweep::DrillResult result;
    if (!sweep::DrillCell(plan, drill, &result, &error)) {
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
