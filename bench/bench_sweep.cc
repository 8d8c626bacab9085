// Sweep-engine throughput + determinism harness. One fixed 12-cell grid
// (method x storage x seed) over the random_readers micro workload:
//
//  1. Runs the sweep once at --jobs workers and once single-threaded, and
//     requires the host-time-free JSONL streams to match byte for byte —
//     the engine's central determinism claim, gated in CI on every run.
//  2. Emits one JSON object whose virtual aggregates (cell count, summed
//     end/stall/exec times, digest XOR) are exact-gated by
//     compare_bench.py, with cells_per_sec as the normalized throughput
//     metric.
//
// Usage: bench_sweep [--jobs=N] [--seed=N]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "bench/bench_common.h"
#include "src/sweep/sweep.h"
#include "src/workloads/micro.h"

namespace artc::bench {
namespace {

uint64_t FlagValue(int argc, char** argv, const char* name, uint64_t def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtoull(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return def;
}

int Main(int argc, char** argv) {
  const uint64_t seed = FlagValue(argc, argv, "seed", 1);
  const size_t jobs = FlagValue(argc, argv, "jobs", 0);

  workloads::RandomReaders::Options wopt;
  wopt.threads = 4;
  wopt.reads_per_thread = 250;
  workloads::RandomReaders w(wopt);
  workloads::SourceConfig source;
  source.storage = storage::MakeNamedConfig("ssd");
  source.seed = seed;
  workloads::TracedRun run = workloads::TraceWorkload(w, source);

  sweep::SweepGrid grid;
  grid.method = {"artc", "temporal"};
  grid.storage = {"hdd", "ssd", "raid0"};
  grid.seed = {seed, seed + 1};

  sweep::SweepPlan plan;
  std::string error;
  if (!sweep::BuildSweepPlan(std::move(run.trace), run.snapshot, grid,
                             "random_readers", &plan, &error)) {
    std::fprintf(stderr, "bench_sweep: %s\n", error.c_str());
    return 1;
  }

  auto sweep_once = [&](size_t workers, std::string* rows,
                        sweep::SweepReport* report) {
    std::ostringstream sink;
    sweep::SweepOptions options;
    options.jobs = workers;
    options.include_host_time = false;
    options.jsonl_stream = &sink;
    if (!sweep::RunSweep(plan, options, report, &error)) {
      std::fprintf(stderr, "bench_sweep: %s\n", error.c_str());
      std::exit(1);
    }
    *rows = sink.str();
  };

  std::string rows_parallel, rows_serial;
  sweep::SweepReport report, serial_report;
  const auto start = std::chrono::steady_clock::now();
  sweep_once(jobs, &rows_parallel, &report);
  const double sweep_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - start)
          .count();
  sweep_once(1, &rows_serial, &serial_report);
  const bool jobs_match = rows_parallel == rows_serial &&
                          report.digest_sum == serial_report.digest_sum;

  std::printf("{\n");
  std::printf("  \"workload\": \"%s\",\n", plan.trace_name.c_str());
  std::printf("  \"seed\": %llu,\n", static_cast<unsigned long long>(seed));
  std::printf("  \"cells\": %zu,\n", report.cells);
  std::printf("  \"failed_cells\": %zu,\n", report.failed_cells);
  std::printf("  \"jobs\": %zu,\n", report.jobs);
  std::printf("  \"end_ns_sum\": %lld,\n",
              static_cast<long long>(report.end_ns_sum));
  std::printf("  \"stall_ns_sum\": %lld,\n",
              static_cast<long long>(report.stall_ns_sum));
  std::printf("  \"exec_ns_sum\": %lld,\n",
              static_cast<long long>(report.exec_ns_sum));
  std::printf("  \"digest_sum\": \"%016llx\",\n",
              static_cast<unsigned long long>(report.digest_sum));
  std::printf("  \"host_wall_ms\": %.1f,\n", sweep_ms);
  std::printf("  \"cells_per_sec\": %.0f,\n",
              sweep_ms > 0 ? 1000.0 * static_cast<double>(report.cells) / sweep_ms
                           : 0.0);
  std::printf("  \"jobs_match\": %s\n", jobs_match ? "true" : "false");
  std::printf("}\n");
  return jobs_match ? 0 : 1;
}

}  // namespace
}  // namespace artc::bench

int main(int argc, char** argv) {
  artc::bench::HarnessObsSession obs_session(argc, argv);
  return artc::bench::Main(argc, argv);
}
