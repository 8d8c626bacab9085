// Fig. 8: dependency-graph structure for a 4-thread readrandom trace.
// Temporal ordering produces one short edge per adjacent event pair; ARTC's
// resource-oriented edges are fewer (per event) and dramatically *longer* in
// trace time — that length is what gives the replay its flexibility.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/compiler.h"
#include "src/core/suite.h"
#include "src/obs/obs.h"
#include "src/util/thread_pool.h"
#include "src/workloads/magritte.h"
#include "src/workloads/minikv.h"

namespace artc {
namespace {

using bench::PrintHeader;
using core::CompiledBenchmark;
using core::CompileOptions;
using core::ReplayMethod;
using core::RuleTag;
using workloads::KvReadRandom;
using workloads::SourceConfig;
using workloads::TracedRun;

void PrintEdgeStats(const char* name, const CompiledBenchmark& bench) {
  std::printf("%s:\n", name);
  uint64_t total = 0;
  double total_len = 0;
  for (size_t i = 0; i < bench.edge_stats.count_by_rule.size(); ++i) {
    uint64_t n = bench.edge_stats.count_by_rule[i];
    if (n == 0) {
      continue;
    }
    double mean_len = bench.edge_stats.total_length_ns[i] / static_cast<double>(n);
    std::printf("  %-12s %8llu edges, mean length %10.3f ms\n",
                core::RuleTagName(static_cast<RuleTag>(i)),
                static_cast<unsigned long long>(n), mean_len / kNsPerMs);
    if (static_cast<RuleTag>(i) != RuleTag::kThreadSeq) {
      total += n;
      total_len += bench.edge_stats.total_length_ns[i];
    }
  }
  std::printf("  %-12s %8llu edges, mean length %10.3f ms (excl. thread order)\n",
              "TOTAL", static_cast<unsigned long long>(total),
              total == 0 ? 0.0 : total_len / static_cast<double>(total) / kNsPerMs);
}

}  // namespace

int Main() {
  PrintHeader("Fig 8: dependency edges, 4-thread readrandom trace");
  KvReadRandom::Options opt;
  opt.threads = 4;
  opt.gets_per_thread = 1000;
  opt.tables = 96;
  opt.keys_per_table = 8000;
  KvReadRandom w(opt);
  SourceConfig src;
  src.storage = storage::MakeNamedConfig("hdd");
  TracedRun run = TraceWorkload(w, src);
  std::printf("trace: %zu events over %.2fs\n", run.trace.events.size(),
              ToSeconds(run.elapsed));

  CompileOptions artc_opt;
  CompiledBenchmark artc = core::Compile(run.trace, run.snapshot, artc_opt);
  CompileOptions temporal_opt;
  temporal_opt.method = ReplayMethod::kTemporal;
  CompiledBenchmark temporal = core::Compile(run.trace, run.snapshot, temporal_opt);

  PrintEdgeStats("temporal ordering", temporal);
  PrintEdgeStats("ARTC resource ordering", artc);
  std::printf("Paper shape: 9135 temporal edges at ~10ms mean length vs 6408 ARTC edges "
              "at ~8.9s mean length.\n");

  // Suite-wide view: compile every Magritte trace concurrently and report
  // how many of the emitted completion edges the redundancy pruner drops
  // from the dep arena the replayer actually walks.
  std::printf("\nMagritte suite, redundant-edge pruning (parallel compile):\n");
  const std::vector<workloads::MagritteSpec> suite = workloads::MagritteSuite();
  std::vector<TracedRun> runs(suite.size());
  util::ThreadPool pool;
  util::ParallelFor(pool, suite.size(), [&](size_t i) {
    SourceConfig msrc;
    msrc.storage = storage::MakeNamedConfig("ssd");
    msrc.platform = "osx";
    runs[i] = workloads::TraceMagritte(suite[i], msrc);
  });
  std::vector<core::CompileJob> jobs(suite.size());
  for (size_t i = 0; i < suite.size(); ++i) {
    jobs[i].trace = &runs[i].trace;
    jobs[i].snapshot = &runs[i].snapshot;
  }
  std::vector<CompiledBenchmark> compiled = core::CompileSuite(jobs, &pool);
  uint64_t emitted_total = 0;
  uint64_t pruned_total = 0;
  for (size_t i = 0; i < compiled.size(); ++i) {
    uint64_t emitted = compiled[i].edge_stats.TotalEdges() -
                       compiled[i].edge_stats
                           .count_by_rule[static_cast<size_t>(RuleTag::kThreadSeq)];
    uint64_t pruned = compiled[i].edge_stats.TotalPruned();
    emitted_total += emitted;
    pruned_total += pruned;
    std::printf("  %-22s %8llu emitted, %7llu pruned (%5.1f%%)\n",
                suite[i].FullName().c_str(),
                static_cast<unsigned long long>(emitted),
                static_cast<unsigned long long>(pruned),
                emitted == 0 ? 0.0
                             : 100.0 * static_cast<double>(pruned) /
                                   static_cast<double>(emitted));
  }
  std::printf("  %-22s %8llu emitted, %7llu pruned (%5.1f%%)\n", "TOTAL",
              static_cast<unsigned long long>(emitted_total),
              static_cast<unsigned long long>(pruned_total),
              emitted_total == 0 ? 0.0
                                 : 100.0 * static_cast<double>(pruned_total) /
                                       static_cast<double>(emitted_total));
  return 0;
}

}  // namespace artc

int main(int argc, char** argv) {
  // Env wiring (ARTC_TRACE_OUT / ARTC_METRICS_PORT / ...); see
  // bench::HarnessObsSession.
  artc::bench::HarnessObsSession obs_session(argc, argv);
  return artc::Main();
}
