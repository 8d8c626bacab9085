// Macrobenchmark walk-through: trace the minikv (LevelDB-like) readrandom
// workload on a simulated HDD source, then predict its performance on an
// SSD target with each replay method and compare against actually running
// the program there — the Sec. 5.2.2 experiment in miniature.
//
// Usage: ./build/examples/leveldb_replay [gets_per_thread]
#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/artc.h"
#include "src/util/flags.h"
#include "src/workloads/minikv.h"

using artc::core::CompileOptions;
using artc::core::ReplayMethod;
using artc::core::SimReplayResult;
using artc::core::SimTarget;
using artc::workloads::KvReadRandom;
using artc::workloads::SourceConfig;
using artc::workloads::TracedRun;

int main(int argc, char** argv) {
  KvReadRandom::Options opt;
  opt.threads = 8;
  opt.gets_per_thread = 500;
  artc::util::FlagSet flags;
  flags.Positional("gets_per_thread", &opt.gets_per_thread);
  artc::bench::HarnessObsSession obs_session(argc, argv, &flags);

  std::printf("tracing kv-readrandom (8 threads x %u gets) on hdd/ext4...\n",
              opt.gets_per_thread);
  KvReadRandom workload(opt);
  SourceConfig source;
  source.storage = artc::storage::MakeNamedConfig("hdd");
  TracedRun run = TraceWorkload(workload, source);
  std::printf("source run: %zu events in %.2fs\n\n", run.trace.events.size(),
              artc::ToSeconds(run.elapsed));

  // Ground truth: the original program on the SSD target.
  SourceConfig ssd_cfg;
  ssd_cfg.storage = artc::storage::MakeNamedConfig("ssd");
  KvReadRandom workload2(opt);
  artc::TimeNs truth = MeasureWorkload(workload2, ssd_cfg);
  std::printf("original program on ssd: %.3fs\n", artc::ToSeconds(truth));

  for (ReplayMethod method : {ReplayMethod::kSingleThreaded, ReplayMethod::kTemporal,
                              ReplayMethod::kArtc}) {
    CompileOptions copt;
    copt.method = method;
    SimTarget target;
    target.storage = artc::storage::MakeNamedConfig("ssd");
    SimReplayResult res =
        artc::core::ReplayOnSimTarget(run.trace, run.snapshot, copt, target);
    double err = 100.0 *
                 (artc::ToSeconds(res.report.wall_time) - artc::ToSeconds(truth)) /
                 artc::ToSeconds(truth);
    std::printf("%-10s replay: %.3fs (%+.1f%% vs original), %llu failures, "
                "concurrency %.2f\n",
                artc::core::ReplayMethodName(method),
                artc::ToSeconds(res.report.wall_time), err,
                static_cast<unsigned long long>(res.report.failed_events),
                res.report.MeanConcurrency());
  }
  return 0;
}
