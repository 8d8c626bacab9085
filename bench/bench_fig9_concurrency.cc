// Fig. 9: system-call concurrency achieved by each replay of a 4-thread
// readrandom trace, as a fraction of the original program's concurrency
// (mean number of in-flight system calls). The paper reports ARTC at 94%
// of the original vs temporal ordering's 60%.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/timeline.h"
#include "src/obs/obs.h"
#include "src/workloads/minikv.h"

namespace artc {
namespace {

using bench::PrintHeader;
using core::ReplayMethod;
using core::SimTarget;
using workloads::KvReadRandom;
using workloads::SourceConfig;
using workloads::TracedRun;

// Mean in-flight calls of the original program, from its own trace.
double OriginalConcurrency(const TracedRun& run) {
  TimeNs busy = 0;
  for (const trace::TraceEvent& ev : run.trace.events) {
    busy += ev.Duration();
  }
  return static_cast<double>(busy) / static_cast<double>(run.elapsed);
}

}  // namespace

int Main() {
  PrintHeader("Fig 9: system-call concurrency, 4-thread readrandom");
  KvReadRandom::Options opt;
  opt.threads = 4;
  opt.gets_per_thread = 1000;
  opt.tables = 96;
  opt.keys_per_table = 8000;
  KvReadRandom w(opt);
  SourceConfig src;
  src.storage = storage::MakeNamedConfig("hdd");
  TracedRun run = TraceWorkload(w, src);
  double orig = OriginalConcurrency(run);
  std::printf("original program: %.2f mean in-flight calls\n", orig);

  // A representative two-second window of the original program's timeline
  // ('#' = inside a system call), like Fig. 9(a).
  core::TimelineOptions window;
  window.window_start = Sec(2);
  window.window_duration = Sec(2);
  std::printf("\noriginal program, t=[2s,4s):\n%s\n",
              core::RenderTraceTimeline(run.trace, window).c_str());

  SimTarget target;
  target.storage = storage::MakeNamedConfig("hdd");
  for (ReplayMethod m : {ReplayMethod::kArtc, ReplayMethod::kTemporal,
                         ReplayMethod::kSingleThreaded}) {
    core::CompileOptions copt;
    copt.method = m;
    core::CompiledBenchmark bench = core::Compile(run.trace, run.snapshot, copt);
    core::SimReplayResult res = core::ReplayCompiledOnSimTarget(bench, target);
    double c = res.report.MeanConcurrency();
    std::printf("%-10s replay: %.2f in-flight (%.0f%% of original)\n",
                core::ReplayMethodName(m), c, 100.0 * c / orig);
    if (m != ReplayMethod::kSingleThreaded) {
      std::printf("%s replay, t=[2s,4s):\n%s\n", core::ReplayMethodName(m),
                  core::RenderTimeline(bench, res.report, window).c_str());
    }
  }
  std::printf("Paper shape: ARTC preserves ~94%% of the original concurrency; temporal "
              "ordering ~60%%.\n");
  return 0;
}

}  // namespace artc

int main(int argc, char** argv) {
  // Env wiring (ARTC_TRACE_OUT / ARTC_METRICS_PORT / ...); see
  // bench::HarnessObsSession.
  artc::bench::HarnessObsSession obs_session(argc, argv);
  return artc::Main();
}
