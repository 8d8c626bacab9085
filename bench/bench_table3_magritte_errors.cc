// Table 3: replay failure counts for every Magritte workload under
// completely unconstrained multithreaded replay (UC) and ARTC, both in AFAP
// mode. The paper reports the maximum error count across five runs; we vary
// the simulated-scheduler seed the same way. Single-threaded and
// temporally-ordered counts are reported too (the paper notes they match
// ARTC's on all but one trace).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/obs/obs.h"
#include "src/util/thread_pool.h"
#include "src/workloads/magritte.h"

namespace artc {
namespace {

using bench::PrintHeader;
using core::ReplayMethod;
using core::SimTarget;
using workloads::MagritteSpec;
using workloads::MagritteSuite;
using workloads::SourceConfig;
using workloads::TracedRun;

constexpr int kRuns = 5;  // max error count over five seeds, as in the paper

uint64_t MaxErrors(const TracedRun& run, ReplayMethod method) {
  uint64_t worst = 0;
  for (int seed = 1; seed <= kRuns; ++seed) {
    SimTarget target;
    target.storage = storage::MakeNamedConfig("ssd");
    target.fs_profile = "ext4";
    target.seed = static_cast<uint64_t>(seed);
    // Paper setup: SSD-backed ext4, page cache *not* dropped between init
    // and execution, AFAP mode to maximise reordering pressure.
    target.drop_caches_after_init = false;
    core::CompileOptions copt;
    copt.method = method;
    target.replay.pacing = core::PacingMode::kAfap;
    core::SimReplayResult res =
        core::ReplayOnSimTarget(run.trace, run.snapshot, copt, target);
    worst = std::max(worst, res.report.failed_events);
  }
  return worst;
}

struct Row {
  uint64_t uc = 0;
  uint64_t artc = 0;
  uint64_t single = 0;
  uint64_t temporal = 0;
  size_t events = 0;
};

}  // namespace

int Main() {
  PrintHeader("Table 3: Magritte replay failure counts (UC vs ARTC, AFAP)");
  std::printf("%-22s %8s %8s %8s %8s %9s\n", "trace", "UC", "ARTC", "single", "temporal",
              "events");
  const std::vector<MagritteSpec> suite = MagritteSuite();
  std::vector<Row> rows(suite.size());
  // Each trace is generated, compiled (4 methods), and sim-replayed (5
  // seeds each) independently: fan the whole per-trace pipeline out across
  // the host's cores and print the rows in suite order afterwards.
  util::ThreadPool pool;
  util::ParallelFor(pool, suite.size(), [&](size_t i) {
    SourceConfig src;
    src.storage = storage::MakeNamedConfig("ssd");
    src.platform = "osx";  // the iBench traces came from Mac OS X
    TracedRun run = workloads::TraceMagritte(suite[i], src);
    Row& row = rows[i];
    row.uc = MaxErrors(run, ReplayMethod::kUnconstrained);
    row.artc = MaxErrors(run, ReplayMethod::kArtc);
    row.single = MaxErrors(run, ReplayMethod::kSingleThreaded);
    row.temporal = MaxErrors(run, ReplayMethod::kTemporal);
    row.events = run.trace.events.size();
  });
  uint64_t uc_total = 0;
  uint64_t artc_total = 0;
  uint64_t clean_artc = 0;
  for (size_t i = 0; i < suite.size(); ++i) {
    const Row& row = rows[i];
    std::printf("%-22s %8llu %8llu %8llu %8llu %8.1fK\n", suite[i].FullName().c_str(),
                static_cast<unsigned long long>(row.uc),
                static_cast<unsigned long long>(row.artc),
                static_cast<unsigned long long>(row.single),
                static_cast<unsigned long long>(row.temporal),
                static_cast<double>(row.events) / 1000.0);
    uc_total += row.uc;
    artc_total += row.artc;
    if (row.artc <= suite[i].xattr_init_gaps * 4) {
      clean_artc++;
    }
  }
  std::printf("\nTOTAl errors: UC=%llu ARTC=%llu  (ARTC within xattr-gap budget on "
              "%llu/34 traces)\n",
              static_cast<unsigned long long>(uc_total),
              static_cast<unsigned long long>(artc_total),
              static_cast<unsigned long long>(clean_artc));
  std::printf("Paper shape: UC errors are orders of magnitude above ARTC; ARTC's "
              "residual errors stem from missing xattr-initialization info.\n");
  return 0;
}

}  // namespace artc

int main(int argc, char** argv) {
  // Env wiring (ARTC_TRACE_OUT / ARTC_METRICS_PORT / ...); see
  // bench::HarnessObsSession.
  artc::bench::HarnessObsSession obs_session(argc, argv);
  return artc::Main();
}
