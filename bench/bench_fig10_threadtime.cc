// Fig. 10: where thread-time goes when replaying the Magritte suite on a
// disk vs an SSD. Thread-time is summed per syscall family; both bars are
// normalized to the HDD total for that application, so the SSD bar height
// shows the speedup and its composition shows which families shrink (the
// paper: fsync shrinks dramatically on the SSD).
#include <array>
#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_common.h"
#include "src/obs/obs.h"
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

struct AppTimes {
  std::array<TimeNs, core::kCategoryCount> hdd{};
  std::array<TimeNs, core::kCategoryCount> ssd{};
};

}  // namespace

int Main() {
  PrintHeader("Fig 10: Magritte thread-time by call family, HDD vs SSD (ARTC replay)");
  std::map<std::string, AppTimes> by_app;
  for (const MagritteSpec& spec : MagritteSuite()) {
    SourceConfig src;
    src.storage = storage::MakeNamedConfig("ssd");
    src.platform = "osx";
    TracedRun run = workloads::TraceMagritte(spec, src);
    core::CompileOptions copt;
    copt.method = ReplayMethod::kArtc;
    for (const char* storage_name : {"hdd", "ssd"}) {
      SimTarget target;
      target.storage = storage::MakeNamedConfig(storage_name);
      // AFAP: the Magritte calls are I/O-bound (per-op compute is
      // microseconds), and predelay cannot tell compute from
      // thread-coordination idleness, which would dominate when replaying
      // a slow source on a fast target.
      target.replay.pacing = core::PacingMode::kAfap;
      core::SimReplayResult res =
          core::ReplayOnSimTarget(run.trace, run.snapshot, copt, target);
      AppTimes& at = by_app[spec.app];
      auto& dst = std::string(storage_name) == "hdd" ? at.hdd : at.ssd;
      for (size_t c = 0; c < core::kCategoryCount; ++c) {
        dst[c] += res.report.thread_time_by_category[c];
      }
    }
  }

  // Print the per-app breakdown, both normalized to HDD total.
  std::printf("%-9s %-4s %7s", "app", "disk", "total");
  for (size_t c = 0; c < core::kCategoryCount; ++c) {
    std::printf(" %6s", std::string(trace::CategoryName(
                            static_cast<trace::SysCategory>(c))).c_str());
  }
  std::printf("\n");
  for (const auto& [app, at] : by_app) {
    TimeNs hdd_total = 0;
    TimeNs ssd_total = 0;
    for (size_t c = 0; c < core::kCategoryCount; ++c) {
      hdd_total += at.hdd[c];
      ssd_total += at.ssd[c];
    }
    auto print_row = [&](const char* disk, const std::array<TimeNs, core::kCategoryCount>& v,
                         TimeNs total) {
      std::printf("%-9s %-4s %6.2f ", app.c_str(), disk,
                  static_cast<double>(total) / static_cast<double>(hdd_total));
      for (size_t c = 0; c < core::kCategoryCount; ++c) {
        std::printf(" %5.1f%%", 100.0 * static_cast<double>(v[c]) /
                                    static_cast<double>(hdd_total));
      }
      std::printf("\n");
    };
    print_row("hdd", at.hdd, hdd_total);
    print_row("ssd", at.ssd, ssd_total);
    std::printf("%-9s      speedup %.1fx\n", app.c_str(),
                static_cast<double>(hdd_total) / static_cast<double>(ssd_total));
  }
  std::printf("Paper shape: SSD thread-time 5-20x lower; fsync's share shrinks on the "
              "SSD; iPhoto/iTunes fsync-dominated on disk, Numbers/Keynote read+stat "
              "dominated.\n");
  return 0;
}

}  // namespace artc

int main(int argc, char** argv) {
  // Env wiring (ARTC_TRACE_OUT / ARTC_METRICS_PORT / ...); see
  // bench::HarnessObsSession.
  artc::bench::HarnessObsSession obs_session(argc, argv);
  return artc::Main();
}
