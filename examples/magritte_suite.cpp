// Magritte benchmark driver: runs any workload of the suite by name (or all
// of them), replays it with ARTC, and prints the semantic-accuracy report
// plus the thread-time breakdown — what an end user of the released suite
// would do to evaluate a file system.
//
// Usage:
//   ./build/examples/magritte_suite [iphoto_import | --list | --all]
//   ./build/examples/magritte_suite --export DIR   # write the whole suite
//                                                  # (trace + snapshot files)
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "src/core/artc.h"
#include "src/obs/log.h"
#include "src/obs/obs.h"
#include "src/sweep/workload_table.h"
#include "src/trace/snapshot.h"
#include "src/trace/trace_io.h"
#include "src/util/flags.h"
#include "src/workloads/magritte.h"

using artc::core::SimReplayResult;
using artc::core::SimTarget;
using artc::workloads::MagritteSpec;
using artc::workloads::MagritteSuite;
using artc::workloads::TracedRun;

namespace {

// Traces a suite workload on the suite's source: its OS X program on an ssd.
TracedRun TraceOnSuiteSource(const MagritteSpec& spec) {
  artc::workloads::SourceConfig source;
  source.storage = artc::storage::MakeNamedConfig("ssd");
  return artc::sweep::NamedWorkload::Find(spec.FullName())->Trace(0, source);
}

void RunOne(const MagritteSpec& spec) {
  TracedRun run = TraceOnSuiteSource(spec);

  SimTarget target;
  target.storage = artc::storage::MakeNamedConfig("hdd");
  target.fs_profile = "ext4";  // cross-platform: OS X trace, Linux-ish target
  artc::core::CompileOptions copt;
  SimReplayResult res =
      artc::core::ReplayOnSimTarget(run.trace, run.snapshot, copt, target);

  std::printf("%-22s %6zu events  %4llu failures  wall %.3fs  thread-time:",
              spec.FullName().c_str(), run.trace.events.size(),
              static_cast<unsigned long long>(res.report.failed_events),
              artc::ToSeconds(res.report.wall_time));
  artc::TimeNs total = res.report.TotalThreadTime();
  for (size_t c = 0; c < artc::core::kCategoryCount; ++c) {
    artc::TimeNs t = res.report.thread_time_by_category[c];
    if (t * 20 > total) {  // print categories above 5%
      std::printf(" %s=%.0f%%",
                  std::string(artc::trace::CategoryName(
                                  static_cast<artc::trace::SysCategory>(c)))
                      .c_str(),
                  100.0 * static_cast<double>(t) / static_cast<double>(total));
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string which = "iphoto_import";
  std::string export_dir;
  bool list = false;
  bool all = false;
  artc::util::FlagSet flags;
  flags.Positional("workload", &which);
  flags.Switch("list", &list);
  flags.Switch("all", &all);
  flags.String("export", &export_dir);
  // ARTC_TRACE_OUT=trace.json (optionally ARTC_METRICS_OUT=metrics.json)
  // records the replay for Perfetto / chrome://tracing; see README.
  // ARTC_METRICS_PORT=P serves live /metrics.
  artc::bench::HarnessObsSession obs_session(argc, argv, &flags);
  if (!export_dir.empty()) {
    // Release the suite: one .trace + .snap pair per workload, replayable
    // with artc_compile on any machine. An existing directory is reused.
    if (::mkdir(export_dir.c_str(), 0755) != 0) {
      int err = errno;
      struct stat st;
      if (err == EEXIST &&
          (::stat(export_dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))) {
        err = ENOTDIR;
      }
      if (err != EEXIST) {
        artc::obs::LogError("magritte_suite", "cannot create export directory",
                            {{"dir", export_dir},
                             {"detail", std::strerror(err)}});
        return 1;
      }
    }
    for (const MagritteSpec& spec : MagritteSuite()) {
      TracedRun run = TraceOnSuiteSource(spec);
      std::string base = export_dir + "/" + spec.FullName();
      artc::trace::WriteTraceFile(run.trace, base + ".trace");
      artc::trace::WriteSnapshotFile(run.snapshot, base + ".snap");
      std::printf("wrote %s.{trace,snap}  (%zu events)\n", base.c_str(),
                  run.trace.events.size());
    }
    return 0;
  }
  if (list) {
    for (const MagritteSpec& spec : MagritteSuite()) {
      std::printf("%s\n", spec.FullName().c_str());
    }
    return 0;
  }
  if (all) {
    for (const MagritteSpec& spec : MagritteSuite()) {
      RunOne(spec);
    }
    return 0;
  }
  RunOne(artc::bench::MagritteSpecOrFail(flags, which));
  return 0;
}
