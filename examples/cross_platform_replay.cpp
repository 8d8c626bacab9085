// Cross-platform replay: an OS X trace full of platform-specific calls
// (getattrlist, exchangedata, F_FULLFSYNC, ...) replayed on a Linux-like
// target, through BOTH backends:
//
//   * the simulated kernel (deterministic virtual time), and
//   * the POSIX backend — real system calls in a sandbox directory, real
//     threads, exactly the paper's replayer mechanics.
//
// Usage: ./build/examples/cross_platform_replay [sandbox-dir]
#include <cstdio>
#include <sstream>
#include <string>

#include <sys/stat.h>

#include "bench/bench_common.h"
#include "src/core/artc.h"
#include "src/core/posix_env.h"
#include "src/trace/trace_io.h"
#include "src/util/flags.h"

namespace {

// A small OS X desktop-app-style trace in the native format: an atomic
// document swap via exchangedata plus metadata chatter.
const char* kOsxTrace = R"(
0 7 0 20000 getattrlist ret=0 path="/doc/report.pages"
1 7 20000 30000 open ret=3 path="/doc/report.pages.new" flags=0x16 mode=0644
2 7 30000 500000 pwrite ret=131072 fd=3 size=131072 off=0
3 8 40000 90000 getxattr_osx ret=32 path="/doc/report.pages" name="com.apple.FinderInfo"
4 7 500000 4600000 fcntl_fullfsync ret=0 fd=3
5 7 4600000 4610000 close ret=0 fd=3
6 7 4610000 4700000 exchangedata ret=0 path="/doc/report.pages" path2="/doc/report.pages.new"
7 7 4700000 4710000 unlink ret=0 path="/doc/report.pages.new"
8 8 4710000 4730000 stat ret=131072 path="/doc/report.pages"
9 8 4730000 4750000 setattrlist ret=0 path="/doc/report.pages"
)";

}  // namespace

int main(int argc, char** argv) {
  std::string root = "/tmp/artc_sandbox";
  artc::util::FlagSet flags;
  flags.Positional("sandbox-dir", &root);
  artc::bench::HarnessObsSession obs_session(argc, argv, &flags);
  std::istringstream in(kOsxTrace);
  artc::trace::Trace t = artc::trace::ReadTrace(in);
  std::printf("loaded %zu-event OS X trace\n", t.events.size());

  artc::trace::FsSnapshot snapshot;
  snapshot.AddDir("/doc");
  snapshot.AddFile("/doc/report.pages", 131072);
  snapshot.entries.back().xattr_names.push_back("com.apple.FinderInfo");
  snapshot.Canonicalize();

  artc::core::CompileOptions copt;
  artc::core::CompiledBenchmark bench = artc::core::Compile(t, snapshot, copt);

  // --- Backend 1: simulated Linux target. ---
  artc::core::SimTarget target;
  target.storage = artc::storage::MakeNamedConfig("ssd");
  target.emulation.target_os = "linux";  // exchangedata -> link + 2 renames
  artc::core::SimReplayResult sim_res =
      artc::core::ReplayCompiledOnSimTarget(bench, target);
  std::printf("simulated backend: %s\n", sim_res.report.Summary().c_str());

  // --- Backend 2: real syscalls in a sandbox. ---
  ::mkdir(root.c_str(), 0755);
  artc::core::EmulationPolicy policy;
  policy.target_os = "linux";
  artc::core::PosixReplayEnv posix_env(root, policy);
  posix_env.Initialize(bench.snapshot);
  artc::core::ReplayReport posix_rep = artc::core::Replay(bench, posix_env);
  std::printf("posix backend (%s): %s\n", root.c_str(), posix_rep.Summary().c_str());
  std::printf("  (timings above are host nanoseconds; semantics are what matter "
              "here: %llu failures)\n",
              static_cast<unsigned long long>(posix_rep.failed_events));
  return sim_res.report.failed_events == 0 ? 0 : 1;
}
