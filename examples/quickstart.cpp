// Quickstart: the whole ARTC pipeline in one file.
//
//   1. Parse an strace-format trace (embedded below).
//   2. Describe the initial file tree with a snapshot.
//   3. Compile the trace into a benchmark (ROOT ordering rules).
//   4. Replay it on a simulated storage target and print the report.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <sstream>

#include "bench/bench_common.h"
#include "src/core/artc.h"
#include "src/trace/strace_parser.h"

int main(int argc, char** argv) {
  // Telemetry (ARTC_TRACE_OUT / ARTC_METRICS_PORT / ...) via the shared
  // harness session; the quickstart runs fine with none of it set.
  artc::bench::HarnessObsSession obs_session(argc, argv);
  // A tiny two-thread strace fragment: thread 101 creates and writes a file
  // that thread 102 reads after thread 101 renames it into place — the kind
  // of cross-thread dependency ROOT infers from resource usage.
  const char* kStrace = R"(
101 1700000000.000100 openat(AT_FDCWD, "/work/out.tmp", O_WRONLY|O_CREAT|O_EXCL, 0644) = 3 <0.000030>
101 1700000000.000200 pwrite64(3, "data"..., 65536, 0) = 65536 <0.000400>
101 1700000000.000700 fsync(3) = 0 <0.004000>
101 1700000000.004800 close(3) = 0 <0.000010>
101 1700000000.004900 rename("/work/out.tmp", "/work/out.dat") = 0 <0.000050>
102 1700000000.005100 openat(AT_FDCWD, "/work/out.dat", O_RDONLY) = 3 <0.000020>
102 1700000000.005200 pread64(3, ""..., 65536, 0) = 65536 <0.000300>
102 1700000000.005600 close(3) = 0 <0.000010>
102 1700000000.005700 stat("/work/out.tmp", 0x7ffd) = -1 ENOENT (No such file) <0.000008>
)";

  std::istringstream in(kStrace);
  artc::trace::StraceParseResult parsed = artc::trace::ParseStrace(in);
  std::printf("parsed %zu events (%llu lines skipped)\n", parsed.trace.events.size(),
              static_cast<unsigned long long>(parsed.skipped_lines));

  // The initial tree: just the /work directory (out.tmp is created by the
  // trace itself).
  artc::trace::FsSnapshot snapshot;
  snapshot.AddDir("/work");
  snapshot.Canonicalize();

  // Compile with ARTC's default ordering rules and inspect the result.
  artc::core::CompileOptions copt;  // method = kArtc, default Table-2 modes
  artc::core::CompiledBenchmark bench =
      artc::core::Compile(parsed.trace, snapshot, copt);
  std::printf("compiled: %zu actions, %u fd slots, %llu dependency edges\n",
              bench.actions.size(), bench.fd_slot_count,
              static_cast<unsigned long long>(bench.edge_stats.TotalEdges()));
  for (uint32_t i = 0; i < bench.actions.size(); ++i) {
    std::printf("  [%u] %-8s deps={", i,
                std::string(artc::trace::SysName(bench.events[i].call)).c_str());
    for (const artc::core::Dep& d : bench.DepsFor(i)) {
      std::printf(" %u", d.event);
    }
    std::printf(" }\n");
  }

  // Replay on a simulated single-disk ext4 target.
  artc::core::SimTarget target;
  target.storage = artc::storage::MakeNamedConfig("hdd");
  target.fs_profile = "ext4";
  artc::core::SimReplayResult result =
      artc::core::ReplayCompiledOnSimTarget(bench, target);
  std::printf("\nreplay: %s\n", result.report.Summary().c_str());
  return result.report.failed_events == 0 ? 0 : 1;
}
