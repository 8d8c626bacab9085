// artc_compile: command-line trace compiler. Reads a trace (native or
// strace format) and a snapshot file, compiles it with the chosen replay
// method/modes, and prints the benchmark statistics — dependency edges per
// rule, fd/aio slot counts, model warnings. Optionally replays it on a
// named simulated target.
//
// Usage:
//   artc_compile --trace t.artc [--strace] [--snapshot s.snap]
//                [--method artc|single|temporal|unconstrained]
//                [--no-file-seq] [--no-path-order] [--no-fd-stage] [--fd-seq]
//                [--replay-on hdd|raid0|ssd|smallcache|cfq-1ms|cfq-100ms]
//                [--fs ext4|ext3|jfs|xfs] [--natural]
//                [--save out.artcb]
//   artc_compile --load bench.artcb [--replay-on ...]
//
// --trace accepts text traces/bundles AND ARTCT binary files (sniffed by
// magic; an ARTCT file carries its own snapshot). With --stream the trace
// is compiled through the windowed streaming pipeline (core::CompileStream)
// in bounded memory and only the canonical digest plus streaming statistics
// are printed; --window bounds the events resident per window. --digest
// prints the canonical benchmark digest in the batch path too, so the two
// pipelines can be compared with a diff.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "src/core/artc.h"
#include "src/core/compile_stream.h"
#include "src/core/serialize.h"
#include "src/obs/log.h"
#include "src/obs/obs.h"
#include "src/storage/storage_stack.h"
#include "src/trace/binary_trace.h"
#include "src/trace/strace_parser.h"
#include "src/trace/stream_reader.h"
#include "src/trace/trace_io.h"
#include "src/util/strings.h"
#include "src/vfs/vfs.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: artc_compile --trace FILE [--strace] [--snapshot FILE]\n"
               "                    [--method artc|single|temporal|unconstrained]\n"
               "                    [--no-file-seq] [--no-path-order] [--no-fd-stage]\n"
               "                    [--fd-seq] [--replay-on CONFIG] [--fs PROFILE]\n"
               "                    [--natural] [--stream] [--window N] [--digest]\n"
               "                    [--metrics-port P]\n");
}

}  // namespace

int main(int argc, char** argv) {
  artc::bench::HarnessObsSession obs_session(argc, argv);
  std::string trace_path;
  std::string snapshot_path;
  std::string replay_on;
  std::string save_path;
  std::string load_path;
  std::string fs_profile = "ext4";
  bool strace_format = false;
  bool natural = false;
  bool stream = false;
  bool print_digest = false;
  uint64_t window_events = 1 << 20;
  artc::core::CompileOptions copt;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--snapshot") {
      snapshot_path = next();
    } else if (arg == "--strace") {
      strace_format = true;
    } else if (arg == "--method") {
      copt.method = artc::core::ReplayMethodFromName(next());
    } else if (arg == "--no-file-seq") {
      copt.modes.file_seq = false;
    } else if (arg == "--no-path-order") {
      copt.modes.path_stage_name = false;
    } else if (arg == "--no-fd-stage") {
      copt.modes.fd_stage = false;
    } else if (arg == "--fd-seq") {
      copt.modes.fd_seq = true;
    } else if (arg == "--replay-on") {
      replay_on = next();
    } else if (arg == "--fs") {
      fs_profile = next();
    } else if (arg == "--natural") {
      natural = true;
    } else if (arg == "--save") {
      save_path = next();
    } else if (arg == "--load") {
      load_path = next();
    } else if (arg == "--stream") {
      stream = true;
    } else if (arg == "--window") {
      window_events = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--digest") {
      print_digest = true;
    } else {
      Usage();
      return 2;
    }
  }
  if (trace_path.empty() && load_path.empty()) {
    Usage();
    return 2;
  }
  if (!replay_on.empty() && !artc::storage::FindNamedConfig(replay_on)) {
    std::fprintf(stderr, "artc_compile: unknown --replay-on '%s' (expected %s)\n",
                 replay_on.c_str(),
                 artc::JoinNames(artc::storage::kNamedConfigNames).c_str());
    return 2;
  }
  if (!replay_on.empty() && !artc::vfs::FindFsProfile(fs_profile)) {
    std::fprintf(stderr, "artc_compile: unknown --fs '%s' (expected %s)\n",
                 fs_profile.c_str(), artc::JoinNames(artc::vfs::kFsProfileNames).c_str());
    return 2;
  }

  if (stream) {
    if (trace_path.empty() || strace_format) {
      Usage();
      return 2;
    }
    artc::trace::StreamReaderOptions ropts;
    ropts.window_events = window_events;
    artc::core::CompileStreamOptions sopts;
    sopts.compile = copt;
    artc::core::CompileStreamFileResult res;
    artc::trace::ParseDiag diag;
    if (!artc::core::CompileStreamFile(trace_path, ropts, sopts, &res,
                                       nullptr, &diag)) {
      artc::obs::LogError("artc_compile", "stream compile failed",
                          {{"detail", diag.Format()}});
      return 1;
    }
    std::printf("stream-compiled %llu events in %llu windows (window=%llu)\n",
                static_cast<unsigned long long>(res.events),
                static_cast<unsigned long long>(res.windows),
                static_cast<unsigned long long>(window_events));
    std::printf("peak streaming state: %.1f MB\n",
                static_cast<double>(res.peak_state_bytes) / 1e6);
    std::printf("digest: %016llx\n",
                static_cast<unsigned long long>(res.digest));
    return 0;
  }

  artc::trace::Trace t;
  artc::trace::FsSnapshot snapshot;
  if (!load_path.empty()) {
    // Benchmark comes from the .artcb file; no trace to parse.
  } else if (artc::trace::SniffArtctFile(trace_path)) {
    artc::trace::TraceBundle bundle;
    std::string error;
    if (!artc::trace::ReadArtctFile(trace_path, &bundle, &error)) {
      artc::obs::LogError("artc_compile", "cannot read ARTCT trace",
                          {{"file", trace_path}, {"detail", error}});
      return 1;
    }
    t = std::move(bundle.trace);
    snapshot = std::move(bundle.snapshot);
  } else if (strace_format) {
    artc::trace::StraceParseResult parsed = artc::trace::ParseStraceFile(trace_path);
    if (parsed.skipped_lines > 0) {
      artc::obs::LogWarn("artc_compile", "skipped unparsable strace lines",
                         {{"skipped", parsed.skipped_lines},
                          {"first_error", parsed.first_error}});
    }
    t = std::move(parsed.trace);
    t.SortByEnterTime();
  } else {
    // Bundle-aware: text traces written by this toolchain carry their
    // snapshot inline ("#snapshot ..." lines); a bare trace file simply
    // yields an empty snapshot, exactly like ReadTraceFile did.
    artc::trace::TraceBundle bundle = artc::trace::ReadTraceBundleFile(trace_path);
    t = std::move(bundle.trace);
    snapshot = std::move(bundle.snapshot);
  }
  if (!snapshot_path.empty()) {
    snapshot = artc::trace::ReadSnapshotFile(snapshot_path);
  }

  artc::core::CompiledBenchmark bench;
  if (!load_path.empty()) {
    bench = artc::core::ReadBenchmarkFile(load_path);
  } else {
    bench = artc::core::Compile(t, snapshot, copt);
  }
  if (!save_path.empty()) {
    artc::core::WriteBenchmarkFile(bench, save_path);
    std::printf("wrote %s\n", save_path.c_str());
  }
  std::printf("trace: %zu events, %zu threads\n", bench.actions.size(),
              bench.thread_actions.size());
  if (print_digest) {
    std::printf("digest: %016llx\n",
                static_cast<unsigned long long>(
                    artc::core::DigestBenchmark(bench)));
  }
  std::printf("slots: %u fd, %u aio; model warnings: %llu\n", bench.fd_slot_count,
              bench.aio_slot_count,
              static_cast<unsigned long long>(bench.model_warnings));
  std::printf("dependency edges by rule:\n");
  for (size_t r = 0; r < bench.edge_stats.count_by_rule.size(); ++r) {
    uint64_t n = bench.edge_stats.count_by_rule[r];
    if (n == 0) {
      continue;
    }
    std::printf("  %-12s %10llu  (mean length %.3f ms)\n",
                artc::core::RuleTagName(static_cast<artc::core::RuleTag>(r)),
                static_cast<unsigned long long>(n),
                bench.edge_stats.total_length_ns[r] / static_cast<double>(n) / 1e6);
  }

  if (!replay_on.empty()) {
    artc::core::SimTarget target;
    target.storage = artc::storage::MakeNamedConfig(replay_on);
    target.fs_profile = fs_profile;
    if (natural) {
      target.replay.pacing = artc::core::PacingMode::kNatural;
    }
    artc::core::SimReplayResult res =
        artc::core::ReplayCompiledOnSimTarget(bench, target);
    std::printf("replay on %s/%s: %s\n", replay_on.c_str(), fs_profile.c_str(),
                res.report.Summary().c_str());
  }
  return 0;
}
