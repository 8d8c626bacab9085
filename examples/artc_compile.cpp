// artc_compile: command-line trace compiler. Reads a trace (native text,
// ARTCT or strace format) and a snapshot file, compiles it with the chosen
// replay method/modes, and prints the benchmark statistics — dependency
// edges per rule, fd/aio slot counts, model warnings. Optionally replays it
// on a named simulated target.
//
// Usage:
//   artc_compile --trace t.artct [--strace] [--snapshot s.snap]
//                [--method artc|single|temporal|unconstrained]
//                [--no-file-seq] [--no-path-order] [--no-fd-stage] [--fd-seq]
//                [--replay-on hdd|raid0|ssd|smallcache|cfq-1ms|cfq-100ms]
//                [--fs ext4|ext3|jfs|xfs] [--natural] [--digest]
//                [--stream [--window N]]
//
// --trace accepts text traces/bundles AND ARTCT binary files (sniffed by
// magic; an ARTCT file carries its own snapshot); --snapshot replaces the
// trace's snapshot. An unreadable or malformed input exits 1 with a
// diagnostic. With --stream the trace is compiled through the windowed
// streaming pipeline (core::CompileStream) in bounded memory and only the
// canonical digest plus streaming statistics are printed (every method but
// temporal, which needs a second pass); --window bounds the events resident
// per window. --digest prints the canonical benchmark digest in the batch
// path too, so the two pipelines can be compared with a diff.
#include <cstdio>
#include <string>
#include <utility>

#include "bench/bench_common.h"
#include "src/core/artc.h"
#include "src/core/compile_stream.h"
#include "src/obs/log.h"
#include "src/obs/obs.h"
#include "src/storage/storage_stack.h"
#include "src/trace/snapshot.h"
#include "src/trace/strace_parser.h"
#include "src/trace/stream_reader.h"
#include "src/util/flags.h"
#include "src/vfs/vfs.h"

int main(int argc, char** argv) {
  std::string trace_path;
  std::string snapshot_path;
  std::string method_name = "artc";
  std::string replay_on;
  std::string fs_profile = "ext4";
  bool strace_format = false;
  bool no_file_seq = false;
  bool no_path_order = false;
  bool no_fd_stage = false;
  bool natural = false;
  bool stream = false;
  bool print_digest = false;
  uint64_t window_events = 1 << 20;
  artc::core::CompileOptions copt;
  artc::util::FlagSet flags;
  flags.String("trace", &trace_path);
  flags.Switch("strace", &strace_format);
  flags.String("snapshot", &snapshot_path);
  flags.Choice("method", &method_name, artc::core::kReplayMethodNames);
  flags.Switch("no-file-seq", &no_file_seq);
  flags.Switch("no-path-order", &no_path_order);
  flags.Switch("no-fd-stage", &no_fd_stage);
  flags.Switch("fd-seq", &copt.modes.fd_seq);
  flags.Choice("replay-on", &replay_on, artc::storage::kNamedConfigNames);
  flags.Choice("fs", &fs_profile, artc::vfs::kFsProfileNames);
  flags.Switch("natural", &natural);
  flags.Switch("stream", &stream);
  flags.Unsigned("window", &window_events);
  flags.Switch("digest", &print_digest);
  artc::bench::HarnessObsSession obs_session(argc, argv, &flags);

  if (trace_path.empty()) {
    flags.Fail("needs --trace");
  }
  copt.method = *artc::core::FindReplayMethod(method_name);
  copt.modes.file_seq = !no_file_seq;
  copt.modes.path_stage_name = !no_path_order;
  copt.modes.fd_stage = !no_fd_stage;
  if (window_events == 0) {
    flags.Fail("--window must be at least 1");
  }
  if (stream) {
    if (strace_format) {
      flags.Fail("--stream reads no --strace input");
    }
    if (!artc::core::StreamCompilable(copt.method)) {
      std::string names;
      for (const char* name : artc::core::kReplayMethodNames) {
        if (artc::core::StreamCompilable(*artc::core::FindReplayMethod(name))) {
          names += (names.empty() ? "" : ", ") + std::string(name);
        }
      }
      flags.Fail(std::string("--stream cannot compile --method ") +
                 artc::core::ReplayMethodName(copt.method) +
                 ", which needs a second pass over the whole trace (expected " +
                 names + ")");
    }
    artc::trace::StreamReaderOptions ropts;
    ropts.window_events = window_events;
    artc::core::CompileStreamFileResult res;
    artc::trace::ParseDiag diag;
    if (!artc::core::CompileStreamFile(trace_path, ropts, copt, &res, &diag)) {
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

  artc::trace::TraceBundle bundle;
  artc::trace::ParseDiag diag;
  if (strace_format) {
    artc::trace::StraceParseResult parsed;
    if (!artc::trace::ParseStraceFile(trace_path, &parsed, &diag)) {
      artc::obs::LogError("artc_compile", "cannot read strace trace",
                          {{"detail", diag.Format()}});
      return 1;
    }
    if (parsed.skipped_lines > 0) {
      artc::obs::LogWarn("artc_compile", "skipped unparsable strace lines",
                         {{"skipped", parsed.skipped_lines},
                          {"first_error", parsed.first_error}});
    }
    bundle.trace = std::move(parsed.trace);
    bundle.trace.SortByEnterTime();
  } else {
    artc::trace::ParallelReadResult read;
    if (!artc::trace::ParallelReadTraceFile(trace_path, {}, &read, &diag)) {
      artc::obs::LogError("artc_compile", "cannot read trace",
                          {{"detail", diag.Format()}});
      return 1;
    }
    bundle = std::move(read.bundle);
  }
  if (!snapshot_path.empty() &&
      !artc::trace::ReadSnapshotFile(snapshot_path, &bundle.snapshot, &diag)) {
    artc::obs::LogError("artc_compile", "cannot read snapshot",
                        {{"detail", diag.Format()}});
    return 1;
  }

  artc::core::CompiledBenchmark bench =
      artc::core::Compile(std::move(bundle.trace), bundle.snapshot, copt);
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
