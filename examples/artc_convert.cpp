// artc_convert: converts traces between the native text format, the strace
// capture format, and the ARTCT binary format. Input format is sniffed
// (ARTCT magic) or forced with --strace; output format follows --to (or is
// inferred: binary input converts to text, text input to binary). Text
// parsing fans out across --jobs workers on multi-GB inputs.
//
// Usage:
//   artc_convert --in trace.txt  --out trace.artct [--jobs N]
//                [--chunk-events N] [--skip-bad-lines]
//   artc_convert --in trace.artct --out trace.txt
//   artc_convert --in app.strace --strace --snapshot s.snap --out t.artct
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/obs/log.h"
#include "src/obs/obs.h"
#include "src/trace/binary_trace.h"
#include "src/trace/snapshot.h"
#include "src/trace/strace_parser.h"
#include "src/trace/stream_reader.h"
#include "src/trace/trace_io.h"
#include "src/util/flags.h"

int main(int argc, char** argv) {
  std::string in_path;
  std::string out_path;
  std::string to;
  std::string snapshot_path;
  bool strace_format = false;
  bool skip_bad_lines = false;
  size_t jobs = 0;
  uint32_t chunk_events = artc::trace::kArtctDefaultChunkEvents;
  artc::util::FlagSet flags;
  flags.String("in", &in_path);
  flags.String("out", &out_path);
  const char* const kFormats[] = {"artct", "text"};
  flags.Choice("to", &to, kFormats);
  flags.Switch("strace", &strace_format);
  flags.String("snapshot", &snapshot_path);
  flags.Unsigned("jobs", &jobs);
  flags.Unsigned("chunk-events", &chunk_events);
  flags.Switch("skip-bad-lines", &skip_bad_lines);
  artc::bench::HarnessObsSession obs_session(argc, argv, &flags);
  if (in_path.empty() || out_path.empty()) {
    flags.Fail("needs --in and --out");
  }

  artc::trace::TraceBundle bundle;
  bool input_binary = false;
  if (strace_format) {
    artc::trace::StraceParseResult parsed;
    artc::trace::ParseDiag diag;
    if (!artc::trace::ParseStraceFile(in_path, &parsed, &diag)) {
      artc::obs::LogError("artc_convert", "strace parse failed",
                          {{"detail", diag.Format()}});
      return 1;
    }
    if (parsed.skipped_lines > 0) {
      artc::obs::LogWarn("artc_convert", "skipped unparsable strace lines",
                         {{"skipped", parsed.skipped_lines},
                          {"first_error", diag.Format()}});
    }
    bundle.trace = std::move(parsed.trace);
    bundle.trace.SortByEnterTime();
  } else {
    artc::trace::ParallelReadOptions opt;
    opt.jobs = jobs;
    opt.skip_bad_lines = skip_bad_lines;
    artc::trace::ParallelReadResult res;
    artc::trace::ParseDiag diag;
    if (!artc::trace::ParallelReadTraceFile(in_path, opt, &res, &diag)) {
      artc::obs::LogError("artc_convert", "trace parse failed",
                          {{"detail", diag.Format()}});
      return 1;
    }
    if (res.skipped_lines > 0) {
      artc::obs::LogWarn("artc_convert", "skipped unparsable trace lines",
                         {{"skipped", res.skipped_lines},
                          {"first_error", res.first_skip.Format()}});
    }
    bundle = std::move(res.bundle);
    input_binary = res.from_binary;
  }
  artc::trace::ParseDiag snap_diag;
  if (!snapshot_path.empty() &&
      !artc::trace::ReadSnapshotFile(snapshot_path, &bundle.snapshot,
                                     &snap_diag)) {
    artc::obs::LogError("artc_convert", "cannot read snapshot",
                        {{"detail", snap_diag.Format()}});
    return 1;
  }

  const bool to_binary = to.empty() ? !input_binary : to == "artct";
  if (to_binary) {
    std::string error;
    if (!artc::trace::WriteArtctFile(out_path, bundle.trace, bundle.snapshot,
                                     &error, chunk_events)) {
      artc::obs::LogError("artc_convert", "cannot write ARTCT file",
                          {{"file", out_path}, {"detail", error}});
      return 1;
    }
  } else {
    artc::trace::WriteTraceBundleFile(bundle, out_path);
  }
  std::printf("%s: %zu events, %zu snapshot entries -> %s (%s)\n",
              in_path.c_str(), bundle.trace.events.size(),
              bundle.snapshot.entries.size(), out_path.c_str(),
              to_binary ? "artct" : "text");
  return 0;
}
