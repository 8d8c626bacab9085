// Native text trace format: one event per line, as emitted by FormatEvent():
//
//   <index> <tid> <enter_ns> <ret_ns> <call> ret=<v> [key=value]...
//
// String values are double-quoted with backslash escapes. Lines beginning
// with '#' are comments.
#ifndef SRC_TRACE_TRACE_IO_H_
#define SRC_TRACE_TRACE_IO_H_

#include <iosfwd>
#include <string>

#include "src/trace/event.h"
#include "src/trace/snapshot.h"

namespace artc::trace {

// Where and why a trace failed to parse. Streaming readers chewing through
// multi-GB files return this instead of aborting, so a caller can reject
// one bad record (or one bad file) and keep going; the CLI frontends format
// it into the same fail-fast message the aborting wrappers always printed.
struct ParseDiag {
  std::string file;          // empty when reading an anonymous stream
  size_t line = 0;           // 1-based line number of the offending line
  uint64_t byte_offset = 0;  // file offset of that line's first byte
  std::string message;

  // "<file>:<line> (byte <off>): <message>"; file/offset parts are omitted
  // when unknown.
  std::string Format() const;
};

// Sequential stream readers, the reference the parallel and windowed
// readers (stream_reader.h) are tested against. Files are loaded through
// ParallelReadTraceFile there, which also reads ARTCT.
//
// Aborting reader: parse errors die with a message pointing at the
// offending line. The right behaviour for build inputs and small fixtures.
Trace ReadTrace(std::istream& in);

// Diagnostic-returning variant: on any parse failure, fill *diag and
// return false; *out holds the events parsed before the failure.
bool ReadTrace(std::istream& in, Trace* out, ParseDiag* diag);

void WriteTrace(const Trace& trace, std::ostream& out);
void WriteTraceFile(const Trace& trace, const std::string& path);

// Parses one native-format line; returns false for blank/comment lines.
bool ParseEventLine(std::string_view line, TraceEvent* out, std::string* error);

// ---------------------------------------------------------------------------
// Trace bundles: a trace plus the initial file-tree snapshot it replays
// against, in ONE text file. The snapshot rides along as comment lines
// ("#snapshot <snapshot-format-line>") ahead of the trace, so a bundle is
// also a valid plain trace file for every existing reader. Bundles are the
// unit of the checking harness's golden corpus and repro dumps: a single
// file plus a schedule seed reproduces a replay exactly.
// ---------------------------------------------------------------------------

struct TraceBundle {
  Trace trace;
  FsSnapshot snapshot;
};

// A bad "#snapshot" line fails the read like a bad event line does.
TraceBundle ReadTraceBundle(std::istream& in);
bool ReadTraceBundle(std::istream& in, TraceBundle* out, ParseDiag* diag);
void WriteTraceBundle(const TraceBundle& bundle, std::ostream& out);
void WriteTraceBundleFile(const TraceBundle& bundle, const std::string& path);

}  // namespace artc::trace

#endif  // SRC_TRACE_TRACE_IO_H_
