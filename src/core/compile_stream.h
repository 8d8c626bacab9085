// Windowed streaming compilation: annotate + compile a trace one event at
// a time without ever materializing the whole trace, its annotation, or
// the compiled benchmark.
//
// The batch pipeline holds the full trace (~200 B/event), the full touch
// annotation, and the full dep arena in memory at once. CompileStream runs
// the same per-event compile step as the batch Compile() (dep_builder.h's
// CompileStep: remap slots, dependency edges, predelay, pruning) right
// after annotating each event, and keeps nothing per event beyond the
// step's ~20-byte sidecar (thread index + timestamps, consulted when later
// edges reference the event). Peak memory is the live resource tables plus
// that sidecar plus whatever window the caller feeds from.
//
// Finish() returns a canonical FNV-1a digest over the compiled stream
// (events, actions, pruned dep edges, thread/slot tables, edge stats).
// DigestBenchmark() computes the identical digest from a compiled
// benchmark, so "stream output == batch output" is one integer comparison.
//
// Every method but temporal: temporal-method emission needs the completed
// slot wiring of the *whole* trace (a second pass), which contradicts
// streaming.
#ifndef SRC_CORE_COMPILE_STREAM_H_
#define SRC_CORE_COMPILE_STREAM_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/compiled.h"
#include "src/core/compiler.h"
#include "src/fsmodel/resource_model.h"
#include "src/trace/event.h"
#include "src/trace/snapshot.h"
#include "src/trace/stream_reader.h"

namespace artc::core {

class CompileStream {
 public:
  // options.method must not be kTemporal (see StreamCompilable).
  explicit CompileStream(const trace::FsSnapshot& snapshot,
                         const CompileOptions& options = {});
  ~CompileStream();
  CompileStream(const CompileStream&) = delete;
  CompileStream& operator=(const CompileStream&) = delete;

  // Feeds the next event. Events MUST arrive in trace (issue) order;
  // TraceEvent::index must be dense from 0 (StreamReader guarantees both).
  void Push(const trace::TraceEvent& ev);

  // Seals the stream and returns the canonical digest. Must be called
  // exactly once; the stream must not be used afterwards.
  uint64_t Finish();

  uint64_t events_seen() const;
  // The streaming state actually resident right now (sidecar + resource
  // tables + pruner clocks). The RSS acceptance test asserts this stays far
  // below the batch footprint.
  uint64_t state_bytes() const;
  // Payload bytes held by the path-name interner — the one component of
  // state_bytes that grows with path diversity rather than event count.
  uint64_t interner_bytes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Whether CompileStream can compile `method` (all but kTemporal).
bool StreamCompilable(ReplayMethod method);

// The same canonical digest, computed from a compiled benchmark.
uint64_t DigestBenchmark(const CompiledBenchmark& bench);

struct CompileStreamFileResult {
  uint64_t digest = 0;
  uint64_t events = 0;
  uint64_t peak_state_bytes = 0;  // max CompileStream::state_bytes() seen
  uint64_t windows = 0;
};

// Drives a StreamReader (text or ARTCT, sniffed) through a CompileStream in
// bounded windows. Returns false with *diag set on open/parse failure.
bool CompileStreamFile(const std::string& path,
                       const trace::StreamReaderOptions& reader_options,
                       const CompileOptions& options,
                       CompileStreamFileResult* result,
                       trace::ParseDiag* diag);

}  // namespace artc::core

#endif  // SRC_CORE_COMPILE_STREAM_H_
