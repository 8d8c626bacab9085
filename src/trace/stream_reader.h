// Chunked, parallel, and windowed trace ingestion — the front door for
// traces too big (or too hot) for the line-at-a-time readers in trace_io.
//
// Two entry points:
//
//  * ParallelReadTraceFile(): whole-file parse on ThreadPool workers. The
//    file is mmap'ed and split into record-aligned chunks — ARTCT files
//    along their built-in chunk index, text files on the newline nearest
//    each chunk-size boundary. Text goes through three phases: a parallel
//    line count per chunk, an exclusive scan sizing each chunk's slice of
//    the single output vector, and a parallel parse directly into those
//    slices — chunks stitch in order with zero copies. Snapshot lines
//    ("#snapshot ...") are collected per chunk and joined in file order,
//    so bundles parse identically to trace_io::ReadTraceBundle. ARTCT
//    chunks hand their file pages back to the kernel as soon as they are
//    decoded, so the whole file is never resident beside the events.
//
//  * StreamReader: windowed sequential access for out-of-core pipelines.
//    Open() surfaces the snapshot up front (ARTCT keeps it in the footer;
//    text bundles write it before the first event); Next() then fills a
//    caller-owned window of bounded size, so peak memory is O(window), not
//    O(trace). ARTCT windows decode chunk-aligned and can fan decoding out
//    on a pool; text windows parse sequentially.
//
// Both report trouble through trace::ParseDiag instead of aborting, and
// the parallel text path can optionally skip unparseable lines (counting
// them and keeping the first diagnostic) — rejecting one bad record in a
// multi-GB capture must not kill the ingest.
#ifndef SRC_TRACE_STREAM_READER_H_
#define SRC_TRACE_STREAM_READER_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/binary_trace.h"
#include "src/trace/event.h"
#include "src/trace/snapshot.h"
#include "src/trace/trace_io.h"
#include "src/util/thread_pool.h"

namespace artc::trace {

struct ParallelReadOptions {
  // Worker pool to parse on. Null: a private pool of `jobs` workers is
  // created for the call (jobs == 0 picks util::DefaultJobs()).
  util::ThreadPool* pool = nullptr;
  size_t jobs = 0;
  // Text only: skip unparseable lines (counted, first one diagnosed)
  // instead of failing the whole read.
  bool skip_bad_lines = false;
  // Text only: target bytes per chunk before newline alignment. The
  // default keeps every worker busy on the 100MB+ files this path is for
  // while still splitting small fixtures enough to exercise stitching.
  size_t chunk_bytes = 4 << 20;
};

struct ParallelReadResult {
  TraceBundle bundle;
  size_t chunks = 0;          // chunks the file was split into
  bool from_binary = false;   // ARTCT vs text
  uint64_t skipped_lines = 0;  // text + skip_bad_lines only
  ParseDiag first_skip;        // set when skipped_lines > 0
};

// Reads a native-text trace/bundle or an ARTCT file (sniffed by magic).
// Returns false with *diag set on open failure, corrupt ARTCT sections, or
// (unless skip_bad_lines) the first bad text line.
bool ParallelReadTraceFile(const std::string& path,
                           const ParallelReadOptions& options,
                           ParallelReadResult* out, ParseDiag* diag);

struct StreamReaderOptions {
  // Upper bound on events materialized per Next() window. ARTCT rounds up
  // to whole chunks (the CRC/decode unit), so the effective bound is
  // max(window_events, chunk_events).
  uint64_t window_events = 1 << 20;
  // Optional pool for ARTCT window decoding (chunks within a window decode
  // in parallel). Null: decode on the calling thread.
  util::ThreadPool* pool = nullptr;
};

class StreamReader {
 public:
  // Opens a text trace/bundle or ARTCT file (sniffed). Returns null with
  // *diag set on failure. For text bundles the snapshot must precede the
  // first event line, which is where every writer in this codebase puts it.
  static std::unique_ptr<StreamReader> Open(const std::string& path,
                                            const StreamReaderOptions& options,
                                            ParseDiag* diag);
  ~StreamReader();

  const FsSnapshot& snapshot() const { return snapshot_; }
  bool is_binary() const { return reader_ != nullptr; }
  // Total events in the file: exact for ARTCT, 0 (unknown) for text.
  uint64_t event_count_hint() const;

  // Replaces *window with the next batch of events in trace order (dense
  // TraceEvent::index across windows). Returns false on a parse error
  // (*diag set); an empty window on a true return means end of trace.
  bool Next(std::vector<TraceEvent>* window, ParseDiag* diag);

 private:
  StreamReader() = default;

  StreamReaderOptions opts_;
  FsSnapshot snapshot_;

  // Binary mode.
  std::unique_ptr<ArtctReader> reader_;
  uint32_t next_chunk_ = 0;

  // Text mode.
  std::string path_;
  std::ifstream text_in_;
  std::string pending_line_;  // first event line, read during Open()
  bool have_pending_ = false;
  size_t pending_lineno_ = 0;
  uint64_t pending_off_ = 0;
  bool text_done_ = false;
  size_t lineno_ = 0;
  uint64_t byte_off_ = 0;
  uint64_t next_index_ = 0;
};

}  // namespace artc::trace

#endif  // SRC_TRACE_STREAM_READER_H_
