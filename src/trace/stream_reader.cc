#include "src/trace/stream_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <iterator>

#include "src/obs/obs.h"
#include "src/util/strings.h"

namespace artc::trace {
namespace {

constexpr std::string_view kSnapshotLinePrefix = "#snapshot ";

// Read-only whole-file mapping (empty files map to nullptr/0).
struct MappedFile {
  const char* data = nullptr;
  size_t size = 0;

  ~MappedFile() {
    if (data != nullptr) {
      munmap(const_cast<char*>(data), size);
    }
  }

  bool Open(const std::string& path, std::string* error) {
    int fd = open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      *error = "cannot open trace file";
      return false;
    }
    struct stat st;
    if (fstat(fd, &st) != 0) {
      close(fd);
      *error = "cannot stat trace file";
      return false;
    }
    size = static_cast<size_t>(st.st_size);
    if (size > 0) {
      void* map = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (map == MAP_FAILED) {
        close(fd);
        size = 0;
        *error = "mmap failed";
        return false;
      }
      data = static_cast<const char*>(map);
    }
    close(fd);
    return true;
  }
};

enum class LineClass { kEvent, kComment, kSnapshot };

// Mirrors ParseEventLine's own blank/comment test (trailing trim only) so
// the counting phase and the parsing phase agree on what is an event line.
LineClass Classify(std::string_view raw) {
  if (raw.substr(0, kSnapshotLinePrefix.size()) == kSnapshotLinePrefix) {
    return LineClass::kSnapshot;
  }
  std::string_view line = raw;
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n' ||
                           line.back() == ' ')) {
    line.remove_suffix(1);
  }
  if (line.empty() || line[0] == '#') {
    return LineClass::kComment;
  }
  return LineClass::kEvent;
}

struct TextChunk {
  const char* begin = nullptr;
  const char* end = nullptr;
  uint64_t byte_off = 0;  // file offset of `begin`
  // Filled by the counting phase:
  size_t lines = 0;
  size_t candidates = 0;  // event lines (parse may still reject some)
  FsSnapshot snapshot;    // this chunk's "#snapshot" entries, in file order
  // Filled by the scan between phases:
  size_t line_base = 0;
  size_t event_base = 0;
  // Filled by the parsing phase:
  size_t parsed = 0;
  uint64_t skipped = 0;
  bool failed = false;
  ParseDiag diag;  // first skip (skip mode) or the failure; a bad snapshot
                   // line fails the counting phase with a chunk-local line
};

// Calls fn(line, offset_in_chunk, line_index_in_chunk) for every line.
template <typename Fn>
void ForEachLine(const TextChunk& c, Fn&& fn) {
  const char* p = c.begin;
  size_t k = 0;
  while (p < c.end) {
    const char* nl = static_cast<const char*>(
        memchr(p, '\n', static_cast<size_t>(c.end - p)));
    const char* stop = nl == nullptr ? c.end : nl;
    fn(std::string_view(p, static_cast<size_t>(stop - p)),
       static_cast<uint64_t>(p - c.begin), k);
    k++;
    p = stop + 1;
  }
}

void CountChunk(TextChunk* c, const std::string& path) {
  ForEachLine(*c, [&](std::string_view line, uint64_t off, size_t k) {
    c->lines++;
    switch (Classify(line)) {
      case LineClass::kEvent:
        c->candidates++;
        break;
      case LineClass::kSnapshot: {
        std::string error;
        if (!c->failed &&
            !ParseSnapshotLine(line.substr(kSnapshotLinePrefix.size()),
                               &c->snapshot, &error)) {
          c->failed = true;
          c->diag.file = path;
          c->diag.line = k + 1;
          c->diag.byte_offset = c->byte_off + off;
          c->diag.message = std::move(error);
        }
        break;
      }
      case LineClass::kComment:
        break;
    }
  });
}

void ParseChunk(TextChunk* c, const std::string& path, bool skip_bad,
                std::vector<TraceEvent>* out) {
  TraceEvent* dst = out->data() + c->event_base;
  ForEachLine(*c, [&](std::string_view line, uint64_t off, size_t k) {
    if (c->failed || Classify(line) != LineClass::kEvent) {
      return;
    }
    std::string error;
    if (ParseEventLine(line, &dst[c->parsed], &error)) {
      dst[c->parsed].index = c->event_base + c->parsed;
      c->parsed++;
      return;
    }
    if (skip_bad) {
      c->skipped++;
      if (c->skipped == 1) {
        c->diag.file = path;
        c->diag.line = c->line_base + k + 1;
        c->diag.byte_offset = c->byte_off + off;
        c->diag.message = std::move(error);
      }
      return;
    }
    c->failed = true;
    c->diag.file = path;
    c->diag.line = c->line_base + k + 1;
    c->diag.byte_offset = c->byte_off + off;
    c->diag.message = std::move(error);
  });
}

bool ParallelReadArtct(const std::string& path, util::ThreadPool& pool,
                       ParallelReadResult* out, ParseDiag* diag) {
  std::string error;
  std::unique_ptr<ArtctReader> reader = ArtctReader::Open(path, &error);
  if (reader == nullptr) {
    diag->file = path;
    diag->message = std::move(error);
    return false;
  }
  out->from_binary = true;
  out->chunks = reader->chunk_count();
  out->bundle.snapshot = reader->snapshot();
  std::vector<TraceEvent>& events = out->bundle.trace.events;
  events.resize(reader->event_count());
  std::vector<std::string> chunk_errors(reader->chunk_count());
  util::ParallelFor(pool, reader->chunk_count(), [&](size_t i) {
    const uint32_t ci = static_cast<uint32_t>(i);
    reader->DecodeChunkInto(ci, events.data() + reader->chunk(ci).first_event,
                            &chunk_errors[i]);
    // The events own copies of everything decoded; drop the chunk's pages
    // so the whole file is never resident beside the event array.
    reader->ReleaseChunkPages(ci, 1);
  });
  for (const std::string& e : chunk_errors) {
    if (!e.empty()) {
      diag->file = path;
      diag->message = e;
      return false;
    }
  }
  return true;
}

}  // namespace

bool ParallelReadTraceFile(const std::string& path,
                           const ParallelReadOptions& options,
                           ParallelReadResult* out, ParseDiag* diag) {
  ARTC_OBS_SPAN("compiler", "parse_parallel");
  util::ThreadPool* pool = options.pool;
  std::unique_ptr<util::ThreadPool> own_pool;
  if (pool == nullptr) {
    own_pool = std::make_unique<util::ThreadPool>(options.jobs);
    pool = own_pool.get();
  }
  if (SniffArtctFile(path)) {
    return ParallelReadArtct(path, *pool, out, diag);
  }

  MappedFile map;
  std::string error;
  if (!map.Open(path, &error)) {
    diag->file = path;
    diag->message = std::move(error);
    return false;
  }
  out->from_binary = false;
  if (map.size == 0) {
    out->chunks = 0;
    return true;
  }

  // Newline-aligned chunk boundaries: each nominal boundary advances to
  // just past the next '\n', so every line belongs to exactly one chunk.
  const size_t target = std::max<size_t>(options.chunk_bytes, 1);
  size_t nchunks = std::min<size_t>((map.size + target - 1) / target, 4096);
  // Small files still split across the pool so fixtures exercise stitching.
  nchunks = std::max<size_t>(
      nchunks,
      std::min<size_t>(pool->worker_count(), (map.size + 4095) / 4096));
  std::vector<TextChunk> chunks;
  chunks.reserve(nchunks);
  const char* base = map.data;
  const char* end = map.data + map.size;
  const char* cursor = base;
  for (size_t i = 0; i < nchunks && cursor < end; ++i) {
    const char* nominal = base + ((i + 1) * map.size) / nchunks;
    const char* stop;
    if (i + 1 == nchunks || nominal >= end) {
      stop = end;
    } else {
      const char* nl = static_cast<const char*>(
          memchr(nominal, '\n', static_cast<size_t>(end - nominal)));
      stop = nl == nullptr ? end : nl + 1;
    }
    if (stop <= cursor) {
      continue;  // boundary landed inside a line already claimed
    }
    TextChunk c;
    c.begin = cursor;
    c.end = stop;
    c.byte_off = static_cast<uint64_t>(cursor - base);
    chunks.push_back(c);
    cursor = stop;
  }
  out->chunks = chunks.size();

  // Phase 1: count lines and event candidates per chunk, in parallel.
  util::ParallelFor(*pool, chunks.size(),
                    [&](size_t i) { CountChunk(&chunks[i], path); });

  // Exclusive scan: line numbers for diagnostics, slice bases for output.
  size_t total_lines = 0;
  size_t total_events = 0;
  for (TextChunk& c : chunks) {
    if (c.failed) {  // a bad snapshot line: never skipped
      *diag = std::move(c.diag);
      diag->line += total_lines;
      return false;
    }
    c.line_base = total_lines;
    c.event_base = total_events;
    total_lines += c.lines;
    total_events += c.candidates;
  }

  // Phase 2: parse every chunk straight into its slice of the one output
  // vector — the stitch is the layout, no copies.
  std::vector<TraceEvent>& events = out->bundle.trace.events;
  events.resize(total_events);
  util::ParallelFor(*pool, chunks.size(), [&](size_t i) {
    ParseChunk(&chunks[i], path, options.skip_bad_lines, &events);
  });

  FsSnapshot& snapshot = out->bundle.snapshot;
  bool have_first_skip = false;
  for (TextChunk& c : chunks) {
    if (c.failed) {
      *diag = c.diag;
      return false;
    }
    std::move(c.snapshot.entries.begin(), c.snapshot.entries.end(),
              std::back_inserter(snapshot.entries));
    out->skipped_lines += c.skipped;
    if (c.skipped > 0 && !have_first_skip) {
      out->first_skip = c.diag;
      have_first_skip = true;
    }
  }

  // Compact out the holes skipped lines left (none in the common case),
  // keeping TraceEvent::index dense.
  size_t write = 0;
  for (const TextChunk& c : chunks) {
    if (write != c.event_base) {
      for (size_t j = 0; j < c.parsed; ++j) {
        events[write + j] = std::move(events[c.event_base + j]);
        events[write + j].index = write + j;
      }
    }
    write += c.parsed;
  }
  events.resize(write);
  ARTC_OBS_COUNT("parse.chunks", chunks.size());
  ARTC_OBS_COUNT("parse.events", write);
  if (out->skipped_lines > 0) {
    ARTC_OBS_COUNT("parse.skipped_lines", out->skipped_lines);
  }

  snapshot.Canonicalize();
  return true;
}

StreamReader::~StreamReader() = default;

std::unique_ptr<StreamReader> StreamReader::Open(
    const std::string& path, const StreamReaderOptions& options,
    ParseDiag* diag) {
  std::unique_ptr<StreamReader> r(new StreamReader());
  r->opts_ = options;
  r->path_ = path;
  if (SniffArtctFile(path)) {
    std::string error;
    r->reader_ = ArtctReader::Open(path, &error);
    if (r->reader_ == nullptr) {
      diag->file = path;
      diag->message = std::move(error);
      return nullptr;
    }
    r->snapshot_ = r->reader_->snapshot();
    return r;
  }
  r->text_in_.open(path);
  if (!r->text_in_.good()) {
    diag->file = path;
    diag->message = "cannot open trace file";
    return nullptr;
  }
  // The preamble: snapshot and comment lines up to the first event line,
  // which is buffered for the first Next() window.
  std::string line;
  while (std::getline(r->text_in_, line)) {
    r->lineno_++;
    const uint64_t off = r->byte_off_;
    r->byte_off_ += line.size() + 1;
    switch (Classify(line)) {
      case LineClass::kSnapshot: {
        std::string error;
        if (!ParseSnapshotLine(
                std::string_view(line).substr(kSnapshotLinePrefix.size()),
                &r->snapshot_, &error)) {
          diag->file = path;
          diag->line = r->lineno_;
          diag->byte_offset = off;
          diag->message = std::move(error);
          return nullptr;
        }
        break;
      }
      case LineClass::kComment:
        break;
      case LineClass::kEvent:
        r->pending_line_ = std::move(line);
        r->have_pending_ = true;
        r->pending_lineno_ = r->lineno_;
        r->pending_off_ = off;
        break;
    }
    if (r->have_pending_) {
      break;
    }
  }
  r->snapshot_.Canonicalize();
  return r;
}

uint64_t StreamReader::event_count_hint() const {
  return reader_ != nullptr ? reader_->event_count() : 0;
}

bool StreamReader::Next(std::vector<TraceEvent>* window, ParseDiag* diag) {
  window->clear();
  if (reader_ != nullptr) {
    // Chunk-aligned binary window: pick the chunk range, then decode into
    // disjoint slices (on the pool when one was provided).
    const uint32_t first = next_chunk_;
    const uint64_t bound = std::max<uint64_t>(opts_.window_events, 1);
    uint64_t count = 0;
    while (next_chunk_ < reader_->chunk_count() &&
           (count == 0 ||
            count + reader_->chunk(next_chunk_).count <= bound)) {
      count += reader_->chunk(next_chunk_).count;
      next_chunk_++;
    }
    if (count == 0) {
      return true;  // end of trace
    }
    window->resize(count);
    const uint64_t window_base = reader_->chunk(first).first_event;
    const uint32_t nchunks = next_chunk_ - first;
    std::vector<std::string> errors(nchunks);
    auto decode = [&](size_t i) {
      const uint32_t ci = first + static_cast<uint32_t>(i);
      reader_->DecodeChunkInto(
          ci, window->data() + (reader_->chunk(ci).first_event - window_base),
          &errors[i]);
    };
    if (opts_.pool != nullptr && nchunks > 1) {
      util::ParallelFor(*opts_.pool, nchunks, decode);
    } else {
      for (uint32_t i = 0; i < nchunks; ++i) {
        decode(i);
      }
    }
    for (const std::string& e : errors) {
      if (!e.empty()) {
        diag->file = path_;
        diag->message = e;
        return false;
      }
    }
    ARTC_OBS_IF_ENABLED {
      const uint64_t window_bytes =
          static_cast<uint64_t>(count) * sizeof(BinaryEvent);
      ARTC_OBS_OBSERVE("stream.window_bytes", window_bytes);
      ARTC_OBS_OBSERVE("stream.window_events", count);
      ARTC_OBS_COUNT("stream.windows", 1);
      ARTC_OBS_COUNT("stream.events", count);
    }
    // The window owns copies of everything it needs; let the kernel drop
    // the decoded record pages so RSS tracks the window, not the file.
    reader_->ReleaseChunkPages(first, nchunks);
    return true;
  }

  // Text mode: sequential line parse up to the window bound.
  if (text_done_) {
    return true;
  }
  std::string buf;
  while (window->size() < std::max<uint64_t>(opts_.window_events, 1)) {
    std::string_view line;
    size_t cur_lineno;
    uint64_t cur_off;
    if (have_pending_) {
      line = pending_line_;
      cur_lineno = pending_lineno_;
      cur_off = pending_off_;
      have_pending_ = false;
    } else {
      if (!std::getline(text_in_, buf)) {
        text_done_ = true;
        break;
      }
      lineno_++;
      cur_off = byte_off_;
      byte_off_ += buf.size() + 1;
      cur_lineno = lineno_;
      line = buf;
    }
    switch (Classify(line)) {
      case LineClass::kSnapshot:
        // The snapshot was parsed at Open(); entries appearing after events
        // would silently change the tree under the consumer's feet.
        diag->file = path_;
        diag->line = cur_lineno;
        diag->byte_offset = cur_off;
        diag->message = "snapshot line after the first event in streaming mode";
        return false;
      case LineClass::kComment:
        continue;
      case LineClass::kEvent:
        break;
    }
    TraceEvent ev;
    std::string error;
    if (!ParseEventLine(line, &ev, &error)) {
      diag->file = path_;
      diag->line = cur_lineno;
      diag->byte_offset = cur_off;
      diag->message = std::move(error);
      return false;
    }
    ev.index = next_index_++;
    window->push_back(std::move(ev));
  }
  if (!window->empty()) {
    ARTC_OBS_OBSERVE("stream.window_events", window->size());
    ARTC_OBS_COUNT("stream.windows", 1);
    ARTC_OBS_COUNT("stream.events", window->size());
  }
  return true;
}

}  // namespace artc::trace
