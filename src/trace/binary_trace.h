// ARTCT: the native *binary* trace format, built for multi-GB traces that
// the text format cannot ingest at speed (the text parser tokenizes and
// re-validates every field of every line; ARTCT readers memcpy fixed-width
// records and look paths up in a shared string table).
//
// File layout (all integers little-endian, the only byte order the
// toolchain targets):
//
//   [ArtctHeader: 64 bytes]
//   [event records: event_count * sizeof(BinaryEvent), in trace order]
//   [chunk index: chunk_count * sizeof(ArtctChunk)]
//   [string table: u32 count, (count+1) u32 offsets, concatenated bytes]
//   [snapshot: snapshot_bytes of the text snapshot format]
//
// Records are fixed-width PODs, so a reader can seek to event i without
// scanning, and an mmap'ed file can be decoded chunk-by-chunk on worker
// threads with no coordination. The chunk index carries a CRC-32 per chunk
// (and the header carries its own), so corruption is caught at the chunk
// that holds it, not as a mystery downstream. Paths/names are interned:
// each event stores u32 string-table ids; id 0 is always the empty string.
// The snapshot rides along in its existing text form — it is tiny next to
// the events, and reusing the text codec keeps one source of truth.
//
// Versioning: writers emit kArtctVersion and readers accept only that
// version, rejecting anything else with a diagnostic. The magic
// distinguishes ARTCT from text traces so tools can sniff
// (`SniffArtctFile`) and route.
#ifndef SRC_TRACE_BINARY_TRACE_H_
#define SRC_TRACE_BINARY_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/trace/event.h"
#include "src/trace/snapshot.h"
#include "src/trace/trace_io.h"

namespace artc::trace {

inline constexpr char kArtctMagic[6] = {'A', 'R', 'T', 'C', 'T', '\0'};
inline constexpr uint16_t kArtctVersion = 2;

// Events per chunk. 64Ki records is ~5.5 MB of event payload: large enough
// that per-chunk overhead (CRC, index entry, task dispatch) vanishes, small
// enough that a parallel decode has plenty of chunks to balance across
// workers and a windowed reader's resident set stays modest.
inline constexpr uint32_t kArtctDefaultChunkEvents = 64 * 1024;

struct ArtctHeader {
  char magic[6];
  uint16_t version;
  uint64_t event_count;
  uint32_t chunk_count;
  uint32_t chunk_events;     // events per chunk (last chunk may be short)
  uint64_t chunk_index_off;  // absolute file offset of the chunk index
  uint64_t strtab_off;       // absolute file offset of the string table
  uint64_t snapshot_off;     // absolute file offset of the snapshot text
  uint64_t strtab_bytes;     // total string-table section size
  uint32_t snapshot_bytes;
  uint32_t header_crc;       // CRC-32 of the 60 bytes preceding this field
};
static_assert(sizeof(ArtctHeader) == 64, "header must stay 64 bytes");

// One trace event, fixed width. TraceEvent::index is implicit (records are
// dense and in trace order); strings are string-table ids.
struct BinaryEvent {
  int64_t enter;
  int64_t ret_time;
  int64_t ret;
  int64_t offset;
  uint64_t size;
  uint64_t aio_id;
  uint64_t sync_id;  // sync-object identity (0 for non-sync calls)
  uint32_t tid;
  uint32_t path_id;
  uint32_t path2_id;
  uint32_t name_id;
  int32_t fd;
  int32_t fd2;
  uint32_t flags;
  uint32_t mode;
  int32_t whence;
  uint16_t call;
  uint16_t pad;
};
static_assert(sizeof(BinaryEvent) == 96, "record must stay fixed-width");

struct ArtctChunk {
  uint64_t file_off;     // absolute offset of the chunk's first record
  uint64_t first_event;  // trace index of that record
  uint32_t count;        // records in this chunk
  uint32_t crc;          // CRC-32 over the chunk's record bytes
};
static_assert(sizeof(ArtctChunk) == 24, "chunk index entry must stay fixed");

// Streams a trace out to an ARTCT file without materializing it: a
// generator producing hundreds of millions of events holds one chunk
// buffer, the string table, and the chunk index. Events are written in
// Add() order; Finish() appends the index/strings/snapshot and patches the
// header. On any I/O failure the writer goes into an error state and the
// failure surfaces from Finish().
class ArtctWriter {
 public:
  ArtctWriter(const std::string& path, const FsSnapshot& snapshot,
              uint32_t chunk_events = kArtctDefaultChunkEvents);
  ~ArtctWriter();
  ArtctWriter(const ArtctWriter&) = delete;
  ArtctWriter& operator=(const ArtctWriter&) = delete;

  void Add(const TraceEvent& ev);

  // Flushes everything and closes the file. Returns false (with *error set)
  // on any failure since construction. Must be called exactly once.
  bool Finish(std::string* error);

  uint64_t events_written() const { return event_count_; }

 private:
  bool FlushChunk();
  uint32_t FileStringId(Str s);

  std::string path_;
  FILE* file_ = nullptr;
  uint32_t chunk_events_;
  std::vector<BinaryEvent> chunk_;     // current chunk's records
  std::vector<ArtctChunk> index_;
  // This file's string ids, assigned in first-sight order so the file
  // bytes never depend on StringTable() ids.
  std::vector<uint32_t> file_ids_;      // table id -> file id (0: unseen)
  std::vector<uint32_t> table_ids_{0};  // file id -> table id; 0 is ""
  uint64_t event_count_ = 0;
  std::string snapshot_text_;
  std::string error_;
  bool finished_ = false;
};

// Read-only view over an mmap'ed ARTCT file. Open() validates the header
// CRC/version, parses the (small) snapshot and interns the file's string
// table into StringTable() once; DecodeChunkInto() verifies the chunk CRC
// and materializes TraceEvents, mapping each record's string ids through
// that one lookup array. DecodeChunkInto is const and touches only
// immutable state, so chunks can be decoded concurrently from ThreadPool
// workers.
// Whole files are loaded through ParallelReadTraceFile (stream_reader.h).
class ArtctReader {
 public:
  static std::unique_ptr<ArtctReader> Open(const std::string& path,
                                           std::string* error);
  ~ArtctReader();
  ArtctReader(const ArtctReader&) = delete;
  ArtctReader& operator=(const ArtctReader&) = delete;

  uint64_t event_count() const { return header_.event_count; }
  uint32_t chunk_count() const { return header_.chunk_count; }
  uint32_t chunk_events() const { return header_.chunk_events; }
  const ArtctChunk& chunk(uint32_t i) const { return index_[i]; }
  const FsSnapshot& snapshot() const { return snapshot_; }

  // Decodes chunk `i`'s records into a caller-sized slice of
  // chunk(i).count events, assigning dense TraceEvent::index values from
  // the chunk's first_event. The readers point workers at disjoint slices
  // of one output vector so chunks stitch in place with zero copies.
  // Returns false with *error set on CRC mismatch or a corrupt record.
  bool DecodeChunkInto(uint32_t i, TraceEvent* dst, std::string* error) const;

  // Best-effort: drops the record pages of chunks [first, first+count) from
  // the resident set (madvise; clean read-only file pages re-fault on the
  // next touch). The windowed reader calls this after consuming a window,
  // and the parallel reader after decoding each chunk, so a multi-GB
  // mapping never accumulates in RSS.
  void ReleaseChunkPages(uint32_t first, uint32_t count) const;

 private:
  ArtctReader() = default;

  ArtctHeader header_{};
  const unsigned char* map_ = nullptr;  // whole-file mapping
  size_t map_len_ = 0;
  const ArtctChunk* index_ = nullptr;   // points into the mapping
  std::vector<Str> strs_;  // file string id -> StringTable() handle
  FsSnapshot snapshot_;
};

// True if the file starts with the ARTCT magic (any version).
bool SniffArtctFile(const std::string& path);

// Whole-bundle convenience for tools and tests. Returns false with *error
// set instead of aborting — a conversion pipeline wants to report the bad
// output path and move on.
bool WriteArtctFile(const std::string& path, const Trace& trace,
                    const FsSnapshot& snapshot, std::string* error,
                    uint32_t chunk_events = kArtctDefaultChunkEvents);

}  // namespace artc::trace

#endif  // SRC_TRACE_BINARY_TRACE_H_
