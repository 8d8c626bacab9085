#include "src/trace/binary_trace.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "src/obs/obs.h"
#include "src/util/crc32.h"
#include "src/util/strings.h"

namespace artc::trace {
namespace {

// The header CRC covers everything before the crc field itself.
uint32_t HeaderCrc(const ArtctHeader& h) {
  return util::Crc32(&h, offsetof(ArtctHeader, header_crc));
}

}  // namespace

ArtctWriter::ArtctWriter(const std::string& path, const FsSnapshot& snapshot,
                         uint32_t chunk_events)
    : path_(path), chunk_events_(chunk_events == 0 ? 1 : chunk_events) {
  strings_.Intern("");  // id 0: the unset path/name
  std::ostringstream snap;
  WriteSnapshot(snapshot, snap);
  snapshot_text_ = snap.str();
  chunk_.reserve(chunk_events_);
  file_ = fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    error_ = StrFormat("cannot create %s", path.c_str());
    return;
  }
  ArtctHeader placeholder{};
  if (fwrite(&placeholder, sizeof(placeholder), 1, file_) != 1) {
    error_ = StrFormat("write failed on %s", path.c_str());
  }
}

ArtctWriter::~ArtctWriter() {
  if (file_ != nullptr) {
    fclose(file_);
  }
}

void ArtctWriter::Add(const TraceEvent& ev) {
  if (!error_.empty() || finished_) {
    return;
  }
  BinaryEvent b{};
  b.enter = ev.enter;
  b.ret_time = ev.ret_time;
  b.ret = ev.ret;
  b.offset = ev.offset;
  b.size = ev.size;
  b.aio_id = ev.aio_id;
  b.sync_id = ev.sync_id;
  b.tid = ev.tid;
  b.path_id = ev.path.empty() ? 0 : string_cache_.Intern(ev.path);
  b.path2_id = ev.path2.empty() ? 0 : string_cache_.Intern(ev.path2);
  b.name_id = ev.name.empty() ? 0 : string_cache_.Intern(ev.name);
  b.fd = ev.fd;
  b.fd2 = ev.fd2;
  b.flags = ev.flags;
  b.mode = ev.mode;
  b.whence = ev.whence;
  b.call = static_cast<uint16_t>(ev.call);
  b.pad = 0;
  chunk_.push_back(b);
  event_count_++;
  if (chunk_.size() >= chunk_events_) {
    FlushChunk();
  }
}

bool ArtctWriter::FlushChunk() {
  if (chunk_.empty() || !error_.empty()) {
    return error_.empty();
  }
  const size_t bytes = chunk_.size() * sizeof(BinaryEvent);
  ArtctChunk entry;
  entry.file_off = static_cast<uint64_t>(ftello(file_));
  entry.first_event = event_count_ - chunk_.size();
  entry.count = static_cast<uint32_t>(chunk_.size());
  entry.crc = util::Crc32(chunk_.data(), bytes);
  if (fwrite(chunk_.data(), 1, bytes, file_) != bytes) {
    error_ = StrFormat("write failed on %s", path_.c_str());
    return false;
  }
  index_.push_back(entry);
  chunk_.clear();
  return true;
}

bool ArtctWriter::Finish(std::string* error) {
  if (finished_) {
    if (error != nullptr) {
      *error = "Finish called twice";
    }
    return false;
  }
  finished_ = true;
  if (error_.empty() && file_ == nullptr) {
    error_ = StrFormat("cannot create %s", path_.c_str());
  }
  if (error_.empty()) {
    FlushChunk();
  }
  ArtctHeader h{};
  if (error_.empty()) {
    std::memcpy(h.magic, kArtctMagic, sizeof(h.magic));
    h.version = kArtctVersion;
    h.event_count = event_count_;
    h.chunk_count = static_cast<uint32_t>(index_.size());
    h.chunk_events = chunk_events_;
    h.chunk_index_off = static_cast<uint64_t>(ftello(file_));
    if (!index_.empty() &&
        fwrite(index_.data(), sizeof(ArtctChunk), index_.size(), file_) !=
            index_.size()) {
      error_ = StrFormat("write failed on %s", path_.c_str());
    }
  }
  if (error_.empty()) {
    // String table: count, count+1 cumulative offsets, concatenated bytes.
    h.strtab_off = static_cast<uint64_t>(ftello(file_));
    const uint32_t count = static_cast<uint32_t>(strings_.size());
    std::vector<uint32_t> offsets(count + 1, 0);
    for (uint32_t i = 0; i < count; ++i) {
      offsets[i + 1] =
          offsets[i] + static_cast<uint32_t>(strings_.View(i).size());
    }
    bool ok = fwrite(&count, sizeof(count), 1, file_) == 1 &&
              fwrite(offsets.data(), sizeof(uint32_t), offsets.size(), file_) ==
                  offsets.size();
    for (uint32_t i = 0; ok && i < count; ++i) {
      std::string_view s = strings_.View(i);
      ok = s.empty() || fwrite(s.data(), 1, s.size(), file_) == s.size();
    }
    if (!ok) {
      error_ = StrFormat("write failed on %s", path_.c_str());
    }
    h.strtab_bytes = static_cast<uint64_t>(ftello(file_)) - h.strtab_off;
  }
  if (error_.empty()) {
    h.snapshot_off = static_cast<uint64_t>(ftello(file_));
    h.snapshot_bytes = static_cast<uint32_t>(snapshot_text_.size());
    if (!snapshot_text_.empty() &&
        fwrite(snapshot_text_.data(), 1, snapshot_text_.size(), file_) !=
            snapshot_text_.size()) {
      error_ = StrFormat("write failed on %s", path_.c_str());
    }
  }
  if (error_.empty()) {
    h.header_crc = HeaderCrc(h);
    if (fseeko(file_, 0, SEEK_SET) != 0 ||
        fwrite(&h, sizeof(h), 1, file_) != 1) {
      error_ = StrFormat("write failed on %s", path_.c_str());
    }
  }
  if (file_ != nullptr) {
    if (fclose(file_) != 0 && error_.empty()) {
      error_ = StrFormat("close failed on %s", path_.c_str());
    }
    file_ = nullptr;
  }
  if (!error_.empty() && error != nullptr) {
    *error = error_;
  }
  return error_.empty();
}

std::unique_ptr<ArtctReader> ArtctReader::Open(const std::string& path,
                                               std::string* error) {
  auto fail = [&](const std::string& msg) -> std::unique_ptr<ArtctReader> {
    if (error != nullptr) {
      *error = StrFormat("%s: %s", path.c_str(), msg.c_str());
    }
    return nullptr;
  };
  int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return fail("cannot open");
  }
  struct stat st;
  if (fstat(fd, &st) != 0) {
    close(fd);
    return fail("cannot stat");
  }
  const size_t len = static_cast<size_t>(st.st_size);
  if (len < sizeof(ArtctHeader)) {
    close(fd);
    return fail("too small for an ARTCT header");
  }
  void* map = mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    return fail("mmap failed");
  }
  std::unique_ptr<ArtctReader> r(new ArtctReader());
  r->map_ = static_cast<const unsigned char*>(map);
  r->map_len_ = len;
  std::memcpy(&r->header_, r->map_, sizeof(ArtctHeader));
  const ArtctHeader& h = r->header_;
  if (std::memcmp(h.magic, kArtctMagic, sizeof(h.magic)) != 0) {
    return fail("not an ARTCT file (bad magic)");
  }
  if (h.version != kArtctVersion) {
    return fail(StrFormat("unsupported ARTCT version %u (reader speaks %u)",
                          h.version, kArtctVersion));
  }
  if (h.header_crc != HeaderCrc(h)) {
    return fail("header CRC mismatch (truncated or corrupt file)");
  }
  const uint64_t events_end =
      sizeof(ArtctHeader) + h.event_count * sizeof(BinaryEvent);
  const uint64_t index_end =
      h.chunk_index_off + static_cast<uint64_t>(h.chunk_count) * sizeof(ArtctChunk);
  if (events_end > h.chunk_index_off || index_end > h.strtab_off ||
      h.strtab_off + h.strtab_bytes > h.snapshot_off ||
      h.snapshot_off + h.snapshot_bytes > len) {
    return fail("section offsets out of bounds (corrupt header)");
  }
  r->index_ = reinterpret_cast<const ArtctChunk*>(r->map_ + h.chunk_index_off);
  // String table.
  if (h.strtab_bytes < sizeof(uint32_t)) {
    return fail("string table truncated");
  }
  std::memcpy(&r->str_count_, r->map_ + h.strtab_off, sizeof(uint32_t));
  const uint64_t offsets_bytes =
      static_cast<uint64_t>(r->str_count_ + 1) * sizeof(uint32_t);
  if (sizeof(uint32_t) + offsets_bytes > h.strtab_bytes) {
    return fail("string table truncated");
  }
  r->str_offsets_ = reinterpret_cast<const uint32_t*>(r->map_ + h.strtab_off +
                                                      sizeof(uint32_t));
  r->str_bytes_ = reinterpret_cast<const char*>(r->map_ + h.strtab_off +
                                                sizeof(uint32_t) + offsets_bytes);
  const uint64_t blob_bytes = h.strtab_bytes - sizeof(uint32_t) - offsets_bytes;
  if (r->str_count_ > 0 && r->str_offsets_[r->str_count_] > blob_bytes) {
    return fail("string table offsets out of bounds");
  }
  // Validate the chunk index once here so DecodeChunk can trust it.
  uint64_t next_event = 0;
  for (uint32_t i = 0; i < h.chunk_count; ++i) {
    const ArtctChunk& c = r->index_[i];
    const uint64_t chunk_end =
        c.file_off + static_cast<uint64_t>(c.count) * sizeof(BinaryEvent);
    if (c.file_off < sizeof(ArtctHeader) || chunk_end > h.chunk_index_off ||
        c.first_event != next_event) {
      return fail(StrFormat("chunk %u index entry out of bounds", i));
    }
    next_event += c.count;
  }
  if (next_event != h.event_count) {
    return fail("chunk index does not cover the event records");
  }
  // Snapshot (text codec, outside the CRCs). Small: parse it eagerly.
  std::istringstream snap_in(std::string(
      reinterpret_cast<const char*>(r->map_ + h.snapshot_off), h.snapshot_bytes));
  ParseDiag snap_diag;
  if (!ReadSnapshot(snap_in, &r->snapshot_, &snap_diag)) {
    return fail("snapshot section " + snap_diag.Format());
  }
  return r;
}

ArtctReader::~ArtctReader() {
  if (map_ != nullptr) {
    munmap(const_cast<unsigned char*>(map_), map_len_);
  }
}

std::string_view ArtctReader::StringAt(uint32_t id) const {
  if (id >= str_count_) {
    return {};
  }
  return std::string_view(str_bytes_ + str_offsets_[id],
                          str_offsets_[id + 1] - str_offsets_[id]);
}

bool ArtctReader::DecodeChunkInto(uint32_t i, TraceEvent* dst,
                                  std::string* error) const {
  if (i >= header_.chunk_count) {
    if (error != nullptr) {
      *error = StrFormat("chunk %u out of range (%u chunks)", i,
                         header_.chunk_count);
    }
    return false;
  }
  const ArtctChunk& c = index_[i];
  const unsigned char* base = map_ + c.file_off;
  const size_t bytes = static_cast<size_t>(c.count) * sizeof(BinaryEvent);
  if (util::Crc32(base, bytes) != c.crc) {
    if (error != nullptr) {
      *error = StrFormat(
          "chunk %u CRC mismatch at byte offset %llu (%u records)", i,
          static_cast<unsigned long long>(c.file_off), c.count);
    }
    return false;
  }
  const BinaryEvent* recs = reinterpret_cast<const BinaryEvent*>(base);
  for (uint32_t j = 0; j < c.count; ++j) {
    const BinaryEvent& b = recs[j];
    if (b.call >= static_cast<uint16_t>(Sys::kCount) ||
        b.path_id >= str_count_ || b.path2_id >= str_count_ ||
        b.name_id >= str_count_) {
      if (error != nullptr) {
        *error = StrFormat(
            "chunk %u record %u (event %llu) is corrupt despite a clean CRC",
            i, j, static_cast<unsigned long long>(c.first_event + j));
      }
      return false;
    }
    TraceEvent& ev = dst[j];
    ev.index = c.first_event + j;
    ev.tid = b.tid;
    ev.call = static_cast<Sys>(b.call);
    ev.enter = b.enter;
    ev.ret_time = b.ret_time;
    ev.ret = b.ret;
    ev.path.assign(StringAt(b.path_id));
    ev.path2.assign(StringAt(b.path2_id));
    ev.fd = b.fd;
    ev.fd2 = b.fd2;
    ev.offset = b.offset;
    ev.size = b.size;
    ev.flags = b.flags;
    ev.mode = b.mode;
    ev.whence = b.whence;
    ev.name.assign(StringAt(b.name_id));
    ev.aio_id = b.aio_id;
    ev.sync_id = b.sync_id;
  }
  return true;
}

void ArtctReader::ReleaseChunkPages(uint32_t first, uint32_t count) const {
#if defined(__unix__) || defined(__APPLE__)
  if (count == 0 || first >= header_.chunk_count) {
    return;
  }
  count = std::min(count, header_.chunk_count - first);
  const ArtctChunk& head = index_[first];
  const ArtctChunk& tail = index_[first + count - 1];
  const uint64_t begin = head.file_off;
  const uint64_t end =
      tail.file_off + static_cast<uint64_t>(tail.count) * sizeof(BinaryEvent);
  // Advise whole pages strictly inside [begin, end): neighbours may share
  // the boundary pages with the header/index sections or an unread chunk.
  const uint64_t page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  const uint64_t lo = (begin + page - 1) & ~(page - 1);
  const uint64_t hi = end & ~(page - 1);
  if (hi > lo && hi <= map_len_) {
    madvise(const_cast<unsigned char*>(map_) + lo, hi - lo, MADV_DONTNEED);
    // RSS control visibility: pages handed back to the kernel per window.
    ARTC_OBS_COUNT("stream.madvised_pages", (hi - lo) / page);
  }
#else
  (void)first;
  (void)count;
#endif
}

bool SniffArtctFile(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  char magic[6] = {};
  const bool got = fread(magic, 1, sizeof(magic), f) == sizeof(magic);
  fclose(f);
  return got && std::memcmp(magic, kArtctMagic, sizeof(magic)) == 0;
}

bool WriteArtctFile(const std::string& path, const Trace& trace,
                    const FsSnapshot& snapshot, std::string* error,
                    uint32_t chunk_events) {
  ArtctWriter writer(path, snapshot, chunk_events);
  for (const TraceEvent& ev : trace.events) {
    writer.Add(ev);
  }
  return writer.Finish(error);
}

}  // namespace artc::trace
