// Tests for the ARTCT binary trace format and the chunked/streaming
// readers: text<->binary round trips over the golden corpus and fuzz
// traces, parallel-parse equivalence against the sequential readers,
// windowed StreamReader stitching, and corruption/diagnostic paths.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/generator.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/trace/binary_trace.h"
#include "src/trace/event.h"
#include "src/trace/snapshot.h"
#include "src/trace/stream_reader.h"
#include "src/trace/trace_io.h"
#include "src/util/crc32.h"
#include "src/util/thread_pool.h"

namespace artc {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

void ExpectEventsEqual(const trace::TraceEvent& a, const trace::TraceEvent& b,
                       size_t i) {
  EXPECT_EQ(a.index, b.index) << "event " << i;
  EXPECT_EQ(a.tid, b.tid) << "event " << i;
  EXPECT_EQ(a.call, b.call) << "event " << i;
  EXPECT_EQ(a.enter, b.enter) << "event " << i;
  EXPECT_EQ(a.ret_time, b.ret_time) << "event " << i;
  EXPECT_EQ(a.ret, b.ret) << "event " << i;
  EXPECT_EQ(a.path, b.path) << "event " << i;
  EXPECT_EQ(a.path2, b.path2) << "event " << i;
  EXPECT_EQ(a.fd, b.fd) << "event " << i;
  EXPECT_EQ(a.fd2, b.fd2) << "event " << i;
  EXPECT_EQ(a.offset, b.offset) << "event " << i;
  EXPECT_EQ(a.size, b.size) << "event " << i;
  EXPECT_EQ(a.flags, b.flags) << "event " << i;
  EXPECT_EQ(a.mode, b.mode) << "event " << i;
  EXPECT_EQ(a.whence, b.whence) << "event " << i;
  EXPECT_EQ(a.name, b.name) << "event " << i;
  EXPECT_EQ(a.aio_id, b.aio_id) << "event " << i;
}

void ExpectBundlesEqual(const trace::TraceBundle& a,
                        const trace::TraceBundle& b) {
  ASSERT_EQ(a.trace.events.size(), b.trace.events.size());
  for (size_t i = 0; i < a.trace.events.size(); ++i) {
    ExpectEventsEqual(a.trace.events[i], b.trace.events[i], i);
  }
  std::ostringstream sa, sb;
  trace::WriteSnapshot(a.snapshot, sa);
  trace::WriteSnapshot(b.snapshot, sb);
  EXPECT_EQ(sa.str(), sb.str());
}

// The sequential reference reader, over a file.
trace::TraceBundle ReadBundleSequential(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  return trace::ReadTraceBundle(in);
}

// Loads any trace file through the whole-file loader the CLIs use.
trace::TraceBundle LoadFile(const std::string& path) {
  trace::ParallelReadResult res;
  trace::ParseDiag diag;
  EXPECT_TRUE(trace::ParallelReadTraceFile(path, {}, &res, &diag))
      << diag.Format();
  return std::move(res.bundle);
}

std::vector<std::string> CorpusFiles() {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(ARTC_CORPUS_DIR)) {
    if (entry.path().extension() == ".trace") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(BinaryTrace, RoundTripCorpus) {
  auto files = CorpusFiles();
  ASSERT_FALSE(files.empty());
  const std::string bin = TempPath("artct_roundtrip.artct");
  for (size_t i = 0; i < files.size() && i < 4; ++i) {
    trace::TraceBundle orig = ReadBundleSequential(files[i]);
    std::string error;
    // Tiny chunks force multi-chunk files even on small fixtures.
    ASSERT_TRUE(trace::WriteArtctFile(bin, orig.trace, orig.snapshot, &error,
                                      /*chunk_events=*/64))
        << error;
    ASSERT_TRUE(trace::SniffArtctFile(bin));
    ExpectBundlesEqual(orig, LoadFile(bin));
  }
  std::remove(bin.c_str());
}

TEST(BinaryTrace, RoundTripFuzzTraces) {
  const std::string bin = TempPath("artct_fuzz.artct");
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    check::GenOptions gen;
    gen.seed = seed;
    gen.threads = 3 + seed % 3;
    gen.ops_per_thread = 40;
    trace::TraceBundle orig = check::GenerateTrace(gen);
    std::string error;
    ASSERT_TRUE(trace::WriteArtctFile(bin, orig.trace, orig.snapshot, &error,
                                      /*chunk_events=*/32))
        << error;
    ExpectBundlesEqual(orig, LoadFile(bin));
  }
  std::remove(bin.c_str());
}

TEST(BinaryTrace, EmptyTrace) {
  const std::string bin = TempPath("artct_empty.artct");
  trace::Trace empty;
  trace::FsSnapshot snap;
  std::string error;
  ASSERT_TRUE(trace::WriteArtctFile(bin, empty, snap, &error));
  EXPECT_TRUE(LoadFile(bin).trace.events.empty());
  std::remove(bin.c_str());
}

TEST(BinaryTrace, CorruptChunkDetected) {
  check::GenOptions gen;
  gen.seed = 7;
  trace::TraceBundle orig = check::GenerateTrace(gen);
  ASSERT_FALSE(orig.trace.events.empty());
  const std::string bin = TempPath("artct_corrupt.artct");
  std::string error;
  ASSERT_TRUE(trace::WriteArtctFile(bin, orig.trace, orig.snapshot, &error,
                                    /*chunk_events=*/16));
  // Flip one byte inside the first chunk's record payload (past the header).
  {
    std::fstream f(bin, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64 + 16);
    char c;
    f.seekg(64 + 16);
    f.get(c);
    f.seekp(64 + 16);
    f.put(static_cast<char>(c ^ 0x5a));
  }
  trace::ParallelReadResult res;
  trace::ParseDiag diag;
  EXPECT_FALSE(trace::ParallelReadTraceFile(bin, {}, &res, &diag));
  EXPECT_EQ(diag.file, bin);
  EXPECT_NE(diag.message.find("CRC"), std::string::npos) << diag.Format();
  std::remove(bin.c_str());
}

TEST(BinaryTrace, TruncatedHeaderRejected) {
  const std::string bin = TempPath("artct_trunc.artct");
  {
    std::ofstream f(bin, std::ios::binary);
    f.write("ARTCT\0", 6);  // magic only
  }
  std::string error;
  auto reader = trace::ArtctReader::Open(bin, &error);
  EXPECT_EQ(reader, nullptr);
  EXPECT_FALSE(error.empty());
  std::remove(bin.c_str());
}

TEST(ParallelRead, TextMatchesSequential) {
  auto files = CorpusFiles();
  ASSERT_FALSE(files.empty());
  util::ThreadPool pool(4);
  for (size_t i = 0; i < files.size() && i < 3; ++i) {
    trace::TraceBundle seq = ReadBundleSequential(files[i]);
    trace::ParallelReadOptions opt;
    opt.pool = &pool;
    opt.chunk_bytes = 512;  // force many chunks on small fixtures
    trace::ParallelReadResult res;
    trace::ParseDiag diag;
    ASSERT_TRUE(trace::ParallelReadTraceFile(files[i], opt, &res, &diag))
        << diag.Format();
    EXPECT_FALSE(res.from_binary);
    EXPECT_GT(res.chunks, 1u);
    ExpectBundlesEqual(seq, res.bundle);
  }
}

TEST(ParallelRead, ArtctMatchesText) {
  check::GenOptions gen;
  gen.seed = 11;
  gen.threads = 4;
  gen.ops_per_thread = 60;
  trace::TraceBundle orig = check::GenerateTrace(gen);
  const std::string bin = TempPath("artct_par.artct");
  std::string error;
  ASSERT_TRUE(trace::WriteArtctFile(bin, orig.trace, orig.snapshot, &error,
                                    /*chunk_events=*/32));
  util::ThreadPool pool(4);
  trace::ParallelReadOptions opt;
  opt.pool = &pool;
  trace::ParallelReadResult res;
  trace::ParseDiag diag;
  ASSERT_TRUE(trace::ParallelReadTraceFile(bin, opt, &res, &diag))
      << diag.Format();
  EXPECT_TRUE(res.from_binary);
  ExpectBundlesEqual(orig, res.bundle);
  std::remove(bin.c_str());
}

// The parallel ARTCT path drops each chunk's file pages once decoded, so
// the mapping never sits in RSS beside the event array; decoding must not
// depend on pages a neighbouring chunk released.
TEST(ParallelRead, ArtctReleasesDecodedChunkPages) {
  check::GenOptions gen;
  gen.seed = 12;
  gen.threads = 4;
  gen.ops_per_thread = 2000;
  trace::TraceBundle orig = check::GenerateTrace(gen);
  const std::string bin = TempPath("artct_release.artct");
  std::string error;
  ASSERT_TRUE(trace::WriteArtctFile(bin, orig.trace, orig.snapshot, &error,
                                    /*chunk_events=*/512));
  util::ThreadPool pool(4);
  trace::ParallelReadOptions opt;
  opt.pool = &pool;
  trace::ParallelReadResult res;
  trace::ParseDiag diag;
#ifndef ARTC_OBS_DISABLED
  const bool was_enabled = obs::Enabled();
  obs::Enable();
  auto released = [] {
    const auto counters = obs::DefaultRegistry().Snapshot().counters;
    const auto it = counters.find("stream.madvised_pages");
    return it == counters.end() ? int64_t{0} : it->second;
  };
  const int64_t before = released();
#endif
  ASSERT_TRUE(trace::ParallelReadTraceFile(bin, opt, &res, &diag))
      << diag.Format();
#ifndef ARTC_OBS_DISABLED
  EXPECT_GT(released() - before, 0);
  if (!was_enabled) {
    obs::Disable();
  }
#endif
  EXPECT_GT(res.chunks, 1u);
  ExpectBundlesEqual(orig, res.bundle);
  std::remove(bin.c_str());
}

TEST(ParallelRead, SkipBadLines) {
  check::GenOptions gen;
  gen.seed = 3;
  trace::TraceBundle orig = check::GenerateTrace(gen);
  const std::string txt = TempPath("artct_skip.trace");
  {
    std::ostringstream body;
    trace::WriteTraceBundle(orig, body);
    std::string lines = body.str();
    // Inject two garbage lines mid-file.
    size_t mid = lines.find('\n', lines.size() / 2);
    ASSERT_NE(mid, std::string::npos);
    lines.insert(mid + 1, "this is not an event line\nneither is this\n");
    std::ofstream f(txt);
    f << lines;
  }
  trace::ParallelReadOptions opt;
  opt.skip_bad_lines = true;
  opt.chunk_bytes = 256;
  trace::ParallelReadResult res;
  trace::ParseDiag diag;
  ASSERT_TRUE(trace::ParallelReadTraceFile(txt, opt, &res, &diag))
      << diag.Format();
  EXPECT_EQ(res.skipped_lines, 2u);
  EXPECT_GT(res.first_skip.line, 0u);
  ASSERT_EQ(res.bundle.trace.events.size(), orig.trace.events.size());
  for (size_t i = 0; i < orig.trace.events.size(); ++i) {
    ExpectEventsEqual(orig.trace.events[i], res.bundle.trace.events[i], i);
  }
  // Without skip_bad_lines the same file fails with a located diagnostic.
  opt.skip_bad_lines = false;
  EXPECT_FALSE(trace::ParallelReadTraceFile(txt, opt, &res, &diag));
  EXPECT_GT(diag.line, 0u);
  EXPECT_FALSE(diag.message.empty());
  std::remove(txt.c_str());
}

TEST(ParallelRead, MissingFile) {
  trace::ParallelReadResult res;
  trace::ParseDiag diag;
  EXPECT_FALSE(trace::ParallelReadTraceFile(TempPath("no_such_file.trace"),
                                            trace::ParallelReadOptions{}, &res,
                                            &diag));
  EXPECT_FALSE(diag.message.empty());
}

void CheckStreamWindows(const std::string& path,
                        const trace::TraceBundle& want,
                        uint64_t window_events, util::ThreadPool* pool) {
  trace::StreamReaderOptions opt;
  opt.window_events = window_events;
  opt.pool = pool;
  trace::ParseDiag diag;
  auto reader = trace::StreamReader::Open(path, opt, &diag);
  ASSERT_NE(reader, nullptr) << diag.Format();
  std::ostringstream sa, sb;
  trace::WriteSnapshot(want.snapshot, sa);
  trace::WriteSnapshot(reader->snapshot(), sb);
  EXPECT_EQ(sa.str(), sb.str());
  std::vector<trace::TraceEvent> window;
  std::vector<trace::TraceEvent> all;
  size_t windows = 0;
  while (true) {
    ASSERT_TRUE(reader->Next(&window, &diag)) << diag.Format();
    if (window.empty()) break;
    EXPECT_LE(window.size(),
              std::max<uint64_t>(window_events,
                                 reader->is_binary()
                                     ? trace::kArtctDefaultChunkEvents
                                     : window_events));
    all.insert(all.end(), window.begin(), window.end());
    ++windows;
  }
  if (want.trace.events.size() > window_events) {
    EXPECT_GT(windows, 1u);
  }
  ASSERT_EQ(all.size(), want.trace.events.size());
  for (size_t i = 0; i < all.size(); ++i) {
    ExpectEventsEqual(want.trace.events[i], all[i], i);
  }
}

TEST(StreamReader, TextWindows) {
  auto files = CorpusFiles();
  ASSERT_FALSE(files.empty());
  trace::TraceBundle want = ReadBundleSequential(files[0]);
  for (uint64_t w : {1ull, 7ull, 1000000ull}) {
    CheckStreamWindows(files[0], want, w, nullptr);
  }
}

TEST(StreamReader, ArtctWindows) {
  check::GenOptions gen;
  gen.seed = 21;
  gen.threads = 4;
  gen.ops_per_thread = 50;
  trace::TraceBundle want = check::GenerateTrace(gen);
  const std::string bin = TempPath("artct_stream.artct");
  std::string error;
  ASSERT_TRUE(trace::WriteArtctFile(bin, want.trace, want.snapshot, &error,
                                    /*chunk_events=*/16));
  util::ThreadPool pool(2);
  for (uint64_t w : {1ull, 16ull, 33ull, 1000000ull}) {
    CheckStreamWindows(bin, want, w, nullptr);
    CheckStreamWindows(bin, want, w, &pool);
  }
  trace::StreamReaderOptions opt;
  trace::ParseDiag diag;
  auto reader = trace::StreamReader::Open(bin, opt, &diag);
  ASSERT_NE(reader, nullptr);
  EXPECT_TRUE(reader->is_binary());
  EXPECT_EQ(reader->event_count_hint(), want.trace.events.size());
  std::remove(bin.c_str());
}

TEST(TraceIo, DiagnosticCarriesLocation) {
  const std::string txt = TempPath("artct_diag.trace");
  {
    std::ofstream f(txt);
    f << "# comment line\n";
    f << "0 1 1000 2000 open ret=3 path=\"/a\" flags=0x0 mode=0644\n";
    f << "garbage here\n";
  }
  trace::ParallelReadResult res;
  trace::ParseDiag diag;
  EXPECT_FALSE(trace::ParallelReadTraceFile(txt, {}, &res, &diag));
  EXPECT_EQ(diag.line, 3u);
  EXPECT_EQ(diag.file, txt);
  EXPECT_GT(diag.byte_offset, 0u);
  EXPECT_NE(diag.Format().find(":3"), std::string::npos) << diag.Format();
  std::remove(txt.c_str());

  trace::ParseDiag missing;
  EXPECT_FALSE(
      trace::ParallelReadTraceFile(TempPath("no_such.trace"), {}, &res, &missing));
  EXPECT_FALSE(missing.message.empty());
}


// A header that names ARTCT version 1 (whose records lack sync_id) and
// carries a valid CRC is refused by version, not misread.
TEST(BinaryTrace, RejectsVersion1) {
  check::GenOptions gen;
  gen.seed = 5;
  trace::TraceBundle orig = check::GenerateTrace(gen);
  const std::string bin = TempPath("artct_v1.artct");
  std::string error;
  ASSERT_TRUE(trace::WriteArtctFile(bin, orig.trace, orig.snapshot, &error));
  {
    std::fstream f(bin, std::ios::in | std::ios::out | std::ios::binary);
    trace::ArtctHeader h;
    f.read(reinterpret_cast<char*>(&h), sizeof(h));
    h.version = 1;
    h.header_crc = util::Crc32(&h, offsetof(trace::ArtctHeader, header_crc));
    f.seekp(0);
    f.write(reinterpret_cast<const char*>(&h), sizeof(h));
  }
  trace::ParallelReadResult res;
  trace::ParseDiag diag;
  EXPECT_FALSE(trace::ParallelReadTraceFile(bin, {}, &res, &diag));
  EXPECT_NE(diag.message.find("unsupported ARTCT version 1"), std::string::npos)
      << diag.Format();
  std::remove(bin.c_str());
}

// The string table has no CRC either: a count whose offsets would run past
// the section, and offsets that go backwards, must be rejected at Open.
TEST(BinaryTrace, CorruptStringTableRejected) {
  check::GenOptions gen;
  gen.seed = 8;
  trace::TraceBundle orig = check::GenerateTrace(gen);
  const std::string bin = TempPath("artct_badstrtab.artct");
  std::string error;
  ASSERT_TRUE(trace::WriteArtctFile(bin, orig.trace, orig.snapshot, &error));
  trace::ArtctHeader h;
  uint32_t count = 0;
  std::vector<uint32_t> offsets;
  {
    std::ifstream f(bin, std::ios::binary);
    f.read(reinterpret_cast<char*>(&h), sizeof(h));
    f.seekg(static_cast<std::streamoff>(h.strtab_off));
    f.read(reinterpret_cast<char*>(&count), sizeof(count));
    offsets.resize(count + 1);
    f.read(reinterpret_cast<char*>(offsets.data()),
           static_cast<std::streamsize>(offsets.size() * sizeof(uint32_t)));
  }
  ASSERT_GE(count, 3u);
  ASSERT_LT(offsets[2], offsets[count]);
  auto patch = [&](uint64_t off, uint32_t value) {
    std::fstream f(bin, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(off));
    f.write(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  patch(h.strtab_off, UINT32_MAX);
  EXPECT_EQ(trace::ArtctReader::Open(bin, &error), nullptr);
  EXPECT_NE(error.find("string table truncated"), std::string::npos) << error;

  patch(h.strtab_off, count);
  patch(h.strtab_off + 2 * sizeof(uint32_t), offsets[count]);  // offsets[1]
  EXPECT_EQ(trace::ArtctReader::Open(bin, &error), nullptr);
  EXPECT_NE(error.find("string table offsets out of order"), std::string::npos) << error;
  std::remove(bin.c_str());
}

// The ARTCT snapshot section has no CRC; an entry edited to an unknown type
// must surface as a diagnostic from every reader that opens the file.
TEST(BinaryTrace, CorruptSnapshotSectionDiagnosed) {
  check::GenOptions gen;
  gen.seed = 6;
  trace::TraceBundle orig = check::GenerateTrace(gen);
  ASSERT_FALSE(orig.snapshot.entries.empty());
  const std::string bin = TempPath("artct_badsnap.artct");
  std::string error;
  ASSERT_TRUE(trace::WriteArtctFile(bin, orig.trace, orig.snapshot, &error));
  {
    std::fstream f(bin, std::ios::in | std::ios::out | std::ios::binary);
    trace::ArtctHeader h;
    f.read(reinterpret_cast<char*>(&h), sizeof(h));
    std::string snap(h.snapshot_bytes, '\0');
    f.seekg(static_cast<std::streamoff>(h.snapshot_off));
    f.read(snap.data(), static_cast<std::streamsize>(snap.size()));
    const size_t entry = snap.find("\nD ");  // first entry, after the comment
    ASSERT_NE(entry, std::string::npos);
    f.seekp(static_cast<std::streamoff>(h.snapshot_off + entry + 1));
    f.put('Q');
  }
  EXPECT_EQ(trace::ArtctReader::Open(bin, &error), nullptr);
  EXPECT_NE(error.find("unknown snapshot entry type 'Q'"), std::string::npos)
      << error;

  trace::ParallelReadResult res;
  trace::ParseDiag diag;
  EXPECT_FALSE(trace::ParallelReadTraceFile(bin, {}, &res, &diag));
  EXPECT_NE(diag.message.find("'Q'"), std::string::npos) << diag.Format();

  trace::ParseDiag stream_diag;
  EXPECT_EQ(trace::StreamReader::Open(bin, {}, &stream_diag), nullptr);
  EXPECT_NE(stream_diag.message.find("'Q'"), std::string::npos)
      << stream_diag.Format();
  std::remove(bin.c_str());
}

// A text bundle whose line 3 is a "#snapshot" entry of unknown type.
const char kBadSnapshotBundle[] =
    "# bundle\n"
    "#snapshot D /a\n"
    "#snapshot Q /bad\n"
    "0 1 1000 2000 open ret=3 path=\"/a\" flags=0x0 mode=0644\n";

TEST(TraceIo, BundleDiagnosesBadSnapshotLine) {
  std::istringstream in(kBadSnapshotBundle);
  trace::TraceBundle bundle;
  trace::ParseDiag diag;
  EXPECT_FALSE(trace::ReadTraceBundle(in, &bundle, &diag));
  EXPECT_EQ(diag.line, 3u);
  EXPECT_EQ(diag.byte_offset, std::string("# bundle\n#snapshot D /a\n").size());
  EXPECT_NE(diag.message.find("'Q'"), std::string::npos) << diag.Format();
}

TEST(StreamReader, DiagnosesBadSnapshotLine) {
  const std::string txt = TempPath("artct_badsnap_stream.trace");
  {
    std::ofstream f(txt);
    f << kBadSnapshotBundle;
  }
  trace::ParseDiag diag;
  EXPECT_EQ(trace::StreamReader::Open(txt, {}, &diag), nullptr);
  EXPECT_EQ(diag.file, txt);
  EXPECT_EQ(diag.line, 3u);
  EXPECT_NE(diag.message.find("'Q'"), std::string::npos) << diag.Format();
  std::remove(txt.c_str());
}

// The parallel text reader parses snapshot lines in its counting phase, on
// chunk-local line numbers; the diagnostic must still carry the file line,
// and skip_bad_lines must not skip a snapshot line.
TEST(ParallelRead, DiagnosesBadSnapshotLine) {
  const std::string txt = TempPath("artct_badsnap_par.trace");
  size_t bad_line = 0;
  {
    std::ofstream f(txt);
    for (int i = 0; i < 40; ++i) {
      f << i << " 1 " << 1000 * (i + 1) << " " << 1000 * (i + 1) + 500
        << " close ret=0 fd=3\n";
    }
    f << "#snapshot Q /bad\n";
    bad_line = 41;
    f << "40 1 50000 50500 close ret=0 fd=3\n";
  }
  util::ThreadPool pool(4);
  trace::ParallelReadOptions opt;
  opt.pool = &pool;
  opt.chunk_bytes = 128;  // the bad line lands well past the first chunk
  for (bool skip : {false, true}) {
    opt.skip_bad_lines = skip;
    trace::ParallelReadResult res;
    trace::ParseDiag diag;
    EXPECT_FALSE(trace::ParallelReadTraceFile(txt, opt, &res, &diag));
    EXPECT_EQ(diag.file, txt);
    EXPECT_EQ(diag.line, bad_line);
    EXPECT_NE(diag.message.find("'Q'"), std::string::npos) << diag.Format();
  }
  std::remove(txt.c_str());
}

}  // namespace
}  // namespace artc
