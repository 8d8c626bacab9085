// Tests for the process-wide trace string table (src/trace/string_table.h):
// every loader must hand back the same path/path2/name bytes, and the table
// must serve lock-free lookups while other threads intern. The concurrency
// test runs under TSan in CI.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/binary_trace.h"
#include "src/trace/event.h"
#include "src/trace/strace_parser.h"
#include "src/trace/stream_reader.h"
#include "src/trace/string_table.h"
#include "src/trace/trace_io.h"
#include "src/util/thread_pool.h"

namespace artc::trace {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(sizeof(Str) == 4);

// Paths longer than the 15 bytes a std::string keeps inline, empty path2s,
// xattr names, and names with spaces, as a real strace session prints them.
constexpr const char* kStrace =
    "101 1700000000.000100 open(\"/srv/www/htdocs/assets/img/banner_large.png\", "
    "O_RDONLY) = 3 <0.000010>\n"
    "101 1700000000.000200 read(3, \"x\"..., 8192) = 8192 <0.000004>\n"
    "101 1700000000.000300 close(3) = 0 <0.000001>\n"
    "102 1700000000.000400 rename(\"/var/spool/mail/tmp/incoming message 0001\", "
    "\"/var/spool/mail/new/incoming message 0001\") = 0 <0.000020>\n"
    "102 1700000000.000500 setxattr(\"/srv/www/htdocs/index.html\", "
    "\"user.mime type\", \"text/html\", 9, 0) = 0 <0.000003>\n"
    "102 1700000000.000600 getxattr(\"/srv/www/htdocs/index.html\", "
    "\"user.mime type\", 0x7ffc, 128) = 9 <0.000003>\n"
    "103 1700000000.000700 symlink(\"/opt/releases/v2.3.1/bin\", "
    "\"/opt/current bin\") = 0 <0.000005>\n"
    "103 1700000000.000800 mkdir(\"/d\", 0755) = 0 <0.000002>\n";

// The strace events repeated until the files span several chunks.
Trace ReferenceTrace() {
  std::istringstream in(kStrace);
  StraceParseResult parsed = ParseStrace(in);
  EXPECT_EQ(parsed.skipped_lines, 0u) << parsed.first_error;
  Trace out;
  for (int rep = 0; rep < 40; ++rep) {
    for (TraceEvent ev : parsed.trace.events) {
      ev.index = out.events.size();
      ev.enter += rep * 1'000'000;
      ev.ret_time += rep * 1'000'000;
      out.events.push_back(ev);
    }
  }
  return out;
}

void ExpectSameStrings(const Trace& want, const std::vector<TraceEvent>& got,
                       const std::string& loader) {
  ASSERT_EQ(got.size(), want.events.size()) << loader;
  for (size_t i = 0; i < got.size(); ++i) {
    const TraceEvent& a = want.events[i];
    const TraceEvent& b = got[i];
    ASSERT_EQ(a.path.str(), b.path.str()) << loader << " event " << i;
    ASSERT_EQ(a.path2.str(), b.path2.str()) << loader << " event " << i;
    ASSERT_EQ(a.name.str(), b.name.str()) << loader << " event " << i;
    ASSERT_EQ(FormatEvent(a), FormatEvent(b)) << loader << " event " << i;
  }
}

TEST(StringTable, StraceKeepsLongPathsNamesAndSpaces) {
  const Trace ref = ReferenceTrace();
  ASSERT_EQ(ref.events.size(), 8u * 40);
  const TraceEvent& open = ref.events[0];
  EXPECT_EQ(open.path, "/srv/www/htdocs/assets/img/banner_large.png");
  EXPECT_TRUE(open.path2.empty());
  EXPECT_EQ(open.path2, "");
  const TraceEvent& rename = ref.events[3];
  EXPECT_EQ(rename.path, "/var/spool/mail/tmp/incoming message 0001");
  EXPECT_EQ(rename.path2, "/var/spool/mail/new/incoming message 0001");
  EXPECT_EQ(ref.events[4].name, "user.mime type");
  EXPECT_EQ(ref.events[5].name, "user.mime type");
  EXPECT_EQ(ref.events[6].path2, "/opt/current bin");
  // Equal strings share one id, whichever event they came from.
  EXPECT_EQ(ref.events[4].path, ref.events[5].path);
  EXPECT_EQ(ref.events[4].path.id(), ref.events[8 + 4].path.id());
}

TEST(StringTable, EveryLoaderReturnsTheSameBytes) {
  const Trace ref = ReferenceTrace();
  TraceBundle bundle;
  bundle.trace = ref;
  bundle.snapshot.AddDir("/srv/www/htdocs");
  const std::string text = TempPath("strtab_loaders.trace");
  const std::string bin = TempPath("strtab_loaders.artct");
  WriteTraceBundleFile(bundle, text);
  std::string error;
  ASSERT_TRUE(WriteArtctFile(bin, ref, bundle.snapshot, &error, /*chunk_events=*/50))
      << error;

  {
    Trace seq;
    std::ifstream file(text);
    ParseDiag diag;
    ASSERT_TRUE(ReadTrace(file, &seq, &diag)) << diag.Format();
    ExpectSameStrings(ref, seq.events, "ReadTrace");
  }
  for (const std::string& path : {text, bin}) {
    for (size_t jobs : {1u, 4u}) {
      util::ThreadPool pool(jobs);
      ParallelReadOptions opt;
      opt.pool = &pool;
      opt.chunk_bytes = 2048;  // several text chunks
      ParallelReadResult res;
      ParseDiag diag;
      ASSERT_TRUE(ParallelReadTraceFile(path, opt, &res, &diag)) << diag.Format();
      EXPECT_GT(res.chunks, 1u) << path;
      ExpectSameStrings(ref, res.bundle.trace.events,
                        path + " jobs=" + std::to_string(jobs));
    }
    StreamReaderOptions sopt;
    sopt.window_events = 64;
    ParseDiag diag;
    std::unique_ptr<StreamReader> reader = StreamReader::Open(path, sopt, &diag);
    ASSERT_NE(reader, nullptr) << diag.Format();
    std::vector<TraceEvent> all;
    std::vector<TraceEvent> window;
    while (reader->Next(&window, &diag) && !window.empty()) {
      all.insert(all.end(), window.begin(), window.end());
    }
    EXPECT_TRUE(diag.message.empty()) << diag.Format();
    ExpectSameStrings(ref, all, path + " stream");
  }
  std::remove(text.c_str());
  std::remove(bin.c_str());
}

// Four threads intern shared and fresh strings while reading back ids the
// others published; every id must resolve to its string on every thread.
TEST(StringTable, ConcurrentInternAndRead) {
  constexpr int kThreads = 4;
  constexpr int kStrings = 600;  // crosses several table segments
  std::vector<std::vector<std::atomic<uint32_t>>> published(kThreads);
  for (auto& v : published) {
    v = std::vector<std::atomic<uint32_t>>(kStrings);
    for (auto& id : v) {
      id.store(UINT32_MAX, std::memory_order_relaxed);
    }
  }
  auto fresh = [](int t, int i) {
    return "/concurrent/fresh/thread_" + std::to_string(t) + "/entry_" + std::to_string(i);
  };
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kStrings; ++i) {
        const std::string shared = "/concurrent/shared/entry_" + std::to_string(i);
        Str s(shared);
        if (s.str() != shared) {
          mismatches++;
        }
        published[t][i].store(Str(fresh(t, i)).id(), std::memory_order_release);
        // Read back whatever another thread has published so far.
        const int other = (t + 1 + i) % kThreads;
        for (int j = i; j >= 0 && j > i - 8; --j) {
          const uint32_t id = published[other][j].load(std::memory_order_acquire);
          if (id != UINT32_MAX && Str::FromId(id).str() != fresh(other, j)) {
            mismatches++;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  for (int i = 0; i < kStrings; ++i) {
    const std::string shared = "/concurrent/shared/entry_" + std::to_string(i);
    EXPECT_EQ(Str(shared).str(), shared);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(Str::FromId(published[t][i].load()).str(), fresh(t, i));
    }
  }
}

}  // namespace
}  // namespace artc::trace
