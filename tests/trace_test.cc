#include <gtest/gtest.h>

#include <sstream>

#include "src/trace/event.h"
#include "src/trace/snapshot.h"
#include "src/trace/strace_parser.h"
#include "src/trace/syscalls.h"
#include "src/trace/trace_io.h"

namespace artc::trace {
namespace {

TEST(Syscalls, NameRoundTrip) {
  for (size_t i = 0; i < kSysCount; ++i) {
    Sys s = static_cast<Sys>(i);
    EXPECT_EQ(SysFromName(SysName(s)), s) << SysName(s);
  }
}

TEST(Syscalls, UnknownNameReturnsSentinel) {
  EXPECT_EQ(SysFromName("definitely_not_a_call"), Sys::kCount);
}

TEST(Syscalls, NineteenOsxSpecificCalls) {
  int osx = 0;
  for (size_t i = 0; i < kSysCount; ++i) {
    if (GetSysInfo(static_cast<Sys>(i)).osx_specific) {
      osx++;
    }
  }
  EXPECT_EQ(osx, 19);  // the paper emulates 19 calls
}

TEST(Syscalls, Categories) {
  EXPECT_EQ(GetSysInfo(Sys::kPRead).category, SysCategory::kRead);
  EXPECT_EQ(GetSysInfo(Sys::kFsync).category, SysCategory::kFsync);
  EXPECT_EQ(GetSysInfo(Sys::kLstat).category, SysCategory::kStatFamily);
  EXPECT_EQ(GetSysInfo(Sys::kGetXattr).category, SysCategory::kXattr);
}

TEST(TraceEvent, ErrnoHelpers) {
  TraceEvent ev;
  ev.ret = -kENOENT;
  EXPECT_TRUE(ev.Failed());
  EXPECT_EQ(ev.Errno(), kENOENT);
  ev.ret = 42;
  EXPECT_FALSE(ev.Failed());
  EXPECT_EQ(ev.Errno(), 0);
}

TEST(TraceIo, RoundTrip) {
  Trace t;
  TraceEvent ev;
  ev.tid = 7;
  ev.call = Sys::kOpen;
  ev.enter = 1000;
  ev.ret_time = 2000;
  ev.ret = 3;
  ev.path = "/a/file with spaces";
  ev.flags = kOpenRead | kOpenCreate;
  ev.mode = 0644;
  ev.fd = 3;
  t.events.push_back(ev);

  TraceEvent ev2;
  ev2.tid = 8;
  ev2.call = Sys::kPWrite;
  ev2.enter = 3000;
  ev2.ret_time = 4000;
  ev2.ret = 4096;
  ev2.fd = 3;
  ev2.size = 4096;
  ev2.offset = 8192;
  t.events.push_back(ev2);

  std::stringstream ss;
  WriteTrace(t, ss);
  Trace back = ReadTrace(ss);
  ASSERT_EQ(back.events.size(), 2u);
  EXPECT_EQ(back.events[0].path, "/a/file with spaces");
  EXPECT_EQ(back.events[0].flags, kOpenRead | kOpenCreate);
  EXPECT_EQ(back.events[0].fd, 3);
  EXPECT_EQ(back.events[1].offset, 8192);
  EXPECT_EQ(back.events[1].size, 4096u);
  EXPECT_EQ(back.events[1].call, Sys::kPWrite);
}

TEST(TraceIo, QuotedEscapes) {
  TraceEvent ev;
  ev.call = Sys::kOpen;
  ev.ret = 3;
  ev.path = "/a/\"quoted\"";
  // FormatEvent does not escape quotes; verify ParseEventLine at least
  // handles escaped input.
  TraceEvent out;
  std::string error;
  ASSERT_TRUE(ParseEventLine("0 1 0 0 open ret=3 path=\"/a/\\\"q\\\"\"", &out, &error))
      << error;
  EXPECT_EQ(out.path, "/a/\"q\"");
}

TEST(TraceIo, CommentsAndBlanksSkipped) {
  std::stringstream ss("# comment\n\n0 1 0 10 close ret=0 fd=3\n");
  Trace t = ReadTrace(ss);
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].call, Sys::kClose);
}

TEST(Trace, ThreadIdsInFirstAppearanceOrder) {
  Trace t;
  for (uint32_t tid : {5u, 3u, 5u, 9u, 3u}) {
    TraceEvent ev;
    ev.tid = tid;
    ev.call = Sys::kClose;
    t.events.push_back(ev);
  }
  EXPECT_EQ(t.ThreadIds(), (std::vector<uint32_t>{5, 3, 9}));
}

TEST(StraceParser, OpenLine) {
  TraceEvent ev;
  std::string error;
  ASSERT_TRUE(ParseStraceLine(
      "1234 1700000000.123456 open(\"/a/b\", O_RDONLY) = 3 <0.000012>", &ev, &error))
      << error;
  EXPECT_EQ(ev.tid, 1234u);
  EXPECT_EQ(ev.call, Sys::kOpen);
  EXPECT_EQ(ev.path, "/a/b");
  EXPECT_EQ(ev.flags & kOpenRead, kOpenRead);
  EXPECT_EQ(ev.ret, 3);
  EXPECT_EQ(ev.fd, 3);
  EXPECT_EQ(ev.Duration(), 12000);
}

TEST(StraceParser, OpenAtNormalizedToOpen) {
  TraceEvent ev;
  std::string error;
  ASSERT_TRUE(ParseStraceLine(
      "7 1700000000.5 openat(AT_FDCWD, \"/x\", O_WRONLY|O_CREAT|O_EXCL, 0600) = 4",
      &ev, &error))
      << error;
  EXPECT_EQ(ev.call, Sys::kOpen);
  EXPECT_EQ(ev.path, "/x");
  EXPECT_TRUE(ev.flags & kOpenWrite);
  EXPECT_TRUE(ev.flags & kOpenCreate);
  EXPECT_TRUE(ev.flags & kOpenExcl);
  EXPECT_FALSE(ev.flags & kOpenRead);
}

TEST(StraceParser, FailedCallMapsErrno) {
  TraceEvent ev;
  std::string error;
  ASSERT_TRUE(ParseStraceLine(
      "7 1700000000.5 open(\"/missing\", O_RDONLY) = -1 ENOENT (No such file or "
      "directory) <0.000004>",
      &ev, &error))
      << error;
  EXPECT_EQ(ev.ret, -kENOENT);
}

TEST(StraceParser, PreadWithOffset) {
  TraceEvent ev;
  std::string error;
  ASSERT_TRUE(ParseStraceLine(
      "9 1700000001.25 pread64(5, \"\"..., 4096, 16384) = 4096 <0.000100>", &ev, &error))
      << error;
  EXPECT_EQ(ev.call, Sys::kPRead);
  EXPECT_EQ(ev.fd, 5);
  EXPECT_EQ(ev.size, 4096u);
  EXPECT_EQ(ev.offset, 16384);
}

TEST(StraceParser, RenameTwoPaths) {
  TraceEvent ev;
  std::string error;
  ASSERT_TRUE(ParseStraceLine("2 1.5 rename(\"/a/b\", \"/a/c\") = 0", &ev, &error))
      << error;
  EXPECT_EQ(ev.path, "/a/b");
  EXPECT_EQ(ev.path2, "/a/c");
}

TEST(StraceParser, UnfinishedLinesSkipped) {
  TraceEvent ev;
  std::string error;
  EXPECT_FALSE(ParseStraceLine("2 1.5 read(3,  <unfinished ...>", &ev, &error));
  EXPECT_TRUE(error.empty());  // skip, not a parse failure
}

TEST(StraceParser, FullStream) {
  std::stringstream ss;
  ss << "100 1.000001 open(\"/f\", O_RDONLY) = 3 <0.00001>\n"
     << "100 1.000100 read(3, \"data\"..., 4096) = 4096 <0.00020>\n"
     << "101 1.000150 stat(\"/f\", {st_mode=S_IFREG|0644, st_size=4096}) = 0 <0.00002>\n"
     << "100 1.000500 close(3) = 0 <0.00001>\n"
     << "100 1.000600 some_unknown_call(1, 2) = 0 <0.00001>\n";
  StraceParseResult r = ParseStrace(ss);
  EXPECT_EQ(r.trace.events.size(), 4u);
  EXPECT_EQ(r.skipped_lines, 1u);
  EXPECT_EQ(r.trace.events[2].tid, 101u);
  EXPECT_EQ(r.trace.events[2].call, Sys::kStat);
  EXPECT_EQ(r.trace.events[2].path, "/f");
}

TEST(Snapshot, RoundTrip) {
  FsSnapshot snap;
  snap.AddDir("/a");
  snap.AddFile("/a/b", 12345);
  snap.entries.back().xattr_names = {"user.one", "user.two"};
  snap.AddSymlink("/a/link", "/a/b");
  snap.AddSpecial("/dev/random", "random");
  snap.Canonicalize();

  std::stringstream ss;
  WriteSnapshot(snap, ss);
  FsSnapshot back = ReadSnapshot(ss);
  const SnapshotEntry* f = back.Find("/a/b");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->size, 12345u);
  ASSERT_EQ(f->xattr_names.size(), 2u);
  const SnapshotEntry* l = back.Find("/a/link");
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->symlink_target, "/a/b");
  ASSERT_NE(back.Find("/dev"), nullptr);  // parent auto-created
}

TEST(Snapshot, DiagnosesMalformedLines) {
  const struct {
    const char* text;
    size_t line;
    const char* message;
  } kCases[] = {
      {"# header\nD /a\nQ /bad\n", 3, "unknown snapshot entry type 'Q'"},
      {"D /a\nF\n", 2, "has no path"},
      {"L /a/link /target\n", 1, "has no '->'"},
  };
  for (const auto& c : kCases) {
    std::istringstream in(c.text);
    FsSnapshot snap;
    snap.AddDir("/kept");
    ParseDiag diag;
    EXPECT_FALSE(ReadSnapshot(in, &snap, &diag)) << c.text;
    EXPECT_EQ(diag.line, c.line) << c.text;
    EXPECT_NE(diag.message.find(c.message), std::string::npos) << diag.Format();
    // A failed read leaves the caller's snapshot as it was.
    ASSERT_EQ(snap.entries.size(), 1u);
    EXPECT_EQ(snap.entries[0].path, "/kept");
  }
}

TEST(Snapshot, RejectsMalformedFileSizes) {
  // A size that is not text, is missing, or is negative must not become a
  // 0-byte or wrapped file.
  for (const char* line : {"#snapshot F /a/f abc", "#snapshot F /a/g", "#snapshot F /a/h -5"}) {
    std::istringstream in(std::string("#snapshot D /a\n") + line +
                          "\n0 1 1000 2000 close ret=0 fd=3\n");
    TraceBundle bundle;
    ParseDiag diag;
    EXPECT_FALSE(ReadTraceBundle(in, &bundle, &diag)) << line;
    EXPECT_EQ(diag.line, 2u) << line;
    EXPECT_NE(diag.message.find("size"), std::string::npos) << diag.Format();
  }
  FsSnapshot snap;
  std::string error;
  EXPECT_FALSE(ParseSnapshotLine("F /a/h -5", &snap, &error));
  EXPECT_NE(error.find("bad size '-5'"), std::string::npos) << error;
  EXPECT_FALSE(ParseSnapshotLine("F /a/h 18446744073709551616", &snap, &error));
  EXPECT_TRUE(snap.entries.empty());
  ASSERT_TRUE(ParseSnapshotLine("F /a/ok 18446744073709551615 x1,x2", &snap, &error))
      << error;
  ASSERT_EQ(snap.entries.size(), 1u);
  EXPECT_EQ(snap.entries[0].size, 18446744073709551615u);
  EXPECT_EQ(snap.entries[0].xattr_names.size(), 2u);
}

TEST(Snapshot, FileReaderDiagnosesMissingFile) {
  const std::string path = ::testing::TempDir() + "/no_such_snapshot.snap";
  FsSnapshot snap;
  ParseDiag diag;
  EXPECT_FALSE(ReadSnapshotFile(path, &snap, &diag));
  EXPECT_EQ(diag.file, path);
  EXPECT_NE(diag.Format().find(path), std::string::npos) << diag.Format();
}

TEST(Snapshot, CanonicalizeInsertsParentsFirst) {
  FsSnapshot snap;
  snap.AddFile("/deep/nested/dir/file", 1);
  snap.Canonicalize();
  // Parents exist and appear before children.
  size_t deep = SIZE_MAX;
  size_t file = SIZE_MAX;
  for (size_t i = 0; i < snap.entries.size(); ++i) {
    if (snap.entries[i].path == "/deep") {
      deep = i;
    }
    if (snap.entries[i].path == "/deep/nested/dir/file") {
      file = i;
    }
  }
  ASSERT_NE(deep, SIZE_MAX);
  ASSERT_NE(file, SIZE_MAX);
  EXPECT_LT(deep, file);
}

TEST(Snapshot, OverlayMergesAndMaxesSizes) {
  FsSnapshot a;
  a.AddFile("/shared", 100);
  a.AddFile("/only_a", 1);
  FsSnapshot b;
  b.AddFile("/shared", 200);
  b.AddFile("/only_b", 2);
  FsSnapshot m = a.Overlay(b);
  EXPECT_EQ(m.Find("/shared")->size, 200u);
  ASSERT_NE(m.Find("/only_a"), nullptr);
  ASSERT_NE(m.Find("/only_b"), nullptr);
}

}  // namespace
}  // namespace artc::trace
