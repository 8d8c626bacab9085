#include <gtest/gtest.h>

#include "src/fsmodel/resource_model.h"

namespace artc::fsmodel {
namespace {

using trace::Sys;
using trace::Trace;
using trace::TraceEvent;

TraceEvent Ev(uint32_t tid, Sys call, int64_t ret) {
  TraceEvent ev;
  ev.tid = tid;
  ev.call = call;
  ev.ret = ret;
  return ev;
}

struct TraceBuilder {
  Trace t;
  TimeNs now = 0;
  TraceEvent& Add(uint32_t tid, Sys call, int64_t ret) {
    TraceEvent ev = Ev(tid, call, ret);
    ev.index = t.events.size();
    ev.enter = now;
    ev.ret_time = now + 1000;
    now += 2000;
    t.events.push_back(ev);
    return t.events.back();
  }
};

// Finds the distinct resource ids of a given kind touched by event `idx`.
std::vector<uint32_t> TouchedOfKind(const AnnotatedTrace& ann, size_t idx,
                                    ResourceKind kind) {
  std::vector<uint32_t> out;
  for (const Touch& t : ann.TouchesFor(idx)) {
    if (ann.resources[t.resource].kind == kind &&
        std::find(out.begin(), out.end(), t.resource) == out.end()) {
      out.push_back(t.resource);
    }
  }
  return out;
}

bool HasAccess(const AnnotatedTrace& ann, size_t idx, uint32_t resource, Access a) {
  for (const Touch& t : ann.TouchesFor(idx)) {
    if (t.resource == resource && t.access == a) {
      return true;
    }
  }
  return false;
}

TEST(ResourceModel, PaperFigure2Example) {
  // Reconstructs the example trace from Fig. 2 of the paper and checks the
  // derived action series.
  trace::FsSnapshot snap;
  snap.AddDir("/a");
  snap.AddFile("/x/y/z", 4096);
  snap.Canonicalize();

  TraceBuilder b;
  auto& e1 = b.Add(1, Sys::kMkdir, 0);           // [T1] mkdir("/a/b")
  e1.path = "/a/b";
  auto& e2 = b.Add(1, Sys::kOpen, 3);            // [T1] open("/a/b/c", CREATE) = 3
  e2.path = "/a/b/c";
  e2.flags = trace::kOpenWrite | trace::kOpenCreate;
  e2.fd = 3;
  auto& e3 = b.Add(1, Sys::kWrite, 100);         // [T1] write(3)
  e3.fd = 3;
  e3.size = 100;
  auto& e4 = b.Add(1, Sys::kClose, 0);           // [T1] close(3)
  e4.fd = 3;
  auto& e5 = b.Add(1, Sys::kRename, 0);          // [T1] rename("/a/b", "/a/old")
  e5.path = "/a/b";
  e5.path2 = "/a/old";
  auto& e6 = b.Add(2, Sys::kOpen, 3);            // [T2] open("/x/y/z") = 3
  e6.path = "/x/y/z";
  e6.flags = trace::kOpenRead;
  e6.fd = 3;
  auto& e7 = b.Add(2, Sys::kOpen, 4);            // [T2] open("/a/b") = 4
  e7.path = "/a/b";
  e7.flags = trace::kOpenRead;
  e7.ret = -trace::kENOENT;  // in our reconstruction /a/b no longer exists
  e7.fd = -1;

  AnnotatedTrace ann = AnnotateTrace(b.t, snap);
  EXPECT_EQ(ann.warnings, 0u);

  // Threads: events 0-4 on T1, 5-6 on T2.
  uint32_t t1 = ann.ThreadResource(1);
  uint32_t t2 = ann.ThreadResource(2);
  ASSERT_NE(t1, kNoResource);
  ASSERT_NE(t2, kNoResource);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(HasAccess(ann, i, t1, Access::kUse)) << i;
  }
  EXPECT_TRUE(HasAccess(ann, 5, t2, Access::kUse));

  // The open that creates file1 (event 1) creates both a path generation and
  // a file resource and an fd generation.
  auto paths1 = TouchedOfKind(ann, 1, ResourceKind::kPath);
  EXPECT_FALSE(paths1.empty());
  auto fds1 = TouchedOfKind(ann, 1, ResourceKind::kFd);
  ASSERT_EQ(fds1.size(), 1u);
  EXPECT_TRUE(HasAccess(ann, 1, fds1[0], Access::kCreate));

  // write(3) and close(3) touch the same fd generation; close deletes it.
  auto fds2 = TouchedOfKind(ann, 2, ResourceKind::kFd);
  ASSERT_EQ(fds2.size(), 1u);
  EXPECT_EQ(fds2[0], fds1[0]);
  auto fds3 = TouchedOfKind(ann, 3, ResourceKind::kFd);
  ASSERT_EQ(fds3.size(), 1u);
  EXPECT_TRUE(HasAccess(ann, 3, fds3[0], Access::kDelete));

  // T2's open of "/x/y/z" returns fd 3 again: a *different* generation of
  // the same name.
  auto fds6 = TouchedOfKind(ann, 5, ResourceKind::kFd);
  ASSERT_EQ(fds6.size(), 1u);
  EXPECT_NE(fds6[0], fds1[0]);
  EXPECT_EQ(ann.resources[fds6[0]].prev_generation, fds1[0]);

  // The rename closes the generation of path /a/b and /a/b/c.
  bool closed_ab = false;
  for (const Touch& t : ann.TouchesFor(4)) {
    if (ann.resources[t.resource].kind == ResourceKind::kPath &&
        t.access == Access::kDelete) {
      closed_ab = true;
    }
  }
  EXPECT_TRUE(closed_ab);

  // Event 6's open("/a/b") touches a *new* generation of path /a/b.
  auto paths7 = TouchedOfKind(ann, 6, ResourceKind::kPath);
  ASSERT_FALSE(paths7.empty());
  bool has_gen2 = false;
  for (uint32_t r : paths7) {
    if (ann.resources[r].prev_generation != kNoResource) {
      has_gen2 = true;
    }
  }
  EXPECT_TRUE(has_gen2);
}

TEST(ResourceModel, HardLinksShareFileResource) {
  trace::FsSnapshot snap;
  snap.AddFile("/f", 4096);
  snap.Canonicalize();
  TraceBuilder b;
  auto& e0 = b.Add(1, Sys::kLink, 0);
  e0.path = "/f";
  e0.path2 = "/l";
  auto& e1 = b.Add(1, Sys::kStat, 0);
  e1.path = "/f";
  auto& e2 = b.Add(2, Sys::kStat, 0);
  e2.path = "/l";
  AnnotatedTrace ann = AnnotateTrace(b.t, snap);
  auto f1 = TouchedOfKind(ann, 1, ResourceKind::kFile);
  auto f2 = TouchedOfKind(ann, 2, ResourceKind::kFile);
  ASSERT_FALSE(f1.empty());
  ASSERT_FALSE(f2.empty());
  // stat("/f") and stat("/l") must share the target file resource.
  bool shared = false;
  for (uint32_t a : f1) {
    for (uint32_t c : f2) {
      if (a == c) {
        shared = true;
      }
    }
  }
  EXPECT_TRUE(shared);
}

TEST(ResourceModel, SymlinkAccessesTargetFileResource) {
  trace::FsSnapshot snap;
  snap.AddFile("/real", 4096);
  snap.AddSymlink("/alias", "/real");
  snap.Canonicalize();
  TraceBuilder b;
  auto& e0 = b.Add(1, Sys::kStat, 0);
  e0.path = "/real";
  auto& e1 = b.Add(2, Sys::kStat, 0);
  e1.path = "/alias";
  AnnotatedTrace ann = AnnotateTrace(b.t, snap);
  auto f0 = TouchedOfKind(ann, 0, ResourceKind::kFile);
  auto f1 = TouchedOfKind(ann, 1, ResourceKind::kFile);
  bool shared = false;
  for (uint32_t a : f0) {
    for (uint32_t c : f1) {
      if (a == c) {
        shared = true;
      }
    }
  }
  EXPECT_TRUE(shared);  // file_seq must see both stats on one resource
}

TEST(ResourceModel, DirectoryRenameClosesDescendantPathGenerations) {
  trace::FsSnapshot snap;
  snap.AddFile("/dir/sub/file", 64);
  snap.Canonicalize();
  TraceBuilder b;
  auto& e0 = b.Add(1, Sys::kStat, 0);
  e0.path = "/dir/sub/file";  // reference the descendant path
  auto& e1 = b.Add(1, Sys::kRename, 0);
  e1.path = "/dir";
  e1.path2 = "/moved";
  auto& e2 = b.Add(1, Sys::kStat, 0);
  e2.path = "/moved/sub/file";
  AnnotatedTrace ann = AnnotateTrace(b.t, snap);
  // The rename must delete the old generation of /dir/sub/file.
  bool closed = false;
  for (const Touch& t : ann.TouchesFor(1)) {
    const ResourceInfo& r = ann.resources[t.resource];
    if (r.kind == ResourceKind::kPath && t.access == Access::kDelete &&
        r.label.find("/dir/sub/file") != std::string::npos) {
      closed = true;
    }
  }
  EXPECT_TRUE(closed);
  // And the post-rename stat reaches the same file resource as the
  // pre-rename stat.
  auto f0 = TouchedOfKind(ann, 0, ResourceKind::kFile);
  auto f2 = TouchedOfKind(ann, 2, ResourceKind::kFile);
  bool shared = false;
  for (uint32_t a : f0) {
    for (uint32_t c : f2) {
      if (a == c) {
        shared = true;
      }
    }
  }
  EXPECT_TRUE(shared);
}

TEST(ResourceModel, UnboundPathGenerationsChainThroughCreateDelete) {
  trace::FsSnapshot snap;
  snap.AddDir("/d");
  snap.Canonicalize();
  TraceBuilder b;
  auto& e0 = b.Add(1, Sys::kStat, -trace::kENOENT);  // absent gen 1
  e0.path = "/d/f";
  auto& e1 = b.Add(1, Sys::kOpen, 3);                // bound gen 2
  e1.path = "/d/f";
  e1.flags = trace::kOpenWrite | trace::kOpenCreate;
  e1.fd = 3;
  auto& e2 = b.Add(1, Sys::kClose, 0);
  e2.fd = 3;
  auto& e3 = b.Add(1, Sys::kUnlink, 0);              // closes gen 2, absent gen 3
  e3.path = "/d/f";
  auto& e4 = b.Add(1, Sys::kStat, -trace::kENOENT);  // uses absent gen 3
  e4.path = "/d/f";
  AnnotatedTrace ann = AnnotateTrace(b.t, snap);

  auto p0 = TouchedOfKind(ann, 0, ResourceKind::kPath);
  ASSERT_EQ(p0.size(), 1u);
  EXPECT_FALSE(ann.resources[p0[0]].initially_bound);

  auto p1 = TouchedOfKind(ann, 1, ResourceKind::kPath);
  ASSERT_FALSE(p1.empty());
  // The create's new generation chains back to the absent generation.
  bool chained = false;
  for (uint32_t r : p1) {
    if (ann.resources[r].prev_generation == p0[0]) {
      chained = true;
    }
  }
  EXPECT_TRUE(chained);

  auto p4 = TouchedOfKind(ann, 4, ResourceKind::kPath);
  ASSERT_EQ(p4.size(), 1u);
  EXPECT_NE(p4[0], p0[0]);  // a different absent generation
}

TEST(ResourceModel, AioLifecycle) {
  trace::FsSnapshot snap;
  snap.AddFile("/f", 1 << 20);
  snap.Canonicalize();
  TraceBuilder b;
  auto& e0 = b.Add(1, Sys::kOpen, 3);
  e0.path = "/f";
  e0.flags = trace::kOpenRead;
  e0.fd = 3;
  auto& e1 = b.Add(1, Sys::kAioRead, 0);
  e1.fd = 3;
  e1.aio_id = 77;
  e1.size = 4096;
  e1.offset = 0;
  auto& e2 = b.Add(1, Sys::kAioError, 0);
  e2.aio_id = 77;
  auto& e3 = b.Add(1, Sys::kAioReturn, 4096);
  e3.aio_id = 77;
  AnnotatedTrace ann = AnnotateTrace(b.t, snap);
  auto a1 = TouchedOfKind(ann, 1, ResourceKind::kAiocb);
  ASSERT_EQ(a1.size(), 1u);
  EXPECT_TRUE(HasAccess(ann, 1, a1[0], Access::kCreate));
  EXPECT_TRUE(HasAccess(ann, 2, a1[0], Access::kUse));
  EXPECT_TRUE(HasAccess(ann, 3, a1[0], Access::kDelete));
}

TEST(ResourceModel, AnomalousExclCreateWarnsAndRebinds) {
  trace::FsSnapshot snap;
  snap.AddFile("/f", 64);
  snap.Canonicalize();
  TraceBuilder b;
  auto& e0 = b.Add(1, Sys::kOpen, 3);  // O_EXCL create "succeeds" over /f
  e0.path = "/f";
  e0.flags = trace::kOpenWrite | trace::kOpenCreate | trace::kOpenExcl;
  e0.fd = 3;
  AnnotatedTrace ann = AnnotateTrace(b.t, snap);
  EXPECT_GE(ann.warnings, 1u);
  auto fds = TouchedOfKind(ann, 0, ResourceKind::kFd);
  EXPECT_EQ(fds.size(), 1u);  // the open still yields an fd generation
}

}  // namespace
}  // namespace artc::fsmodel
