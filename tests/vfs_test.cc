#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "src/sim/simulation.h"
#include "src/storage/storage_stack.h"
#include "src/trace/event.h"
#include "src/vfs/vfs.h"

namespace artc::vfs {
namespace {

using trace::kEBADF;
using trace::kEEXIST;
using trace::kEINVAL;
using trace::kEISDIR;
using trace::kENODATA;
using trace::kENOENT;
using trace::kENOTDIR;
using trace::kENOTEMPTY;
using trace::kOpenAppend;
using trace::kOpenCreate;
using trace::kOpenExcl;
using trace::kOpenRead;
using trace::kOpenTrunc;
using trace::kOpenWrite;

// Runs `body` inside a simulated thread against a fresh VFS and returns
// after the simulation drains.
class VfsTest : public ::testing::Test {
 protected:
  void RunInSim(std::function<void(Vfs&)> body, const std::string& fs = "ext4",
                const std::string& storage = "ssd") {
    sim::Simulation sim(1);
    storage::StorageStack stack(&sim, storage::MakeNamedConfig(storage));
    Vfs vfs(&sim, &stack, MakeFsProfile(fs));
    sim.Spawn("test", [&] { body(vfs); });
    sim.Run();
    ASSERT_EQ(sim.UnfinishedThreads(), 0u);
  }
};

TEST(FsProfiles, EveryNameIsFoundAndUnknownIsNot) {
  for (const char* name : kFsProfileNames) {
    ASSERT_TRUE(FindFsProfile(name).has_value()) << name;
    EXPECT_EQ(FindFsProfile(name)->name, name);
  }
  EXPECT_FALSE(FindFsProfile("ntfs").has_value());
}

TEST_F(VfsTest, CreateWriteReadRoundTrip) {
  RunInSim([](Vfs& vfs) {
    vfs.MustMkdirAll("/data");
    VfsResult open = vfs.Open("/data/f", kOpenWrite | kOpenCreate, 0644);
    ASSERT_TRUE(open.ok());
    int32_t fd = static_cast<int32_t>(open.value);
    EXPECT_GE(fd, 3);
    EXPECT_EQ(vfs.Write(fd, 8192).value, 8192);
    EXPECT_TRUE(vfs.Close(fd).ok());
    EXPECT_EQ(vfs.FileSize("/data/f"), 8192u);

    VfsResult ro = vfs.Open("/data/f", kOpenRead);
    ASSERT_TRUE(ro.ok());
    fd = static_cast<int32_t>(ro.value);
    EXPECT_EQ(vfs.Read(fd, 4096).value, 4096);
    EXPECT_EQ(vfs.Read(fd, 8192).value, 4096);  // clamped at EOF
    EXPECT_EQ(vfs.Read(fd, 10).value, 0);       // EOF
    EXPECT_TRUE(vfs.Close(fd).ok());
  });
}

TEST_F(VfsTest, OpenErrnoSemantics) {
  RunInSim([](Vfs& vfs) {
    EXPECT_EQ(vfs.Open("/missing", kOpenRead).err, kENOENT);
    EXPECT_EQ(vfs.Open("/missing/deeper", kOpenWrite | kOpenCreate).err, kENOENT);
    vfs.MustCreateFile("/f", 0);
    EXPECT_EQ(vfs.Open("/f", kOpenWrite | kOpenCreate | kOpenExcl).err, kEEXIST);
    vfs.MustMkdirAll("/d");
    EXPECT_EQ(vfs.Open("/d", kOpenWrite).err, kEISDIR);
    EXPECT_EQ(vfs.Open("/f/x", kOpenRead).err, kENOTDIR);
  });
}

TEST_F(VfsTest, LowestFreeFdAllocation) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/a", 0);
    vfs.MustCreateFile("/b", 0);
    int32_t fd1 = static_cast<int32_t>(vfs.Open("/a", kOpenRead).value);
    int32_t fd2 = static_cast<int32_t>(vfs.Open("/b", kOpenRead).value);
    EXPECT_EQ(fd1, 3);
    EXPECT_EQ(fd2, 4);
    vfs.Close(fd1);
    int32_t fd3 = static_cast<int32_t>(vfs.Open("/b", kOpenRead).value);
    EXPECT_EQ(fd3, 3);  // reuses the lowest free slot
  });
}

TEST_F(VfsTest, ReadBadFdAndWrongMode) {
  RunInSim([](Vfs& vfs) {
    EXPECT_EQ(vfs.Read(42, 10).err, kEBADF);
    vfs.MustCreateFile("/f", 4096);
    int32_t fd = static_cast<int32_t>(vfs.Open("/f", kOpenWrite).value);
    EXPECT_EQ(vfs.Read(fd, 10).err, kEBADF);  // not open for reading
    EXPECT_EQ(vfs.Pwrite(fd, 10, -1).err, kEINVAL);
    vfs.Close(fd);
    EXPECT_EQ(vfs.Write(fd, 10).err, kEBADF);  // closed
  });
}

TEST_F(VfsTest, AppendModeWritesAtEnd) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/log", 4096);
    int32_t fd = static_cast<int32_t>(vfs.Open("/log", kOpenWrite | kOpenAppend).value);
    vfs.Write(fd, 100);
    EXPECT_EQ(vfs.FileSize("/log"), 4196u);
    vfs.Close(fd);
  });
}

TEST_F(VfsTest, TruncateOnOpen) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 1 << 20);
    int32_t fd =
        static_cast<int32_t>(vfs.Open("/f", kOpenWrite | kOpenTrunc).value);
    EXPECT_EQ(vfs.FileSize("/f"), 0u);
    vfs.Close(fd);
  });
}

TEST_F(VfsTest, LseekWhence) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 1000);
    int32_t fd = static_cast<int32_t>(vfs.Open("/f", kOpenRead).value);
    EXPECT_EQ(vfs.Lseek(fd, 100, 0).value, 100);
    EXPECT_EQ(vfs.Lseek(fd, 50, 1).value, 150);
    EXPECT_EQ(vfs.Lseek(fd, -100, 2).value, 900);
    EXPECT_EQ(vfs.Lseek(fd, -5000, 0).err, kEINVAL);
    EXPECT_EQ(vfs.Lseek(fd, 0, 9).err, kEINVAL);
    vfs.Close(fd);
  });
}

TEST_F(VfsTest, MkdirRmdirSemantics) {
  RunInSim([](Vfs& vfs) {
    EXPECT_TRUE(vfs.Mkdir("/d").ok());
    EXPECT_EQ(vfs.Mkdir("/d").err, kEEXIST);
    EXPECT_TRUE(vfs.Mkdir("/d/sub").ok());
    EXPECT_EQ(vfs.Rmdir("/d").err, kENOTEMPTY);
    EXPECT_TRUE(vfs.Rmdir("/d/sub").ok());
    EXPECT_TRUE(vfs.Rmdir("/d").ok());
    EXPECT_EQ(vfs.Rmdir("/d").err, kENOENT);
  });
}

TEST_F(VfsTest, UnlinkSemantics) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 100);
    vfs.MustMkdirAll("/d");
    EXPECT_EQ(vfs.Unlink("/d").err, kEISDIR);
    EXPECT_TRUE(vfs.Unlink("/f").ok());
    EXPECT_EQ(vfs.Unlink("/f").err, kENOENT);
    EXPECT_FALSE(vfs.Exists("/f"));
  });
}

TEST_F(VfsTest, OrphanedOpenFileSurvivesUnlink) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 8192);
    int32_t fd = static_cast<int32_t>(vfs.Open("/f", kOpenRead).value);
    EXPECT_TRUE(vfs.Unlink("/f").ok());
    EXPECT_FALSE(vfs.Exists("/f"));
    EXPECT_EQ(vfs.Read(fd, 4096).value, 4096);  // still readable
    EXPECT_TRUE(vfs.Close(fd).ok());
  });
}

TEST_F(VfsTest, RenameBasicAndReplace) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/a", 100);
    vfs.MustCreateFile("/b", 200);
    EXPECT_TRUE(vfs.Rename("/a", "/c").ok());
    EXPECT_FALSE(vfs.Exists("/a"));
    EXPECT_EQ(vfs.FileSize("/c"), 100u);
    EXPECT_TRUE(vfs.Rename("/c", "/b").ok());  // replaces /b
    EXPECT_EQ(vfs.FileSize("/b"), 100u);
    EXPECT_EQ(vfs.Rename("/missing", "/x").err, kENOENT);
  });
}

TEST_F(VfsTest, RenameDirectoryMovesSubtree) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/old/sub/file", 64);
    EXPECT_TRUE(vfs.Rename("/old", "/new").ok());
    EXPECT_TRUE(vfs.Exists("/new/sub/file"));
    EXPECT_FALSE(vfs.Exists("/old/sub/file"));
  });
}

TEST_F(VfsTest, RenameTypeMismatch) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 1);
    vfs.MustMkdirAll("/d");
    EXPECT_EQ(vfs.Rename("/f", "/d").err, kEISDIR);
    EXPECT_EQ(vfs.Rename("/d", "/f").err, kENOTDIR);
    vfs.MustCreateFile("/d2/x", 1);
    EXPECT_EQ(vfs.Rename("/d", "/d2").err, kENOTEMPTY);
  });
}

TEST_F(VfsTest, HardLinksShareFile) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 4096);
    EXPECT_TRUE(vfs.Link("/f", "/l").ok());
    EXPECT_EQ(vfs.Link("/f", "/l").err, kEEXIST);
    EXPECT_TRUE(vfs.Unlink("/f").ok());
    EXPECT_TRUE(vfs.Exists("/l"));  // other link keeps the file alive
    EXPECT_EQ(vfs.FileSize("/l"), 4096u);
  });
}

TEST_F(VfsTest, SymlinkResolution) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/target", 512);
    EXPECT_TRUE(vfs.Symlink("/target", "/link").ok());
    EXPECT_EQ(vfs.Stat("/link").value, 512);         // follows
    EXPECT_EQ(vfs.Lstat("/link").value, 7);          // link itself (strlen)
    VfsResult rl = vfs.Readlink("/link");
    EXPECT_EQ(rl.value, 7);
    EXPECT_EQ(vfs.Readlink("/target").err, kEINVAL);
    int32_t fd = static_cast<int32_t>(vfs.Open("/link", kOpenRead).value);
    EXPECT_GE(fd, 3);
    vfs.Close(fd);
  });
}

TEST_F(VfsTest, SymlinkThroughDirectories) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/real/dir/file", 64);
    vfs.MustCreateSymlink("/alias", "/real/dir");
    EXPECT_TRUE(vfs.Exists("/alias/file"));
    EXPECT_EQ(vfs.Stat("/alias/file").value, 64);
  });
}

TEST_F(VfsTest, SymlinkLoopDetected) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateSymlink("/x", "/y");
    vfs.MustCreateSymlink("/y", "/x");
    EXPECT_EQ(vfs.Stat("/x").err, trace::kELOOP);
  });
}

TEST_F(VfsTest, DanglingSymlinkEnoent) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateSymlink("/dangling", "/nowhere");
    EXPECT_EQ(vfs.Stat("/dangling").err, kENOENT);
    EXPECT_TRUE(vfs.Lstat("/dangling").ok());
  });
}

TEST_F(VfsTest, XattrLifecycle) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 1);
    EXPECT_EQ(vfs.GetXattr("/f", "user.k").err, kENODATA);
    EXPECT_TRUE(vfs.SetXattr("/f", "user.k", 32).ok());
    EXPECT_EQ(vfs.GetXattr("/f", "user.k").value, 32);
    EXPECT_GT(vfs.ListXattr("/f").value, 0);
    EXPECT_TRUE(vfs.RemoveXattr("/f", "user.k").ok());
    EXPECT_EQ(vfs.RemoveXattr("/f", "user.k").err, kENODATA);
  });
}

TEST_F(VfsTest, DupSharesOffset) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 8192);
    int32_t fd = static_cast<int32_t>(vfs.Open("/f", kOpenRead).value);
    int32_t dup = static_cast<int32_t>(vfs.Dup(fd).value);
    EXPECT_NE(fd, dup);
    vfs.Read(fd, 4096);
    EXPECT_EQ(vfs.Lseek(dup, 0, 1).value, 4096);  // shared offset
    vfs.Close(fd);
    EXPECT_EQ(vfs.Read(dup, 100).value, 100);  // description still open
    vfs.Close(dup);
  });
}

TEST_F(VfsTest, Dup2ClosesTarget) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/a", 10);
    vfs.MustCreateFile("/b", 10);
    int32_t fa = static_cast<int32_t>(vfs.Open("/a", kOpenRead).value);
    int32_t fb = static_cast<int32_t>(vfs.Open("/b", kOpenRead).value);
    EXPECT_EQ(vfs.Dup2(fa, fb).value, fb);
    EXPECT_EQ(vfs.Lseek(fb, 0, 2).value, 10);  // fb now refers to /a's OFD
    vfs.Close(fa);
    vfs.Close(fb);
  });
}

TEST_F(VfsTest, GetDirEntries) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/d/a", 1);
    vfs.MustCreateFile("/d/b", 1);
    vfs.MustCreateFile("/d/c", 1);
    int32_t fd = static_cast<int32_t>(vfs.Open("/d", kOpenRead).value);
    EXPECT_EQ(vfs.GetDirEntries(fd, 4096).value, 3);
    EXPECT_EQ(vfs.GetDirEntries(fd, 4096).value, 0);  // EOF
    vfs.Close(fd);
  });
}

TEST_F(VfsTest, FsyncWritesJournalAndData) {
  RunInSim([](Vfs& vfs) {
    vfs.MustMkdirAll("/d");
    int32_t fd =
        static_cast<int32_t>(vfs.Open("/d/f", kOpenWrite | kOpenCreate).value);
    vfs.Write(fd, 64 * 1024);
    uint64_t before = vfs.stack().MediaWriteBlocks();
    EXPECT_TRUE(vfs.Fsync(fd).ok());
    EXPECT_GT(vfs.stack().MediaWriteBlocks(), before + 15);  // 16 data blocks+journal
    EXPECT_GT(vfs.JournalCommitBlocks(), 0u);
    vfs.Close(fd);
  });
}

TEST_F(VfsTest, Ext3FsyncFlushesForeignDirtyData) {
  // ext3 ordered mode: fsync of one file also flushes other files' dirty
  // pages; ext4 does not.
  auto dirty_after_fsync = [this](const std::string& fs) {
    uint64_t result = 0;
    RunInSim(
        [&result](Vfs& vfs) {
          vfs.MustCreateFile("/other", 0);
          vfs.MustCreateFile("/mine", 0);
          int32_t other =
              static_cast<int32_t>(vfs.Open("/other", kOpenWrite).value);
          int32_t mine = static_cast<int32_t>(vfs.Open("/mine", kOpenWrite).value);
          vfs.Write(other, 256 * 1024);
          vfs.Write(mine, 4096);
          vfs.Fsync(mine);
          result = vfs.stack().cache().DirtyCount();
          vfs.Close(other);
          vfs.Close(mine);
        },
        fs);
    return result;
  };
  EXPECT_EQ(dirty_after_fsync("ext3"), 0u);
  EXPECT_GT(dirty_after_fsync("ext4"), 0u);
}

TEST_F(VfsTest, SyncWritebackCountsEachBlockOnce) {
  // sync, and fsync under ext3, write back every dirty block in the cache;
  // each block written back counts once in the cache's writeback counter.
  for (const bool fsync : {false, true}) {
    RunInSim(
        [fsync](Vfs& vfs) {
          vfs.MustCreateFile("/a", 0);
          vfs.MustCreateFile("/b", 0);
          int32_t a = static_cast<int32_t>(vfs.Open("/a", kOpenWrite).value);
          int32_t b = static_cast<int32_t>(vfs.Open("/b", kOpenWrite).value);
          vfs.Write(a, 10 * 4096);
          vfs.Write(b, 8 * 4096);
          storage::PageCache& cache = vfs.stack().cache();
          const uint64_t dirty = cache.DirtyCount();
          const uint64_t writeback = cache.WritebackBlocks();
          ASSERT_GE(dirty, 18u);
          if (fsync) {
            vfs.Fsync(a);
          } else {
            vfs.SyncAll();
          }
          EXPECT_EQ(cache.DirtyCount(), 0u);
          EXPECT_EQ(cache.WritebackBlocks() - writeback, dirty) << "fsync=" << fsync;
          vfs.Close(a);
          vfs.Close(b);
        },
        "ext3");
  }
}

TEST_F(VfsTest, ExchangeDataSwapsContents) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/a", 100);
    vfs.MustCreateFile("/b", 9999);
    EXPECT_TRUE(vfs.ExchangeData("/a", "/b").ok());
    EXPECT_EQ(vfs.FileSize("/a"), 9999u);
    EXPECT_EQ(vfs.FileSize("/b"), 100u);
    EXPECT_EQ(vfs.ExchangeData("/a", "/missing").err, kENOENT);
  });
}

TEST_F(VfsTest, SpecialFileLatencies) {
  // /dev/random is slow on the Linux platform profile, fast on OS X.
  auto read_latency = [](const std::string& platform) {
    sim::Simulation sim(1);
    storage::StorageStack stack(&sim, storage::MakeNamedConfig("ssd"));
    Vfs vfs(&sim, &stack, MakeFsProfile("ext4"), MakePlatformProfile(platform));
    TimeNs elapsed = 0;
    sim.Spawn("t", [&] {
      vfs.MustCreateSpecial("/dev/random", "random");
      int32_t fd = static_cast<int32_t>(vfs.Open("/dev/random", kOpenRead).value);
      TimeNs t0 = sim.Now();
      vfs.Read(fd, 64);
      elapsed = sim.Now() - t0;
      vfs.Close(fd);
    });
    sim.Run();
    return elapsed;
  };
  EXPECT_GT(read_latency("linux"), Ms(10));
  EXPECT_LT(read_latency("osx"), Ms(1));
}

TEST_F(VfsTest, TracingRecordsEvents) {
  RunInSim([](Vfs& vfs) {
    vfs.MustCreateFile("/f", 8192);
    trace::Trace t;
    TraceRecorder rec(&t);
    vfs.StartTracing(&rec);
    int32_t fd = static_cast<int32_t>(vfs.Open("/f", kOpenRead).value);
    vfs.Read(fd, 4096);
    vfs.Close(fd);
    vfs.Open("/nope", kOpenRead);
    vfs.StopTracing();
    ASSERT_EQ(t.events.size(), 4u);
    EXPECT_EQ(t.events[0].call, trace::Sys::kOpen);
    EXPECT_EQ(t.events[0].ret, fd);
    EXPECT_EQ(t.events[1].call, trace::Sys::kRead);
    EXPECT_EQ(t.events[1].ret, 4096);
    EXPECT_EQ(t.events[3].ret, -kENOENT);
    EXPECT_LE(t.events[0].enter, t.events[0].ret_time);
    EXPECT_LE(t.events[0].ret_time, t.events[1].enter);
  });
}

TEST_F(VfsTest, SnapshotCaptureRestoreRoundTrip) {
  sim::Simulation sim(1);
  storage::StorageStack stack(&sim, storage::MakeNamedConfig("ssd"));
  Vfs src(&sim, &stack, MakeFsProfile("ext4"));
  src.MustCreateFile("/app/data/file1", 12345);
  src.MustCreateFile("/app/data/file2", 777);
  src.MustSetXattr("/app/data/file1", "user.tag", 8);
  src.MustCreateSymlink("/app/link", "/app/data/file1");
  src.MustCreateSpecial("/dev/urandom", "urandom");
  trace::FsSnapshot snap = src.CaptureSnapshot();

  storage::StorageStack stack2(&sim, storage::MakeNamedConfig("hdd"));
  Vfs dst(&sim, &stack2, MakeFsProfile("xfs"));
  dst.RestoreSnapshot(snap);
  EXPECT_EQ(dst.FileSize("/app/data/file1"), 12345u);
  EXPECT_EQ(dst.FileSize("/app/data/file2"), 777u);
  EXPECT_TRUE(dst.Exists("/app/link"));
  sim.Spawn("t", [&] {
    EXPECT_EQ(dst.GetXattr("/app/data/file1", "user.tag").value, 16);
    EXPECT_EQ(dst.Stat("/app/link").value, 12345);
  });
  sim.Run();
}

TEST_F(VfsTest, DeltaInitOnlyTouchesDifferences) {
  sim::Simulation sim(1);
  storage::StorageStack stack(&sim, storage::MakeNamedConfig("ssd"));
  Vfs vfs(&sim, &stack, MakeFsProfile("ext4"));
  vfs.MustCreateFile("/keep", 100);
  vfs.MustCreateFile("/resize", 100);
  vfs.MustCreateFile("/remove", 100);
  trace::FsSnapshot snap;
  snap.AddFile("/keep", 100);
  snap.AddFile("/resize", 999);
  snap.AddFile("/add", 50);
  snap.Canonicalize();
  vfs.RestoreSnapshot(snap, /*delta=*/true);
  EXPECT_EQ(vfs.FileSize("/keep"), 100u);
  EXPECT_EQ(vfs.FileSize("/resize"), 999u);
  EXPECT_EQ(vfs.FileSize("/add"), 50u);
  EXPECT_FALSE(vfs.Exists("/remove"));
}

TEST_F(VfsTest, SequentialReadFasterThanRandomOnHdd) {
  auto elapsed = [](bool sequential) {
    sim::Simulation sim(3);
    storage::StorageStack stack(&sim, storage::MakeNamedConfig("hdd"));
    Vfs vfs(&sim, &stack, MakeFsProfile("ext4"));
    TimeNs t = 0;
    sim.Spawn("reader", [&] {
      vfs.MustCreateFile("/big", 64ULL << 20);  // 64 MB
      int32_t fd = static_cast<int32_t>(vfs.Open("/big", kOpenRead).value);
      Rng rng(7);
      TimeNs t0 = sim.Now();
      for (int i = 0; i < 200; ++i) {
        int64_t off = sequential ? i * 4096
                                 : static_cast<int64_t>(rng.NextBelow(16000)) * 4096;
        vfs.Pread(fd, 4096, off);
      }
      t = sim.Now() - t0;
      vfs.Close(fd);
    });
    sim.Run();
    return t;
  };
  EXPECT_LT(elapsed(true) * 5, elapsed(false));
}

TEST_F(VfsTest, FsProfilesDiffer) {
  for (const char* name : {"ext4", "ext3", "jfs", "xfs"}) {
    FsProfile p = MakeFsProfile(name);
    EXPECT_EQ(p.name, name);
  }
  EXPECT_TRUE(MakeFsProfile("ext3").fsync_flushes_all_dirty);
  EXPECT_FALSE(MakeFsProfile("ext4").fsync_flushes_all_dirty);
  EXPECT_GT(MakeFsProfile("xfs").alloc_chunk_blocks,
            MakeFsProfile("ext3").alloc_chunk_blocks);
}

// Namespace operations resolve a path, then read the parent directory's
// blocks, which can wait on the device, then change the tree. A concurrent
// operation that lands inside that wait must not leave the first one
// writing through a stale inode pointer. Each test forces the interleaving
// on an HDD (reads of cold blocks take milliseconds, cached ones
// microseconds) and checks the Linux result.
class VfsRaceTest : public ::testing::Test {
 protected:
  VfsRaceTest()
      : stack_(&sim_, storage::MakeNamedConfig("hdd")),
        profile_(MakeFsProfile("ext4")),
        vfs_(&sim_, &stack_, profile_) {}

  // Runs `first` and `second` as two simulated threads. `second` starts
  // once `first` has set up and called go(), plus `delay`.
  void Race(std::function<void(std::function<void()> go)> first, TimeNs delay,
            std::function<void()> second) {
    sim::SimCondVar cv(&sim_);
    bool started = false;
    sim_.Spawn("first", [&] {
      first([&] {
        started = true;
        cv.NotifyAll();
      });
    });
    sim_.Spawn("second", [&] {
      while (!started) {
        cv.Wait();
      }
      sim_.Sleep(delay);
      second();
    });
    sim_.Run();
    ASSERT_EQ(sim_.UnfinishedThreads(), 0u);
  }

  sim::Simulation sim_{1};
  storage::StorageStack stack_;
  FsProfile profile_;
  Vfs vfs_;
};

TEST_F(VfsRaceTest, RmdirDuringMkdirParentReadGivesEnoent) {
  vfs_.MustMkdirAll("/d");
  VfsResult mkdir_result;
  VfsResult rmdir_result;
  TimeNs mkdir_done = 0;
  TimeNs rmdir_done = 0;
  Race(
      [&](std::function<void()> go) {
        // Caches the root's blocks, so the rmdir never waits on the device.
        ASSERT_TRUE(vfs_.Mkdir("/warm").ok());
        go();
        mkdir_result = vfs_.Mkdir("/d/sub");  // waits on /d's cold blocks
        mkdir_done = sim_.Now();
      },
      // Past mkdir's timed resolve of two components.
      profile_.meta_cpu + 2 * profile_.lookup_cpu + Us(1),
      [&] {
        rmdir_result = vfs_.Rmdir("/d");
        rmdir_done = sim_.Now();
      });
  EXPECT_TRUE(rmdir_result.ok());
  EXPECT_LT(rmdir_done, mkdir_done) << "rmdir did not land inside mkdir's read";
  EXPECT_EQ(mkdir_result.err, kENOENT);
  EXPECT_FALSE(vfs_.Exists("/d"));
}

TEST_F(VfsRaceTest, MkdirDuringRmdirParentReadGivesEnotempty) {
  vfs_.MustMkdirAll("/d");
  VfsResult mkdir_result;
  VfsResult rmdir_result;
  TimeNs mkdir_done = 0;
  TimeNs rmdir_done = 0;
  Race(
      [&](std::function<void()> go) {
        // Caches /d's blocks but not the root's.
        ASSERT_TRUE(vfs_.Mkdir("/d/warm").ok());
        ASSERT_TRUE(vfs_.Rmdir("/d/warm").ok());
        go();
        rmdir_result = vfs_.Rmdir("/d");  // waits on the root's cold blocks
        rmdir_done = sim_.Now();
      },
      // Past rmdir's timed resolve and its emptiness check.
      profile_.meta_cpu + profile_.lookup_cpu + Us(1),
      [&] {
        mkdir_result = vfs_.Mkdir("/d/sub");
        mkdir_done = sim_.Now();
      });
  EXPECT_TRUE(mkdir_result.ok());
  EXPECT_LT(mkdir_done, rmdir_done) << "mkdir did not land inside rmdir's read";
  EXPECT_EQ(rmdir_result.err, kENOTEMPTY);
  EXPECT_TRUE(vfs_.Exists("/d/sub"));
}

TEST_F(VfsRaceTest, SecondUnlinkOfOneNameGivesEnoent) {
  vfs_.MustCreateFile("/f", 4096);
  VfsResult first_result;
  VfsResult second_result;
  Race(
      [&](std::function<void()> go) {
        go();
        first_result = vfs_.Unlink("/f");  // waits on the root's cold blocks
      },
      // Past the first unlink's timed resolve: both resolve /f, then both
      // wait for the root's blocks.
      profile_.meta_cpu + profile_.lookup_cpu + Us(1),
      [&] { second_result = vfs_.Unlink("/f"); });
  EXPECT_TRUE(first_result.ok());
  EXPECT_EQ(second_result.err, kENOENT);
  EXPECT_FALSE(vfs_.Exists("/f"));
}

TEST_F(VfsRaceTest, RmdirDuringTimedResolveGivesEnoent) {
  // Slow lookups give the rmdir room to land inside the stat's sleep in /d.
  FsProfile slow = profile_;
  slow.lookup_cpu = Us(20);
  Vfs fs(&sim_, &stack_, slow);
  fs.MustMkdirAll("/d");
  VfsResult stat_result;
  VfsResult rmdir_result;
  TimeNs in_d = 0;  // when the stat starts its sleep in /d
  TimeNs stat_done = 0;
  TimeNs rmdir_done = 0;
  Race(
      [&](std::function<void()> go) {
        // Caches the root's blocks, so the rmdir never waits on the device.
        ASSERT_TRUE(fs.Mkdir("/warm").ok());
        go();
        in_d = sim_.Now() + slow.meta_cpu + slow.lookup_cpu;
        stat_result = fs.Stat("/d/x");
        stat_done = sim_.Now();
      },
      // The rmdir's resolve of /d ends a quarter into the stat's sleep in /d.
      slow.lookup_cpu / 4,
      [&] {
        rmdir_result = fs.Rmdir("/d");
        rmdir_done = sim_.Now();
      });
  EXPECT_TRUE(rmdir_result.ok());
  EXPECT_GT(rmdir_done, in_d) << "rmdir finished before the stat walked into /d";
  EXPECT_LT(rmdir_done, stat_done) << "rmdir did not land inside the stat's sleep in /d";
  EXPECT_EQ(stat_result.err, kENOENT);
  EXPECT_FALSE(fs.Exists("/d"));
}

}  // namespace
}  // namespace artc::vfs
