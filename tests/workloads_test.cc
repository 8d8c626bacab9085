#include <gtest/gtest.h>

#include <set>

#include "src/workloads/magritte.h"
#include "src/workloads/micro.h"
#include "src/workloads/minikv.h"
#include "src/workloads/workload.h"

namespace artc::workloads {
namespace {

SourceConfig SsdSource(uint64_t seed = 1) {
  SourceConfig cfg;
  cfg.storage = storage::MakeNamedConfig("ssd");
  cfg.seed = seed;
  return cfg;
}

TEST(WorkloadHarness, TraceIsSortedByEnterTime) {
  RandomReaders::Options opt;
  opt.threads = 4;
  opt.reads_per_thread = 50;
  opt.file_bytes = 16ULL << 20;
  RandomReaders w(opt);
  TracedRun run = TraceWorkload(w, SsdSource());
  ASSERT_FALSE(run.trace.events.empty());
  for (size_t i = 1; i < run.trace.events.size(); ++i) {
    EXPECT_LE(run.trace.events[i - 1].enter, run.trace.events[i].enter);
    EXPECT_EQ(run.trace.events[i].index, i);
  }
}

TEST(WorkloadHarness, PerThreadEventsAreSequential) {
  RandomReaders::Options opt;
  opt.threads = 4;
  opt.reads_per_thread = 50;
  opt.file_bytes = 16ULL << 20;
  RandomReaders w(opt);
  TracedRun run = TraceWorkload(w, SsdSource());
  // Within one thread, calls never overlap (syscalls are synchronous).
  std::map<uint32_t, TimeNs> last_ret;
  for (const trace::TraceEvent& ev : run.trace.events) {
    auto it = last_ret.find(ev.tid);
    if (it != last_ret.end()) {
      EXPECT_GE(ev.enter, it->second) << "tid " << ev.tid;
    }
    last_ret[ev.tid] = ev.ret_time;
  }
}

TEST(WorkloadHarness, DeterministicForFixedSeed) {
  RandomReaders::Options opt;
  opt.threads = 2;
  opt.reads_per_thread = 30;
  opt.file_bytes = 16ULL << 20;
  RandomReaders w1(opt);
  RandomReaders w2(opt);
  TracedRun a = TraceWorkload(w1, SsdSource(7));
  TracedRun b = TraceWorkload(w2, SsdSource(7));
  ASSERT_EQ(a.trace.events.size(), b.trace.events.size());
  EXPECT_EQ(a.elapsed, b.elapsed);
  for (size_t i = 0; i < a.trace.events.size(); ++i) {
    EXPECT_EQ(a.trace.events[i].enter, b.trace.events[i].enter) << i;
    EXPECT_EQ(a.trace.events[i].call, b.trace.events[i].call) << i;
  }
}

TEST(WorkloadHarness, SnapshotCoversTraceInputs) {
  RandomReaders::Options opt;
  opt.threads = 2;
  opt.reads_per_thread = 10;
  opt.file_bytes = 8ULL << 20;
  RandomReaders w(opt);
  TracedRun run = TraceWorkload(w, SsdSource());
  for (const trace::TraceEvent& ev : run.trace.events) {
    if (ev.call == trace::Sys::kOpen && ev.ret >= 0) {
      EXPECT_NE(run.snapshot.Find(ev.path.str()), nullptr) << ev.path;
    }
  }
}

TEST(MiniKv, PutGetRoundTrip) {
  sim::Simulation sim(1);
  storage::StorageStack stack(&sim, storage::MakeNamedConfig("ssd"));
  vfs::Vfs fs(&sim, &stack, vfs::MakeFsProfile("ext4"));
  bool found_after_put = false;
  sim.Spawn("main", [&] {
    AppContext ctx{&sim, &fs};
    MiniKv::Options opt;
    MiniKv kv(&ctx, opt);
    kv.Open();
    kv.Put(42);
    found_after_put = kv.Get(42);
    kv.Close();
  });
  sim.Run();
  EXPECT_TRUE(found_after_put);
  EXPECT_EQ(sim.UnfinishedThreads(), 0u);
}

TEST(MiniKv, ConcurrentWritersAllApplied) {
  sim::Simulation sim(3);
  storage::StorageStack stack(&sim, storage::MakeNamedConfig("ssd"));
  vfs::Vfs fs(&sim, &stack, vfs::MakeFsProfile("ext4"));
  sim.Spawn("main", [&] {
    AppContext ctx{&sim, &fs};
    MiniKv::Options opt;
    opt.sync_writes = true;
    MiniKv kv(&ctx, opt);
    kv.Open();
    std::vector<sim::SimThreadId> writers;
    for (int t = 0; t < 6; ++t) {
      writers.push_back(sim.Spawn("w", [&kv, t] {
        for (uint64_t i = 0; i < 20; ++i) {
          kv.Put(static_cast<uint64_t>(t) * 1000 + i);
        }
      }));
    }
    for (auto t : writers) {
      sim.Join(t);
    }
    EXPECT_EQ(kv.puts(), 120u);
    // Every inserted key must be visible.
    for (int t = 0; t < 6; ++t) {
      for (uint64_t i = 0; i < 20; ++i) {
        EXPECT_TRUE(kv.Get(static_cast<uint64_t>(t) * 1000 + i));
      }
    }
    kv.Close();
  });
  sim.Run();
  EXPECT_EQ(sim.UnfinishedThreads(), 0u);
}

TEST(MiniKv, GetFindsPreloadedKeysInTables) {
  sim::Simulation sim(1);
  storage::StorageStack stack(&sim, storage::MakeNamedConfig("ssd"));
  vfs::Vfs fs(&sim, &stack, vfs::MakeFsProfile("ext4"));
  MiniKv::BuildDatabase(fs, "/db", /*tables=*/8, /*keys_per_table=*/100,
                        /*value_size=*/100);
  sim.Spawn("main", [&] {
    AppContext ctx{&sim, &fs};
    MiniKv::Options opt;
    MiniKv kv(&ctx, opt);
    kv.Open();
    EXPECT_TRUE(kv.Get(0));
    EXPECT_TRUE(kv.Get(799));             // last key
    EXPECT_FALSE(kv.Get(8 * 100 + 5));    // beyond the key space
    kv.Close();
  });
  sim.Run();
}

TEST(MiniKv, FillsyncIsWriteAndFsyncBound) {
  KvFillSync::Options opt;
  opt.threads = 4;
  opt.puts_per_thread = 50;
  KvFillSync w(opt);
  TracedRun run = TraceWorkload(w, SsdSource());
  size_t fsyncs = 0;
  size_t writes = 0;
  for (const trace::TraceEvent& ev : run.trace.events) {
    fsyncs += ev.call == trace::Sys::kFsync;
    writes += ev.call == trace::Sys::kWrite;
  }
  EXPECT_GT(fsyncs, 10u);
  EXPECT_GT(writes, 10u);
  // Group commit: strictly fewer WAL writes than puts.
  EXPECT_LT(writes, static_cast<size_t>(opt.threads) * opt.puts_per_thread);
}

TEST(Magritte, SuiteHas34NamedWorkloads) {
  const auto& suite = MagritteSuite();
  ASSERT_EQ(suite.size(), 34u);
  std::set<std::string> names;
  std::set<std::string> apps;
  for (const MagritteSpec& spec : suite) {
    names.insert(spec.FullName());
    apps.insert(spec.app);
  }
  EXPECT_EQ(names.size(), 34u);  // unique
  EXPECT_EQ(apps.size(), 6u);    // iphoto itunes imovie pages numbers keynote
}

TEST(Magritte, FindByNameAndUnknownAborts) {
  const MagritteSpec& spec = FindMagritteSpec("keynote_play");
  EXPECT_EQ(spec.app, "keynote");
  EXPECT_EQ(spec.scenario, "play");
  EXPECT_DEATH(FindMagritteSpec("nope_nope"), "unknown magritte workload");
}

TEST(Magritte, EveryWorkloadTracesCleanly) {
  // Each of the 34 generates a nonempty multithreaded trace with no failed
  // events caused by the generator itself (expected failures like optional
  // xattr probes are allowed; unexpected EBADF/EEXIST storms are not).
  for (const MagritteSpec& spec : MagritteSuite()) {
    SourceConfig src;
    src.storage = storage::MakeNamedConfig("ssd");
    src.platform = "osx";
    TracedRun run = TraceMagritte(spec, src);
    EXPECT_GT(run.trace.events.size(), 100u) << spec.FullName();
    EXPECT_GE(run.trace.ThreadIds().size(), 2u) << spec.FullName();
    size_t failed = 0;
    for (const trace::TraceEvent& ev : run.trace.events) {
      if (ev.Failed() && ev.Errno() != trace::kENODATA) {
        failed++;
      }
    }
    EXPECT_EQ(failed, 0u) << spec.FullName();
  }
}

TEST(Magritte, XattrGapsAreStrippedFromSnapshot) {
  const MagritteSpec& spec = FindMagritteSpec("iphoto_start");
  ASSERT_GT(spec.xattr_init_gaps, 0u);
  SourceConfig src;
  src.storage = storage::MakeNamedConfig("ssd");
  TracedRun run = TraceMagritte(spec, src);
  uint32_t stripped = 0;
  for (const trace::SnapshotEntry& e : run.snapshot.entries) {
    if (e.path.find("/media/item") != std::string::npos && e.xattr_names.empty() &&
        e.type == trace::SnapshotEntryType::kFile) {
      stripped++;
    }
  }
  EXPECT_GE(stripped, spec.xattr_init_gaps);
}

TEST(Micro, CompetingSequentialReadersAreSequentialPerThread) {
  CompetingSequentialReaders::Options opt;
  opt.reads_per_thread = 100;
  opt.file_bytes = 8ULL << 20;
  CompetingSequentialReaders w(opt);
  TracedRun run = TraceWorkload(w, SsdSource());
  // All data reads use read() (cursor-advancing), so each thread's reads
  // walk its file forward.
  size_t reads = 0;
  for (const trace::TraceEvent& ev : run.trace.events) {
    reads += ev.call == trace::Sys::kRead;
  }
  EXPECT_EQ(reads, 200u);
}

}  // namespace
}  // namespace artc::workloads
