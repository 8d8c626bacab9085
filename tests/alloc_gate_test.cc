// Allocation gates for the per-I/O device path and the page cache's
// write-back path. This executable replaces the global operator new with a
// counting one, warms a storage stack up with one pass of a workload, drops
// the cache, and asserts that a second pass of the same workload makes no
// heap allocation: submit, scheduler, device, completion, wake-up, eviction
// and write-back all run on storage that the first pass left behind. Further
// gates bound the allocations of an ARTCT decode by the trace's distinct
// strings, keep annotation and compilation off the allocator per event, and
// hold the vfs's per-call paths (stat, pread, pwrite, open/close) to the one
// allocation an open file needs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "src/core/compiler.h"
#include "src/fsmodel/resource_model.h"
#include "src/sim/simulation.h"
#include "src/storage/storage_stack.h"
#include "src/trace/binary_trace.h"
#include "src/trace/stream_reader.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"
#include "src/vfs/vfs.h"
#include "src/workloads/synthetic_gen.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = CountedAlignedAlloc(n, a)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) { return operator new(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace artc::storage {
namespace {

// Eight threads read 1000 distinct scattered blocks, one block per read, so
// every read misses and the device queue runs up to eight deep. Returns the
// allocations made by the second pass.
uint64_t AllocationsPerMissingReadPass(const std::string& config) {
  constexpr int kThreads = 8;
  constexpr uint64_t kReads = 1000;
  sim::Simulation sim(3);
  StorageStack stack(&sim, MakeNamedConfig(config));
  const uint64_t stride = stack.device().CapacityBlocks() / kReads;
  std::vector<uint64_t> lbas;
  Rng rng(5);
  for (uint64_t i = 0; i < kReads; ++i) {
    lbas.push_back(i * stride + rng.NextBelow(stride));
  }
  sim::SimBarrier barrier(&sim, kThreads);
  uint64_t start = 0;
  uint64_t end = 0;
  for (int t = 0; t < kThreads; ++t) {
    sim.Spawn("reader", [&, t] {
      for (int pass = 0; pass < 2; ++pass) {
        if (barrier.Wait() && pass == 1) {
          stack.DropCaches();
          start = g_allocations.load(std::memory_order_relaxed);
        }
        for (size_t i = static_cast<size_t>(t); i < lbas.size(); i += kThreads) {
          stack.Read(lbas[i], 1, /*sequential_hint=*/false);
        }
      }
      if (barrier.Wait()) {
        end = g_allocations.load(std::memory_order_relaxed);
      }
    });
  }
  sim.Run();
  EXPECT_EQ(sim.UnfinishedThreads(), 0u);
  // Both passes missed on every block.
  EXPECT_EQ(stack.Counters().cache_miss_blocks, 2 * kReads);
  EXPECT_EQ(stack.MediaReadBlocks(), 2 * kReads);
  return end - start;
}

TEST(AllocGate, MissingReadsOnHdd) { EXPECT_EQ(AllocationsPerMissingReadPass("hdd"), 0u); }
TEST(AllocGate, MissingReadsOnSsd) { EXPECT_EQ(AllocationsPerMissingReadPass("ssd"), 0u); }
TEST(AllocGate, MissingReadsOnRaid0) { EXPECT_EQ(AllocationsPerMissingReadPass("raid0"), 0u); }
TEST(AllocGate, MissingReadsOnCfq1ms) {
  EXPECT_EQ(AllocationsPerMissingReadPass("cfq-1ms"), 0u);
}

// What one pass of the write-back workload did, from the cache's counters.
struct WritebackPass {
  uint64_t allocations = 0;
  uint64_t evicted_dirty_blocks = 0;  // written back by the reads' evictions
  uint64_t flushed_blocks = 0;        // written back by the per-file flush
  uint64_t synced_blocks = 0;         // written back by the sync
};

// One thread writes 2.5 caches' worth of blocks in 64-block buffered writes
// on smallcache, then reads three quarters of a cache's worth of other
// blocks, then flushes one file's range and syncs everything. The writes
// pass the dirty limit and throttle; the reads evict dirty blocks. Reports
// the second pass.
WritebackPass RunWritebackPasses() {
  constexpr uint32_t kIo = 64;
  sim::Simulation sim(3);
  StorageStack stack(&sim, MakeNamedConfig("smallcache"));
  PageCache& cache = stack.cache();
  const uint64_t capacity = cache.params().capacity_blocks;
  const uint64_t write_blocks = capacity * 5 / 2;
  const uint64_t read_blocks = capacity * 3 / 4;
  // Built outside the measured pass: vfs hands Flush an inode's extents.
  const std::vector<std::pair<uint64_t, uint32_t>> file = {{write_blocks - 4096, 1024},
                                                           {write_blocks - 2048, 512}};
  WritebackPass out;
  sim.Spawn("writer", [&] {
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) {
        stack.DropCaches();
        out.allocations = g_allocations.load(std::memory_order_relaxed);
      }
      for (uint64_t lba = 0; lba < write_blocks; lba += kIo) {
        stack.Write(lba, kIo);
      }
      const uint64_t wb0 = cache.WritebackBlocks();
      for (uint64_t lba = 0; lba < read_blocks; lba += kIo) {
        stack.Read(write_blocks + lba, kIo, /*sequential_hint=*/false);
      }
      const uint64_t wb1 = cache.WritebackBlocks();
      stack.Flush(file);
      const uint64_t wb2 = cache.WritebackBlocks();
      stack.FlushAllDirty();
      if (pass == 1) {
        out.allocations = g_allocations.load(std::memory_order_relaxed) - out.allocations;
        out.evicted_dirty_blocks = wb1 - wb0;
        out.flushed_blocks = wb2 - wb1;
        out.synced_blocks = cache.WritebackBlocks() - wb2;
      }
    }
  });
  sim.Run();
  EXPECT_EQ(sim.UnfinishedThreads(), 0u);
  EXPECT_EQ(cache.DirtyCount(), 0u);
  // Every written block reached the media exactly once per pass.
  EXPECT_EQ(stack.MediaWriteBlocks(), 2 * write_blocks);
  EXPECT_EQ(cache.WritebackBlocks(), 2 * write_blocks);
  return out;
}

TEST(AllocGate, WritebackOnSmallcache) {
  const WritebackPass pass = RunWritebackPasses();
  EXPECT_EQ(pass.allocations, 0u);
  // The pass exercised each write-back path it is meant to cover.
  EXPECT_GT(pass.evicted_dirty_blocks, 0u);
  EXPECT_EQ(pass.flushed_blocks, 1536u);
  EXPECT_GT(pass.synced_blocks, 0u);
}

// The counter sees allocations at all, so a zero above means something.
TEST(AllocGate, CounterCountsAllocations) {
  static std::vector<int>* volatile sink = nullptr;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  sink = new std::vector<int>(16);
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  delete sink;
  EXPECT_GE(after - before, 2u);
}

// Decoding an ARTCT file allocates per distinct string, not per event: the
// reader interns the file's string table once at Open, and each event keeps
// 4-byte string ids. 100k events cycle through 500 paths, all longer than
// the 15 bytes a std::string keeps inline.
TEST(AllocGate, ArtctDecodeScalesWithDistinctStrings) {
  constexpr size_t kEvents = 100'000;
  constexpr size_t kDistinct = 500;
  trace::Trace t;
  t.events.resize(kEvents);
  for (size_t i = 0; i < kEvents; ++i) {
    trace::TraceEvent& ev = t.events[i];
    ev.index = i;
    ev.call = trace::Sys::kStat;
    ev.enter = static_cast<TimeNs>(i) * 10;
    ev.ret_time = ev.enter + 5;
    ev.path = StrFormat("/srv/written_/htdocs/doc_%04zu.html", i % kDistinct);
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "alloc_gate_decode.artct").string();
  std::string error;
  ASSERT_TRUE(trace::WriteArtctFile(path, t, trace::FsSnapshot{}, &error)) << error;
  // Writing interned the written paths. Rename them in the file's string
  // table (same length; the table sits outside the chunk CRCs) so the
  // decode below interns strings this process has not seen.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  size_t renamed = 0;
  for (size_t at = bytes.find("/written_/"); at != std::string::npos;
       at = bytes.find("/written_/", at)) {
    bytes.replace(at, 10, "/decoded_/");
    ++renamed;
  }
  ASSERT_EQ(renamed, kDistinct);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  util::ThreadPool pool(1);
  trace::ParallelReadOptions opt;
  opt.pool = &pool;
  trace::ParallelReadResult res;
  trace::ParseDiag diag;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  ASSERT_TRUE(trace::ParallelReadTraceFile(path, opt, &res, &diag)) << diag.Format();
  const uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  std::remove(path.c_str());

  ASSERT_EQ(res.bundle.trace.events.size(), kEvents);
  EXPECT_EQ(res.bundle.trace.events[kEvents - 1].path,
            StrFormat("/srv/decoded_/htdocs/doc_%04zu.html", (kEvents - 1) % kDistinct));
  std::printf("ARTCT decode of %zu events, %zu distinct paths: %llu allocations\n",
              kEvents, kDistinct, static_cast<unsigned long long>(allocations));
  EXPECT_LE(allocations, 3 * kDistinct + 100);
}

}  // namespace
}  // namespace artc::storage

namespace artc {
namespace {

uint64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

// Web-server traces: 8 workers serving a shared corpus and appending to
// private logs, so most events touch a path, a file and an fd. The workers
// cycle through a fixed set of fds and documents, so every resource exists
// within the first few thousand events.
trace::TraceBundle WebServerTrace(uint64_t events) {
  workloads::SynthOptions opt;
  opt.scenario = workloads::SynthScenario::kWebServer;
  opt.events = events;
  return workloads::GenerateSyntheticBundle(opt);
}

fsmodel::AnnotateOptions CompilerAnnotateOptions() {
  fsmodel::AnnotateOptions opt;
  opt.materialize_labels = false;  // what Compile asks for
  return opt;
}

uint64_t AnnotateAllocations(const trace::TraceBundle& b) {
  const uint64_t before = Allocations();
  const fsmodel::AnnotatedTrace ann =
      fsmodel::AnnotateTrace(b.trace, b.snapshot, CompilerAnnotateOptions());
  const uint64_t allocations = Allocations() - before;
  EXPECT_EQ(ann.touch_offsets.size(), b.trace.events.size() + 1);
  EXPECT_GT(ann.touches.size(), 2 * b.trace.events.size());  // thread, path, file, fd
  return allocations;
}

uint64_t CompileAllocations(const trace::TraceBundle& b) {
  const fsmodel::AnnotatedTrace ann =
      fsmodel::AnnotateTrace(b.trace, b.snapshot, CompilerAnnotateOptions());
  trace::Trace t = b.trace;
  const uint64_t before = Allocations();
  const core::CompiledBenchmark bench =
      core::Compile(std::move(t), b.snapshot, ann, core::CompileOptions{});
  const uint64_t allocations = Allocations() - before;
  EXPECT_EQ(bench.actions.size(), b.trace.events.size());
  EXPECT_GT(bench.dep_arena.size(), b.trace.events.size() / 10);
  return allocations;
}

// What annotating or compiling costs the allocator per event: the 90k
// events a 100k-event trace has beyond a 10k-event one may make fewer than
// 1 allocation per 100 events. The 10k-event trace already holds every
// resource, so the difference leaves out the costs that grow with the
// resources (snapshot tree, path names, fd and cursor tables).
constexpr uint64_t kShortEvents = 10'000;
constexpr uint64_t kLongEvents = 100'000;

// Annotation appends each event's touches to one flat table.
TEST(AllocGate, AnnotateStaysOffTheAllocatorPerEvent) {
  const uint64_t short_allocations = AnnotateAllocations(WebServerTrace(kShortEvents));
  const uint64_t long_allocations = AnnotateAllocations(WebServerTrace(kLongEvents));
  std::printf("annotate: %llu allocations for %llu events, %llu for %llu\n",
              static_cast<unsigned long long>(short_allocations),
              static_cast<unsigned long long>(kShortEvents),
              static_cast<unsigned long long>(long_allocations),
              static_cast<unsigned long long>(kLongEvents));
  ASSERT_GE(long_allocations, short_allocations);
  EXPECT_LT(long_allocations - short_allocations, (kLongEvents - kShortEvents) / 100);
}

// Compile scans that table once; per-resource cursors keep their first use
// and waiters inline, so only resources several threads share allocate.
TEST(AllocGate, CompileStaysOffTheAllocatorPerEvent) {
  const uint64_t short_allocations = CompileAllocations(WebServerTrace(kShortEvents));
  const uint64_t long_allocations = CompileAllocations(WebServerTrace(kLongEvents));
  std::printf("compile: %llu allocations for %llu events, %llu for %llu\n",
              static_cast<unsigned long long>(short_allocations),
              static_cast<unsigned long long>(kShortEvents),
              static_cast<unsigned long long>(long_allocations),
              static_cast<unsigned long long>(kLongEvents));
  ASSERT_GE(long_allocations, short_allocations);
  EXPECT_LT(long_allocations - short_allocations, (kLongEvents - kShortEvents) / 100);
}

// Allocations made by each vfs call on files that already exist, after one
// warm-up round of the same calls on the same blocks (so the page cache
// holds them). The files sit on normalized 4-component paths whose names
// fit a std::string's inline buffer.
struct VfsCallAllocations {
  uint64_t stat = 0;
  uint64_t pread = 0;
  uint64_t pwrite = 0;
  uint64_t open_close = 0;
};

VfsCallAllocations MeasureVfsCalls(int rounds) {
  constexpr int kFiles = 8;
  constexpr uint64_t kFileBytes = 64 * 1024;
  sim::Simulation sim(3);
  storage::StorageStack stack(&sim, storage::MakeNamedConfig("ssd"));
  vfs::Vfs fs(&sim, &stack, vfs::MakeFsProfile("ext4"));
  std::vector<std::string> paths;
  for (int f = 0; f < kFiles; ++f) {
    paths.push_back(StrFormat("/srv/www/docs/page_%02d.html", f));
    fs.MustCreateFile(paths.back(), kFileBytes);
  }
  VfsCallAllocations out;
  sim.Spawn("caller", [&] {
    for (int round = 0; round <= rounds; ++round) {
      const bool measured = round > 0;
      for (const std::string& path : paths) {
        uint64_t at = Allocations();
        EXPECT_EQ(fs.Stat(path).value, static_cast<int64_t>(kFileBytes));
        if (measured) {
          out.stat += Allocations() - at;
        }
        at = Allocations();
        const vfs::VfsResult fd = fs.Open(path, trace::kOpenRead | trace::kOpenWrite);
        ASSERT_TRUE(fd.ok());
        const uint64_t open_allocations = Allocations() - at;
        const auto fdn = static_cast<int32_t>(fd.value);
        at = Allocations();
        EXPECT_EQ(fs.Pread(fdn, 8192, 4096).value, 8192);
        if (measured) {
          out.pread += Allocations() - at;
        }
        at = Allocations();
        EXPECT_EQ(fs.Pwrite(fdn, 4096, 8192).value, 4096);
        if (measured) {
          out.pwrite += Allocations() - at;
        }
        at = Allocations();
        EXPECT_TRUE(fs.Close(fdn).ok());
        if (measured) {
          out.open_close += open_allocations + Allocations() - at;
        }
      }
    }
  });
  sim.Run();
  EXPECT_EQ(sim.UnfinishedThreads(), 0u);
  return out;
}

TEST(AllocGate, VfsCallsOnExistingFiles) {
  constexpr int kRounds = 4;
  constexpr uint64_t kCalls = kRounds * 8;
  const VfsCallAllocations a = MeasureVfsCalls(kRounds);
  EXPECT_EQ(a.stat, 0u);
  EXPECT_EQ(a.pread, 0u);
  EXPECT_EQ(a.pwrite, 0u);
  EXPECT_EQ(a.open_close, kCalls) << "one OpenFile per open";
}

}  // namespace
}  // namespace artc
