// Allocation gates for the per-I/O device path and the page cache's
// write-back path. This executable replaces the global operator new with a
// counting one, warms a storage stack up with one pass of a workload, drops
// the cache, and asserts that a second pass of the same workload makes no
// heap allocation: submit, scheduler, device, completion, wake-up, eviction
// and write-back all run on storage that the first pass left behind.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/sim/simulation.h"
#include "src/storage/storage_stack.h"
#include "src/util/rng.h"

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

}  // namespace
}  // namespace artc::storage
