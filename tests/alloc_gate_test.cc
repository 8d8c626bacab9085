// Allocation gate for the per-I/O device path. This executable replaces the
// global operator new with a counting one, warms a storage stack up with a
// pass of missing reads, drops the cache, and asserts that a second pass of
// 1000 missing reads makes no heap allocation: submit, scheduler, device,
// completion and wake-up all run on storage that earlier I/O left behind.
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
