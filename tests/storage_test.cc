#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/artc.h"
#include "src/sim/simulation.h"
#include "src/storage/hdd_model.h"
#include "src/storage/io_scheduler.h"
#include "src/storage/raid0.h"
#include "src/storage/ssd_model.h"
#include "src/storage/storage_stack.h"
#include "src/workloads/magritte.h"
#include "src/workloads/micro.h"

namespace artc::storage {
namespace {

TEST(HddModel, SequentialFasterThanRandom) {
  sim::Simulation sim(1);
  HddModel hdd(&sim, HddParams{});
  TimeNs seq = hdd.ServiceTime(/*now=*/0, /*head=*/1000, /*lba=*/1000, /*nblocks=*/8);
  TimeNs rnd = hdd.ServiceTime(/*now=*/0, /*head=*/1000, /*lba=*/50'000'000,
                               /*nblocks=*/8);
  EXPECT_LT(seq * 10, rnd);  // positioning dominates small random I/O
}

TEST(HddModel, NearSeekCheaperThanFarSeekOnAverage) {
  sim::Simulation sim(1);
  HddParams p;
  HddModel hdd(&sim, p);
  // Average over rotational phases: a near seek saves the arm movement.
  TimeNs near_total = 0;
  TimeNs far_total = 0;
  for (TimeNs now = 0; now < p.rotation_period; now += p.rotation_period / 16) {
    near_total += hdd.ServiceTime(now, 1000, 1200, 1);
    far_total += hdd.ServiceTime(now, 1000, 100'000'000, 1);
  }
  EXPECT_LT(near_total, far_total);
}

TEST(HddModel, SequentialStreamingPaysNoRotationalLatency) {
  sim::Simulation sim(1);
  HddParams p;
  HddModel hdd(&sim, p);
  // lba == head: the next block is already under the head.
  TimeNs t = hdd.ServiceTime(Ms(3), 5000, 5000, 8);
  double bytes = 8.0 * 4096;
  TimeNs transfer = static_cast<TimeNs>(bytes / p.bandwidth_bytes_per_sec * kNsPerSec);
  EXPECT_EQ(t, transfer);
}

TEST(HddModel, AngularLayoutConsistentWithTransferRate) {
  sim::Simulation sim(1);
  HddParams p;
  HddModel hdd(&sim, p);
  // Reading blocks_per_track blocks takes exactly one rotation period (to
  // within integer rounding), so track layout and bandwidth agree.
  uint64_t bpt = hdd.BlocksPerTrack();
  double bytes = static_cast<double>(bpt) * 4096;
  TimeNs transfer = static_cast<TimeNs>(bytes / p.bandwidth_bytes_per_sec * kNsPerSec);
  EXPECT_NEAR(static_cast<double>(transfer), static_cast<double>(p.rotation_period),
              static_cast<double>(p.rotation_period) * 0.01);
}

TEST(HddModel, DeeperQueueReducesMeanPositioning) {
  // With 8 scattered requests pending, NCQ should finish them faster than
  // issuing the same requests one at a time. This is the Fig. 5(a) lever.
  std::vector<uint64_t> lbas;
  Rng rng(123);
  for (int i = 0; i < 64; ++i) {
    lbas.push_back(rng.NextBelow(8ULL << 18));  // within an 8 GB region
  }
  auto run = [&](bool batched) {
    sim::Simulation sim(1);
    HddModel hdd(&sim, HddParams{});
    TimeNs finished = 0;
    sim.Spawn("issuer", [&] {
      if (batched) {
        size_t left = lbas.size();
        sim::SimCondVar cv(&sim);
        for (uint64_t lba : lbas) {
          BlockRequest req;
          req.lba = lba;
          req.nblocks = 1;
          req.done = [&] {
            if (--left == 0) {
              cv.NotifyAll();
            }
          };
          hdd.Submit(std::move(req));
        }
        while (left > 0) {
          cv.Wait();
        }
      } else {
        for (uint64_t lba : lbas) {
          bool done = false;
          sim::SimCondVar cv(&sim);
          BlockRequest req;
          req.lba = lba;
          req.nblocks = 1;
          req.done = [&] {
            done = true;
            cv.NotifyAll();
          };
          hdd.Submit(std::move(req));
          while (!done) {
            cv.Wait();
          }
        }
      }
      finished = sim.Now();
    });
    sim.Run();
    return finished;
  };
  TimeNs deep = run(true);
  TimeNs serial = run(false);
  EXPECT_LT(static_cast<double>(deep), 0.6 * static_cast<double>(serial));
}

TEST(HddModel, CompletesSubmittedRequests) {
  sim::Simulation sim(1);
  HddModel hdd(&sim, HddParams{});
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    BlockRequest req;
    req.lba = static_cast<uint64_t>(i) * 1'000'000;
    req.nblocks = 8;
    req.done = [&] { completed++; };
    hdd.Submit(std::move(req));
  }
  sim.Run();
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(hdd.Inflight(), 0u);
}

TEST(HddModel, NcqReordersForThroughput) {
  // A deep queue of scattered requests should finish faster than the same
  // requests issued one at a time (the device picks shortest-seek next).
  std::vector<uint64_t> lbas = {90'000'000, 10'000'000, 80'000'000, 20'000'000,
                                70'000'000, 30'000'000, 60'000'000, 40'000'000};
  auto run_batched = [&] {
    sim::Simulation sim(1);
    HddModel hdd(&sim, HddParams{});
    for (uint64_t lba : lbas) {
      BlockRequest req;
      req.lba = lba;
      req.nblocks = 1;
      req.done = [] {};
      hdd.Submit(std::move(req));
    }
    return sim.Run();
  };
  auto run_serial = [&] {
    sim::Simulation sim(1);
    HddModel hdd(&sim, HddParams{});
    sim.Spawn("issuer", [&] {
      for (uint64_t lba : lbas) {
        bool done = false;
        sim::SimCondVar cv(&sim);
        BlockRequest req;
        req.lba = lba;
        req.nblocks = 1;
        req.done = [&] {
          done = true;
          cv.NotifyAll();
        };
        hdd.Submit(std::move(req));
        while (!done) {
          cv.Wait();
        }
      }
    });
    return sim.Run();
  };
  EXPECT_LT(run_batched(), run_serial());
}

// The NCQ pick against a brute-force reference: a strict-< argmin, lowest
// index on a tie, of the public ServiceTime(now, head, lba, 0) over the
// pending requests in submission order. Queues are seeded and random, with
// duplicate LBAs, a request at the head at a non-zero index, distances at
// the near threshold +-1, and requests arriving from completions; the
// parameter sets cover seeks of one and of two rotations or more (the
// fold's % fallback) and zero settle.
TEST(HddModel, NcqPickMatchesBruteForceArgmin) {
  const TimeNs kPeriod = HddParams{}.rotation_period;
  std::vector<HddParams> variants(6);
  variants[1].seek_max = kPeriod;
  variants[2].seek_max = 2 * kPeriod;
  variants[3].seek_max = 3 * kPeriod;
  variants[4].settle = 0;
  variants[4].seek_min = Ms(4);  // near vs far outlasts most rotational waits
  variants[5].capacity_blocks = 1 << 20;
  variants[5].seek_min = 0;
  variants[5].settle = 0;

  struct Req {
    int id;
    uint64_t lba;
    uint32_t nblocks;
  };
  Rng rng(2024);
  for (int trial = 0; trial < 600; ++trial) {
    SCOPED_TRACE(trial);
    const HddParams& p = variants[static_cast<size_t>(trial) % variants.size()];
    const uint64_t cap = p.capacity_blocks;
    const TimeNs t0 = static_cast<TimeNs>(rng.NextBelow(Ms(60'000)));
    const uint64_t seed = rng.Next();
    // The first request puts the head at `head`; the queue behind it is
    // picked from there.
    const uint32_t nb0 = 1 + static_cast<uint32_t>(rng.NextBelow(8));
    const uint64_t h0 = rng.NextBelow(cap - 2 * p.near_threshold - 64) + p.near_threshold;
    const uint64_t head = h0 + nb0;
    const size_t depth = 1 + rng.NextBelow(32);
    std::vector<Req> reqs = {{0, h0, nb0}};
    for (size_t i = 0; i < depth; ++i) {
      uint64_t lba = rng.NextBelow(cap - 16);
      switch (rng.NextBelow(5)) {
        case 0:  // a duplicate of an earlier LBA
          lba = reqs[rng.NextBelow(reqs.size())].lba;
          break;
        case 1:  // at the near threshold, one either side of it, either way
          lba = head + p.near_threshold - 1 + rng.NextBelow(3);
          if (rng.NextBool(0.5)) {
            lba = 2 * head - lba;
          }
          break;
        case 2:
          lba = std::min(head + rng.NextBelow(4096), cap - 16);
          break;
        default:
          break;
      }
      reqs.push_back({static_cast<int>(reqs.size()), lba,
                      1 + static_cast<uint32_t>(rng.NextBelow(16))});
    }
    // In half the trials a request at the head, at queue index >= 1, wins
    // the first pick at cost 0; in the others the threshold cases can.
    if (depth >= 2 && rng.NextBool(0.5)) {
      reqs[2 + rng.NextBelow(depth - 1)].lba = head;
    }

    // The model, with a fresh request arriving from some completions.
    sim::Simulation sim(1);
    HddModel hdd(&sim, p);
    std::vector<int> order;
    std::vector<TimeNs> times;
    Rng arrivals(seed);
    int next_id = static_cast<int>(reqs.size());
    std::function<void(int, uint64_t, uint32_t)> submit = [&](int id, uint64_t lba,
                                                              uint32_t nblocks) {
      BlockRequest r;
      r.lba = lba;
      r.nblocks = nblocks;
      r.done = [&, id] {
        order.push_back(id);
        times.push_back(sim.Now());
        if (arrivals.NextBool(0.3)) {
          const uint64_t a = arrivals.NextBelow(cap - 16);
          submit(next_id++, a, 1 + static_cast<uint32_t>(arrivals.NextBelow(16)));
        }
      };
      hdd.Submit(std::move(r));
    };
    sim.ScheduleCallback(t0, [&] {
      for (const Req& r : reqs) {
        submit(r.id, r.lba, r.nblocks);
      }
    });
    sim.Run();

    // The reference: the first request is served alone (the device was
    // idle when it arrived), then each pick is the brute-force argmin.
    std::vector<int> want_order;
    std::vector<TimeNs> want_times;
    TimeNs want_positioning = 0;
    Rng ref_arrivals(seed);
    int ref_next_id = static_cast<int>(reqs.size());
    std::vector<Req> pending = reqs;
    TimeNs now = t0;
    uint64_t at = 0;
    size_t pick = 0;
    while (!pending.empty()) {
      TimeNs best_cost = INT64_MAX;
      for (size_t i = 0; i < pending.size() && !want_order.empty(); ++i) {
        const TimeNs cost = hdd.ServiceTime(now, at, pending[i].lba, 0);
        if (cost < best_cost) {
          best_cost = cost;
          pick = i;
        }
      }
      const Req r = pending[pick];
      pending.erase(pending.begin() + static_cast<ptrdiff_t>(pick));
      want_positioning += hdd.ServiceTime(now, at, r.lba, 0);
      now += hdd.ServiceTime(now, at, r.lba, r.nblocks);
      at = r.lba + r.nblocks;
      want_order.push_back(r.id);
      want_times.push_back(now);
      if (ref_arrivals.NextBool(0.3)) {
        const uint64_t a = ref_arrivals.NextBelow(cap - 16);
        pending.push_back(
            {ref_next_id++, a, 1 + static_cast<uint32_t>(ref_arrivals.NextBelow(16))});
      }
    }
    ASSERT_EQ(order, want_order);
    ASSERT_EQ(times, want_times);
    ASSERT_EQ(hdd.TotalPositioningNs(), want_positioning);
    ASSERT_EQ(hdd.ServicedRequests(), want_order.size());
  }
}

TEST(SsdModel, ParallelChannelsOverlap) {
  sim::Simulation sim(1);
  SsdParams p;
  p.channels = 4;
  SsdModel ssd(&sim, p);
  int completed = 0;
  // 4 requests on 4 different channels should finish in ~1 op latency.
  for (uint64_t i = 0; i < 4; ++i) {
    BlockRequest req;
    req.lba = i * 64;  // distinct channels (64-block channel stripes)
    req.nblocks = 1;
    req.done = [&] { completed++; };
    ssd.Submit(std::move(req));
  }
  TimeNs t = sim.Run();
  EXPECT_EQ(completed, 4);
  EXPECT_LT(t, p.read_latency * 2);
}

TEST(SsdModel, SameChannelSerializes) {
  sim::Simulation sim(1);
  SsdParams p;
  SsdModel ssd(&sim, p);
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    BlockRequest req;
    req.lba = 0;  // same channel
    req.nblocks = 1;
    req.done = [&] { completed++; };
    ssd.Submit(std::move(req));
  }
  TimeNs t = sim.Run();
  EXPECT_EQ(completed, 4);
  EXPECT_GE(t, p.read_latency * 4);
}

TEST(Raid0, SplitsAcrossMembers) {
  sim::Simulation sim(1);
  std::vector<std::unique_ptr<BlockDevice>> members;
  members.push_back(std::make_unique<SsdModel>(&sim, SsdParams{}));
  members.push_back(std::make_unique<SsdModel>(&sim, SsdParams{}));
  Raid0 raid(std::move(members), /*chunk_blocks=*/128);
  EXPECT_EQ(raid.MemberCount(), 2u);
  bool done = false;
  BlockRequest req;
  req.lba = 0;
  req.nblocks = 256;  // exactly two chunks -> one per member
  req.done = [&] { done = true; };
  raid.Submit(std::move(req));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(Raid0, TwoDisksBeatOneForConcurrentRandomReads) {
  auto run = [](uint32_t members) {
    sim::Simulation sim(7);
    StorageConfig cfg = MakeNamedConfig(members > 1 ? "raid0" : "hdd");
    cfg.cache.capacity_blocks = 16;  // effectively no cache
    StorageStack stack(&sim, cfg);
    for (int t = 0; t < 2; ++t) {
      sim.Spawn("reader", [&sim, &stack, t] {
        Rng rng(100 + t);
        for (int i = 0; i < 50; ++i) {
          uint64_t lba = rng.NextBelow(stack.device().CapacityBlocks() - 8);
          stack.Read(lba, 1, /*sequential_hint=*/false);
        }
      });
    }
    return sim.Run();
  };
  TimeNs one = run(1);
  TimeNs two = run(2);
  EXPECT_LT(two, one);
  // With ~half the requests landing on each member, expect a win of >25%.
  EXPECT_LT(static_cast<double>(two), 0.75 * static_cast<double>(one));
}

TEST(PageCacheStack, HitsAvoidMedia) {
  sim::Simulation sim(1);
  StorageConfig cfg = MakeNamedConfig("ssd");
  StorageStack stack(&sim, cfg);
  sim.Spawn("t", [&] {
    stack.Read(1000, 8, false);
    uint64_t after_first = stack.MediaReadBlocks();
    stack.Read(1000, 8, false);
    EXPECT_EQ(stack.MediaReadBlocks(), after_first);  // second read is a hit
  });
  sim.Run();
  EXPECT_GT(stack.cache().HitBlocks(), 0u);
}

TEST(PageCacheStack, EvictionBoundsResidency) {
  sim::Simulation sim(1);
  StorageConfig cfg = MakeNamedConfig("ssd");
  cfg.cache.capacity_blocks = 64;
  StorageStack stack(&sim, cfg);
  sim.Spawn("t", [&] {
    for (uint64_t i = 0; i < 32; ++i) {
      stack.Read(i * 100, 8, false);
    }
  });
  sim.Run();
  EXPECT_LE(stack.cache().ResidentCount(), 64u);
}

TEST(PageCacheStack, SmallerCacheMoreMisses) {
  auto misses = [](uint64_t cache_blocks) {
    sim::Simulation sim(3);
    StorageConfig cfg = MakeNamedConfig("ssd");
    cfg.cache.capacity_blocks = cache_blocks;
    StorageStack stack(&sim, cfg);
    sim.Spawn("t", [&] {
      Rng rng(5);
      for (int i = 0; i < 2000; ++i) {
        uint64_t lba = rng.NextBelow(1024);  // working set 1024 blocks
        stack.Read(lba, 1, false);
      }
    });
    sim.Run();
    return stack.cache().MissBlocks();
  };
  EXPECT_GT(misses(128), misses(2048));
}

TEST(PageCacheStack, WritesAreBufferedAndFlushed) {
  sim::Simulation sim(1);
  StorageConfig cfg = MakeNamedConfig("ssd");
  StorageStack stack(&sim, cfg);
  sim.Spawn("t", [&] {
    stack.Write(5000, 16);
    EXPECT_EQ(stack.MediaWriteBlocks(), 0u);  // buffered
    EXPECT_EQ(stack.cache().DirtyCount(), 16u);
    stack.Flush({{5000, 16}});
    EXPECT_EQ(stack.MediaWriteBlocks(), 16u);
    EXPECT_EQ(stack.cache().DirtyCount(), 0u);
  });
  sim.Run();
}

TEST(PageCacheStack, FlushIsIdempotent) {
  sim::Simulation sim(1);
  StorageStack stack(&sim, MakeNamedConfig("ssd"));
  sim.Spawn("t", [&] {
    stack.Write(100, 4);
    stack.Flush({{100, 4}});
    uint64_t w = stack.MediaWriteBlocks();
    stack.Flush({{100, 4}});  // nothing dirty -> no I/O
    EXPECT_EQ(stack.MediaWriteBlocks(), w);
  });
  sim.Run();
}

TEST(PageCacheStack, ReadaheadFetchesExtraBlocksSequentially) {
  sim::Simulation sim(1);
  StorageConfig cfg = MakeNamedConfig("ssd");
  StorageStack stack(&sim, cfg);
  sim.Spawn("t", [&] {
    stack.Read(0, 1, /*sequential_hint=*/true);
    EXPECT_GT(stack.MediaReadBlocks(), 1u);  // pulled the read-ahead window
    uint64_t after = stack.MediaReadBlocks();
    stack.Read(1, 8, /*sequential_hint=*/true);  // covered by read-ahead
    EXPECT_EQ(stack.MediaReadBlocks(), after);
  });
  sim.Run();
}

// Every StorageCounters field plus the virtual end time, so a rewrite of the
// cache or the stack cannot move any of them unnoticed.
struct StackGolden {
  uint64_t cache_hit_blocks;
  uint64_t cache_miss_blocks;
  uint64_t cache_evicted_blocks;
  uint64_t cache_writeback_blocks;
  uint64_t media_read_blocks;
  uint64_t media_write_blocks;
  uint64_t cfq_context_switches;
  TimeNs service_cache_ns;
  TimeNs service_media_read_ns;
  TimeNs service_media_write_ns;
  TimeNs service_writeback_ns;
  TimeNs end_ns;
  std::vector<uint64_t> raid_member_read_blocks;   // empty off RAID-0
  std::vector<uint64_t> raid_member_write_blocks;
};

void ExpectGolden(const StorageCounters& c, TimeNs end_ns, const StackGolden& g) {
  EXPECT_EQ(c.cache_hit_blocks, g.cache_hit_blocks);
  EXPECT_EQ(c.cache_miss_blocks, g.cache_miss_blocks);
  EXPECT_EQ(c.cache_evicted_blocks, g.cache_evicted_blocks);
  EXPECT_EQ(c.cache_writeback_blocks, g.cache_writeback_blocks);
  EXPECT_EQ(c.media_read_blocks, g.media_read_blocks);
  EXPECT_EQ(c.media_write_blocks, g.media_write_blocks);
  EXPECT_EQ(c.cfq_context_switches, g.cfq_context_switches);
  EXPECT_EQ(c.raid_member_read_blocks, g.raid_member_read_blocks);
  EXPECT_EQ(c.raid_member_write_blocks, g.raid_member_write_blocks);
  EXPECT_EQ(c.service_cache_ns, g.service_cache_ns);
  EXPECT_EQ(c.service_media_read_ns, g.service_media_read_ns);
  EXPECT_EQ(c.service_media_write_ns, g.service_media_write_ns);
  EXPECT_EQ(c.service_writeback_ns, g.service_writeback_ns);
  EXPECT_EQ(end_ns, g.end_ns);
}

// The shape of the mixed four-thread load below: the cache size, the LBA
// region the threads work in, and the longest range one call covers.
struct MixedLoad {
  uint64_t cache_blocks = 256;
  uint64_t region_blocks = 2048;
  uint32_t max_blocks = 16;
  // Turns the last three percent of calls from discards into whole-cache
  // syncs (FlushAllDirty).
  bool flush_all = false;
};

// Four threads run a seeded mix of reads, buffered and synchronous
// writes, flushes and discards over a 2048-block region, behind a 256-block
// cache: reads evict, writers pass the dirty limit (102 blocks) and
// throttle, and the threads often miss on the same blocks, so they share
// in-flight fetches. Every device completion path (NCQ, SSD channels,
// RAID-0 fan-out, CFQ dispatch) sits under it.
void RunMixedFourThreadsAndExpect(StorageConfig cfg, const StackGolden& golden,
                                  MixedLoad d = {}) {
  sim::Simulation sim(7);
  cfg.cache.capacity_blocks = d.cache_blocks;
  StorageStack stack(&sim, cfg);
  for (int t = 0; t < 4; ++t) {
    sim.Spawn("driver", [&stack, &d, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      for (int i = 0; i < 400; ++i) {
        const uint64_t lba = rng.NextBelow(d.region_blocks);
        const uint32_t n = 1 + static_cast<uint32_t>(rng.NextBelow(d.max_blocks));
        const uint64_t op = rng.NextBelow(100);
        if (op < 45) {
          stack.Read(lba, n, /*sequential_hint=*/rng.NextBool(0.5));
        } else if (op < 75) {
          stack.Write(lba, n);
        } else if (op < 82) {
          stack.WriteSync(lba, n);
        } else if (op < 94) {
          stack.Flush({{lba, n}, {rng.NextBelow(d.region_blocks), 32}});
        } else if (d.flush_all && op >= 97) {
          stack.FlushAllDirty();
        } else {
          stack.Discard(lba, n);
        }
      }
    });
  }
  sim.Run();
  ASSERT_EQ(sim.UnfinishedThreads(), 0u);
  ExpectGolden(stack.Counters(), sim.Now(), golden);
}

TEST(StackGoldens, MixedFourThreadDriverOnSmallCache) {
  RunMixedFourThreadsAndExpect(
      MakeNamedConfig("smallcache"),
      StackGolden{725, 14006, 17884, 3890, 14006, 4786, 0, 9500000, 6147345163,
                  1274271518, 5432991186, 3350510971, {}, {}});
}

TEST(StackGoldens, MixedFourThreadsOnRaid0) {
  RunMixedFourThreadsAndExpect(
      MakeNamedConfig("raid0"),
      StackGolden{775, 13555, 17464, 3876, 13555, 4772, 0, 9600000, 5419846567,
                  962862620, 4603440516, 3050960235, {6478, 7077}, {2300, 2472}});
}

TEST(StackGoldens, MixedFourThreadsOnSsd) {
  RunMixedFourThreadsAndExpect(
      MakeNamedConfig("ssd"),
      StackGolden{853, 13749, 17673, 3880, 13749, 4776, 0, 9756000, 217734562,
                  31822900, 152803902, 117604477, {}, {}});
}

TEST(StackGoldens, MixedFourThreadsOnCfq1ms) {
  RunMixedFourThreadsAndExpect(
      MakeNamedConfig("cfq-1ms"),
      StackGolden{667, 14008, 18001, 3873, 14008, 4769, 1000, 9384000, 6664485207,
                  1294833379, 18330150771, 6885467447, {}, {}});
}

TEST(StackGoldens, MagritteReplayOnSmallCache) {
  // ext3 makes every fsync write back all dirty data through the
  // collect-oldest-dirty path as well as the per-file flush.
  workloads::SourceConfig src;
  workloads::TracedRun run =
      workloads::TraceMagritte(workloads::FindMagritteSpec("iphoto_import"), src);
  core::SimTarget target;
  target.storage = MakeNamedConfig("smallcache");
  target.fs_profile = "ext3";
  core::SimReplayResult res =
      core::ReplayOnSimTarget(run.trace, run.snapshot, core::CompileOptions{}, target);
  ExpectGolden(res.storage, res.sim_end_time,
               StackGolden{15501, 206652, 316394, 205821, 206652, 209033, 0,
                           441406000, 22559888488, 24364177137, 0, 29165281385,
                           {}, {}});
}

// The long-range shape: calls cover 1-512 blocks of an 8192-block region
// behind a 1024-block cache, and some calls sync the whole cache. Single
// calls span many LRU runs and 32-block chunks, overrun the cache and the
// dirty limit, and split and merge long runs.
constexpr MixedLoad kLongRanges{1024, 8192, 512, true};

TEST(StackGoldens, LongRangeFourThreadsOnSmallCache) {
  RunMixedFourThreadsAndExpect(
      MakeNamedConfig("smallcache"),
      StackGolden{20443, 175920, 301410, 119051, 175920, 145984, 0, 282822000,
                  25161727916, 8077842698, 19762679596, 13916344159, {}, {}},
      kLongRanges);
}

TEST(StackGoldens, LongRangeFourThreadsOnSsd) {
  RunMixedFourThreadsAndExpect(
      MakeNamedConfig("ssd"),
      StackGolden{24667, 171262, 288445, 118841, 171262, 145774, 0, 291270000,
                  2195201304, 710600297, 1143192543, 1124809341, {}, {}},
      kLongRanges);
}

// Fig. 5(c): the warm reader's 256 MB sequential read and then random reads
// of the same file, traced on one cache size and replayed by every method on
// the other (RAID-0, as in bench/bench_fig5c_cache.cc). One golden per
// method, in the order single-threaded, temporal, ARTC.
void RunCacheWarmReadersAndExpect(bool source_big, const StackGolden (&goldens)[3]) {
  auto config = [](bool big) {
    StorageConfig cfg = MakeNamedConfig("raid0");
    cfg.cache.capacity_blocks = big ? 327680 : 24576;
    return cfg;
  };
  workloads::CacheWarmReaders w(workloads::CacheWarmReaders::Options{});
  workloads::SourceConfig src;
  src.storage = config(source_big);
  const workloads::TracedRun run = workloads::TraceWorkload(w, src);
  core::SimTarget target;
  target.storage = config(!source_big);
  const core::ReplayMethod methods[] = {core::ReplayMethod::kSingleThreaded,
                                        core::ReplayMethod::kTemporal,
                                        core::ReplayMethod::kArtc};
  for (int m = 0; m < 3; ++m) {
    SCOPED_TRACE(core::ReplayMethodName(methods[m]));
    core::CompileOptions copt;
    copt.method = methods[m];
    const core::SimReplayResult res =
        core::ReplayOnSimTarget(run.trace, run.snapshot, copt, target);
    ExpectGolden(res.storage, res.sim_end_time, goldens[m]);
  }
}

TEST(StackGoldens, CacheWarmReadersBigToSmallCache) {
  RunCacheWarmReadersAndExpect(
      /*source_big=*/true,
      {StackGolden{33430, 71376, 46800, 0, 71376, 0, 0, 66860000, 32957225115, 0, 0,
                   33024097115, {35720, 35656}, {0, 0}},
       StackGolden{33430, 71376, 46800, 0, 71376, 0, 0, 66860000, 38603815790, 0, 0,
                   30165763896, {35720, 35656}, {0, 0}},
       StackGolden{33419, 71387, 46811, 0, 71387, 0, 0, 66838000, 42101200818, 0, 0,
                   27374097341, {35724, 35663}, {0, 0}}});
}

TEST(StackGoldens, CacheWarmReadersSmallToBigCache) {
  RunCacheWarmReadersAndExpect(
      /*source_big=*/false,
      {StackGolden{34442, 70364, 0, 0, 70364, 0, 0, 68884000, 28121867975, 0, 0,
                   28190763975, {35217, 35147}, {0, 0}},
       StackGolden{34442, 70364, 0, 0, 70364, 0, 0, 68884000, 33696441009, 0, 0,
                   25340764089, {35217, 35147}, {0, 0}},
       StackGolden{34442, 70364, 0, 0, 70364, 0, 0, 68884000, 33689067391, 0, 0,
                   25324097423, {35217, 35147}, {0, 0}}});
}

TEST(Cfq, LargeSliceBeatsSmallSliceForCompetingSequentialReaders) {
  // Two threads doing sequential reads from distant regions: with a long
  // slice the device stays in one region; with a short slice it ping-pongs
  // and pays a seek per switch. This is the Fig. 5(d) mechanism.
  auto run = [](TimeNs slice) {
    sim::Simulation sim(11);
    StorageConfig cfg = MakeNamedConfig("hdd");
    cfg.scheduler = SchedulerKind::kCfq;
    cfg.cfq.slice_sync = slice;
    cfg.cache.capacity_blocks = 16;  // force media reads
    cfg.cache.readahead_blocks = 0;
    StorageStack stack(&sim, cfg);
    for (int t = 0; t < 2; ++t) {
      uint64_t base = t == 0 ? 0 : 50'000'000;
      sim.Spawn("reader", [&sim, &stack, base] {
        for (int i = 0; i < 300; ++i) {
          stack.Read(base + static_cast<uint64_t>(i), 1, false);
        }
      });
    }
    return sim.Run();
  };
  TimeNs big = run(Ms(100));
  TimeNs small = run(Ms(1));
  EXPECT_LT(big, small);
  EXPECT_LT(static_cast<double>(big) * 2, static_cast<double>(small));
}

TEST(Cfq, SingleContextUnaffectedBySlice) {
  auto run = [](TimeNs slice) {
    sim::Simulation sim(2);
    StorageConfig cfg = MakeNamedConfig("hdd");
    cfg.scheduler = SchedulerKind::kCfq;
    cfg.cfq.slice_sync = slice;
    cfg.cache.capacity_blocks = 16;
    cfg.cache.readahead_blocks = 0;
    StorageStack stack(&sim, cfg);
    // Measure when the workload finishes, not when the simulation drains:
    // a trailing anticipation idle timer may keep the sim alive afterwards.
    TimeNs finished = 0;
    sim.Spawn("reader", [&] {
      for (int i = 0; i < 200; ++i) {
        stack.Read(static_cast<uint64_t>(i), 1, false);
      }
      finished = sim.Now();
    });
    sim.Run();
    return finished;
  };
  TimeNs big = run(Ms(100));
  TimeNs small = run(Ms(1));
  double ratio = static_cast<double>(big) / static_cast<double>(small);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(NamedConfigs, AllBuild) {
  for (const char* name : kNamedConfigNames) {
    sim::Simulation sim(1);
    StorageStack stack(&sim, MakeNamedConfig(name));
    EXPECT_GT(stack.device().CapacityBlocks(), 0u) << name;
  }
}

TEST(NamedConfigs, UnknownNameIsNotFound) {
  EXPECT_TRUE(FindNamedConfig("raid0").has_value());
  EXPECT_EQ(FindNamedConfig("raid0")->raid_members, 2u);
  EXPECT_FALSE(FindNamedConfig("nvme").has_value());
  EXPECT_FALSE(FindNamedConfig("").has_value());
}

}  // namespace
}  // namespace artc::storage
