#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/sim/schedule.h"
#include "src/sim/simulation.h"
#include "src/util/thread_pool.h"

namespace artc::sim {
namespace {

TEST(Simulation, SleepAdvancesVirtualTime) {
  Simulation sim(1);
  TimeNs observed = -1;
  sim.Spawn("t", [&] {
    sim.Sleep(Ms(5));
    observed = sim.Now();
  });
  TimeNs end = sim.Run();
  EXPECT_EQ(observed, Ms(5));
  EXPECT_EQ(end, Ms(5));
  EXPECT_EQ(sim.UnfinishedThreads(), 0u);
}

TEST(Simulation, ThreadsInterleaveInVirtualTime) {
  Simulation sim(1);
  std::vector<int> order;
  sim.Spawn("a", [&] {
    sim.Sleep(Ms(10));
    order.push_back(1);
  });
  sim.Spawn("b", [&] {
    sim.Sleep(Ms(5));
    order.push_back(2);
  });
  sim.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
}

TEST(Simulation, DeterministicAcrossRunsWithSameSeed) {
  auto run = [](uint64_t seed) {
    Simulation sim(seed);
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      sim.Spawn("t", [&, i] {
        sim.Sleep(Ms(1));  // all runnable at the same instant
        order.push_back(i);
      });
    }
    sim.Run();
    return order;
  };
  EXPECT_EQ(run(42), run(42));
  // Different seeds should (very likely) produce different interleavings.
  EXPECT_NE(run(1), run(12345));
}

TEST(Simulation, SpawnFromSimThread) {
  Simulation sim(1);
  bool child_ran = false;
  sim.Spawn("parent", [&] {
    sim.Sleep(Ms(1));
    SimThreadId child = sim.Spawn("child", [&] {
      sim.Sleep(Ms(2));
      child_ran = true;
    });
    sim.Join(child);
    EXPECT_TRUE(child_ran);
    EXPECT_EQ(sim.Now(), Ms(3));
  });
  sim.Run();
  EXPECT_TRUE(child_ran);
  EXPECT_EQ(sim.UnfinishedThreads(), 0u);
}

TEST(Simulation, JoinFinishedThreadReturnsImmediately) {
  Simulation sim(1);
  SimThreadId worker = sim.Spawn("w", [&] { sim.Sleep(Ms(1)); });
  sim.Spawn("joiner", [&] {
    sim.Sleep(Ms(10));
    TimeNs before = sim.Now();
    sim.Join(worker);
    EXPECT_EQ(sim.Now(), before);
  });
  sim.Run();
}

TEST(Simulation, CallbacksFireInOrder) {
  Simulation sim(1);
  std::vector<int> seen;
  sim.ScheduleCallback(Ms(3), [&] { seen.push_back(3); });
  sim.ScheduleCallback(Ms(1), [&] { seen.push_back(1); });
  sim.ScheduleCallback(Ms(2), [&] { seen.push_back(2); });
  sim.Run();
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, CancelCallback) {
  Simulation sim(1);
  bool fired = false;
  uint64_t id = sim.ScheduleCallback(Ms(1), [&] { fired = true; });
  EXPECT_TRUE(sim.CancelCallback(id));
  EXPECT_FALSE(sim.CancelCallback(id));  // already cancelled
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, StaleCallbackIdDoesNotCancelReusedEvent) {
  Simulation sim(1);
  bool second_fired = false;
  bool stale_cancelled = true;
  uint64_t first = 0;
  first = sim.ScheduleCallback(Ms(1), [&] {
    // The first callback's event record is free again, so the second
    // callback gets the same record under a new id.
    uint64_t second = sim.ScheduleCallback(sim.Now() + Ms(1), [&] { second_fired = true; });
    EXPECT_NE(second, first);
    stale_cancelled = sim.CancelCallback(first);
  });
  sim.Run();
  EXPECT_EQ(sim.allocated_event_count(), 1u);
  EXPECT_FALSE(stale_cancelled);
  EXPECT_TRUE(second_fired);
}

TEST(Simulation, CallbackCanScheduleCallback) {
  Simulation sim(1);
  TimeNs second_fire = 0;
  sim.ScheduleCallback(Ms(1), [&] {
    sim.ScheduleCallback(sim.Now() + Ms(2), [&] { second_fire = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(second_fire, Ms(3));
}

TEST(SimCondVar, WaitAndNotifyAll) {
  Simulation sim(1);
  SimCondVar cv(&sim);
  bool ready = false;
  int woke = 0;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn("waiter", [&] {
      while (!ready) {
        cv.Wait();
      }
      woke++;
    });
  }
  sim.Spawn("notifier", [&] {
    sim.Sleep(Ms(1));
    ready = true;
    cv.NotifyAll();
  });
  sim.Run();
  EXPECT_EQ(woke, 3);
  EXPECT_EQ(sim.UnfinishedThreads(), 0u);
}

TEST(SimCondVar, NotifyOneWakesExactlyOne) {
  Simulation sim(1);
  SimCondVar cv(&sim);
  int woke = 0;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn("waiter", [&] {
      cv.Wait();
      woke++;
    });
  }
  sim.Spawn("notifier", [&] {
    sim.Sleep(Ms(1));
    cv.NotifyOne();
  });
  sim.Run();
  EXPECT_EQ(woke, 1);
  EXPECT_EQ(sim.UnfinishedThreads(), 2u);  // two still blocked (intentional)
}

TEST(SimMutex, MutualExclusionInVirtualTime) {
  Simulation sim(1);
  SimMutex mu(&sim);
  TimeNs t2_acquired = 0;
  sim.Spawn("holder", [&] {
    mu.Lock();
    sim.Sleep(Ms(10));
    mu.Unlock();
  });
  sim.Spawn("waiter", [&] {
    sim.Sleep(Ms(1));  // ensure holder grabs it first
    mu.Lock();
    t2_acquired = sim.Now();
    mu.Unlock();
  });
  sim.Run();
  EXPECT_EQ(t2_acquired, Ms(10));
}

TEST(SimMutex, LockGuard) {
  Simulation sim(1);
  SimMutex mu(&sim);
  sim.Spawn("t", [&] {
    SimLockGuard g(mu);
    EXPECT_TRUE(mu.Held());
  });
  sim.Run();
  EXPECT_FALSE(mu.Held());
}

TEST(Simulation, ManyThreadsStress) {
  Simulation sim(99);
  constexpr int kThreads = 50;
  constexpr int kIters = 20;
  int64_t counter = 0;
  for (int i = 0; i < kThreads; ++i) {
    sim.Spawn("worker", [&] {
      for (int j = 0; j < kIters; ++j) {
        sim.Sleep(Us(100));
        counter++;
      }
    });
  }
  sim.Run();
  EXPECT_EQ(counter, kThreads * kIters);
  EXPECT_EQ(sim.UnfinishedThreads(), 0u);
  EXPECT_EQ(sim.Now(), Us(100) * kIters);
}

TEST(Simulation, EventRecordsAreRecycled) {
  // A long-running simulation must not accumulate one allocation per
  // Sleep/ScheduleCallback: completed and cancelled events are recycled.
  Simulation sim(1);
  for (int i = 0; i < 4; ++i) {
    sim.Spawn("sleeper", [&] {
      for (int j = 0; j < 1000; ++j) {
        sim.Sleep(Us(10));
      }
    });
  }
  sim.Spawn("scheduler", [&] {
    for (int j = 0; j < 1000; ++j) {
      sim.ScheduleCallback(sim.Now() + Us(5), [] {});
      uint64_t id = sim.ScheduleCallback(sim.Now() + Us(50), [] {});
      sim.CancelCallback(id);
      sim.Sleep(Us(10));
    }
  });
  sim.Run();
  // 12k events were scheduled but at most a handful are ever outstanding.
  EXPECT_LE(sim.allocated_event_count(), 32u);
  EXPECT_EQ(sim.UnfinishedThreads(), 0u);
}

// Runs 8 threads that all become runnable at the same instant and returns
// the order the scheduler dispatched them in.
std::vector<int> DispatchOrder(uint64_t sim_seed, SchedulePolicy* policy) {
  Simulation sim(sim_seed);
  if (policy != nullptr) {
    sim.SetSchedulePolicy(policy);
  }
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.Spawn("t", [&, i] {
      sim.Sleep(Ms(1));
      order.push_back(i);
    });
  }
  sim.Run();
  return order;
}

TEST(SchedulePolicy, RandomPolicyIsDeterministicPerPolicySeed) {
  RandomSchedulePolicy a1(7);
  RandomSchedulePolicy a2(7);
  RandomSchedulePolicy b(8);
  std::vector<int> order_a1 = DispatchOrder(1, &a1);
  std::vector<int> order_a2 = DispatchOrder(1, &a2);
  std::vector<int> order_b = DispatchOrder(1, &b);
  EXPECT_EQ(order_a1, order_a2);
  EXPECT_NE(order_a1, order_b);  // same sim seed, policy seed decides
  // A policy permutes dispatch; it never loses or duplicates threads.
  std::vector<int> sorted = order_b;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SchedulePolicy, ClearingPolicyRestoresBuiltinSchedule) {
  std::vector<int> builtin = DispatchOrder(42, nullptr);
  RandomSchedulePolicy policy(9);
  DispatchOrder(42, &policy);
  // Reinstall-then-clear must be bit-identical to never installing one.
  Simulation sim(42);
  RandomSchedulePolicy other(10);
  sim.SetSchedulePolicy(&other);
  sim.SetSchedulePolicy(nullptr);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.Spawn("t", [&, i] {
      sim.Sleep(Ms(1));
      order.push_back(i);
    });
  }
  sim.Run();
  EXPECT_EQ(order, builtin);
}

TEST(SchedulePolicy, PrefixPolicyRecordsRealChoicePoints) {
  PrefixSchedulePolicy trunk({});
  std::vector<int> default_order = DispatchOrder(3, &trunk);
  // 8 simultaneously-ready threads guarantee multi-candidate choice points,
  // and policies are only consulted at genuine branches (n >= 2).
  ASSERT_FALSE(trunk.factors().empty());
  for (uint32_t factor : trunk.factors()) {
    EXPECT_GE(factor, 2u);
  }
  // Flipping the first recorded choice yields a different but complete
  // dispatch order — the enumeration step the exhaustive explorer relies on.
  PrefixSchedulePolicy sibling({1});
  std::vector<int> flipped = DispatchOrder(3, &sibling);
  EXPECT_NE(flipped, default_order);
  std::vector<int> sorted = flipped;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SchedulePolicy, PolicyPicksNotifyOneWakeTarget) {
  // Three waiters on one condvar; a prefix policy that always picks the
  // last candidate must steer every NotifyOne wake, and the wake choice
  // points show up in the recorded factors.
  PrefixSchedulePolicy policy({2, 1});
  Simulation sim(1);
  sim.SetSchedulePolicy(&policy);
  SimCondVar cv(&sim);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn("waiter", [&] {
      cv.Wait();
      woken++;
    });
  }
  sim.Spawn("waker", [&] {
    sim.Sleep(Ms(1));
    cv.NotifyOne();
    sim.Sleep(Ms(1));
    cv.NotifyOne();
    sim.Sleep(Ms(1));
    cv.NotifyOne();
  });
  sim.Run();
  EXPECT_EQ(woken, 3);
  EXPECT_EQ(sim.UnfinishedThreads(), 0u);
  ASSERT_FALSE(policy.factors().empty());
  // The first wake chose among 3 waiters, the second among the remaining 2;
  // the third wake has a single candidate and is invisible to the policy.
  bool saw_three_way = false;
  for (uint32_t factor : policy.factors()) {
    saw_three_way |= factor == 3;
  }
  EXPECT_TRUE(saw_three_way);
}

TEST(Simulation, DestructorReleasesBlockedThreads) {
  // A deadlocked program must not hang the test process.
  auto sim = std::make_unique<Simulation>(1);
  SimCondVar cv(sim.get());
  sim->Spawn("stuck", [&] { cv.Wait(); });
  sim->Run();
  EXPECT_EQ(sim->UnfinishedThreads(), 1u);
  sim.reset();  // must join cleanly
}

// ---- The fiber switch's contract: per-context FP control state, ABI stack
// alignment, and unwinding, on the main thread and on a util::ThreadPool
// worker, where a parallel suite runs its simulations. ----

struct SwitchCase {
  const char* name;
  bool on_pool_worker;
};

void PrintTo(const SwitchCase& c, std::ostream* os) { *os << c.name; }

// 1/3 with operands the compiler cannot fold: the SSE rounding mode (MXCSR)
// decides the last bit.
double Third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

// Address of a 16-byte-aligned local in a fresh frame, read back through a
// volatile so the compiler cannot assume the alignment being checked.
[[gnu::noinline]] uintptr_t AlignedLocalAddress() {
  alignas(16) char probe[16];
  volatile uintptr_t addr = reinterpret_cast<uintptr_t>(probe);
  return addr;
}

[[gnu::noinline]] void SleepThenThrow(Simulation& sim, TimeNs d) {
  sim.Sleep(d);
  throw std::runtime_error("after sleep");
}

using FiberBody = std::function<void(Simulation&, const std::function<void()>& note)>;

class FiberSwitch : public ::testing::TestWithParam<SwitchCase> {
 protected:
  // Runs `probe` and `pacer` in one simulation, on this thread or on a pool
  // worker. Both call note() on entry and after every resume; the probe's
  // records the host thread, which must be the one the simulation was
  // meant to run on.
  void RunPair(const FiberBody& probe, const FiberBody& pacer) {
    std::thread::id ran_on;
    std::thread::id probe_on;
    int probe_hops = 0;
    auto run = [&] {
      ran_on = std::this_thread::get_id();
      Simulation sim(1);
      sim.Spawn("probe", [&] {
        probe(sim, [&] { probe_hops += std::this_thread::get_id() != ran_on ? 1 : 0; });
        probe_on = std::this_thread::get_id();
      });
      sim.Spawn("pacer", [&] { pacer(sim, [] {}); });
      sim.Run();
      EXPECT_EQ(sim.UnfinishedThreads(), 0u);
      EXPECT_EQ(fegetround(), FE_TONEAREST) << "leaked into the running host thread";
    };
    if (GetParam().on_pool_worker) {
      util::ThreadPool pool(1);
      pool.Submit(run);
      pool.Wait();
      EXPECT_NE(ran_on, std::this_thread::get_id()) << "the simulation ran on the main thread";
    } else {
      run();
    }
    EXPECT_EQ(probe_on, ran_on);
    EXPECT_EQ(probe_hops, 0) << "the probe resumed on another host thread";
  }
};

TEST_P(FiberSwitch, FpControlStateIsPerContext) {
  const double nearest = Third();
  ASSERT_EQ(fegetround(), FE_TONEAREST);
  int probe_checks = 0;
  int pacer_checks = 0;
  RunPair(
      [&](Simulation& sim, const std::function<void()>& note) {
        note();
        ASSERT_EQ(fesetround(FE_UPWARD), 0);
        ASSERT_GT(Third(), nearest);
        // While the probe sleeps with FE_UPWARD set, the scheduler runs
        // this callback in its own context.
        sim.ScheduleCallback(sim.Now() + Us(10), [&] {
          EXPECT_EQ(fegetround(), FE_TONEAREST) << "leaked into the scheduler";
          EXPECT_EQ(Third(), nearest) << "MXCSR leaked into the scheduler";
        });
        for (int i = 0; i < 4; ++i) {
          sim.Sleep(Us(50));
          note();
          EXPECT_EQ(fegetround(), FE_UPWARD) << "lost across a switch";
          EXPECT_GT(Third(), nearest) << "MXCSR lost across a switch";
          probe_checks++;
        }
      },
      [&](Simulation& sim, const std::function<void()>& note) {
        for (int i = 0; i < 4; ++i) {
          note();
          EXPECT_EQ(fegetround(), FE_TONEAREST) << "leaked into another fiber";
          EXPECT_EQ(Third(), nearest) << "MXCSR leaked into another fiber";
          pacer_checks++;
          sim.Sleep(Us(25));
        }
      });
  EXPECT_EQ(probe_checks, 4);
  EXPECT_EQ(pacer_checks, 4);
  EXPECT_EQ(fegetround(), FE_TONEAREST) << "leaked into the host";
}

TEST_P(FiberSwitch, StackIsAbiAlignedAtEntryAndAfterResume) {
  auto check = [](const char* where) {
    alignas(16) char local[16];
    volatile uintptr_t addr = reinterpret_cast<uintptr_t>(local);
    EXPECT_EQ(addr % 16, 0u) << where;
    EXPECT_EQ(AlignedLocalAddress() % 16, 0u) << where;
  };
  auto body = [&](TimeNs nap) -> FiberBody {
    return [&, nap](Simulation& sim, const std::function<void()>& note) {
      note();
      check("fiber entry");
      for (int i = 0; i < 4; ++i) {
        sim.Sleep(nap);
        note();
        check("after resume");
      }
    };
  };
  RunPair(body(Us(50)), body(Us(25)));
}

TEST_P(FiberSwitch, ExceptionUnwindsAcrossSleepInsideFiber) {
  struct Guard {
    int* destroyed;
    ~Guard() { ++*destroyed; }
  };
  int caught = 0;
  auto body = [&](TimeNs nap) -> FiberBody {
    return [&, nap](Simulation& sim, const std::function<void()>& note) {
      note();
      for (int i = 0; i < 3; ++i) {
        int destroyed = 0;
        try {
          Guard guard{&destroyed};
          sim.Sleep(nap);
          note();
          SleepThenThrow(sim, nap);
          ADD_FAILURE() << "SleepThenThrow returned";
        } catch (const std::runtime_error& e) {
          note();
          EXPECT_STREQ(e.what(), "after sleep");
          EXPECT_EQ(destroyed, 1);
          caught++;
        }
        sim.Sleep(nap);  // the fiber keeps running after the catch
        note();
      }
    };
  };
  RunPair(body(Us(50)), body(Us(25)));
  EXPECT_EQ(caught, 6);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, FiberSwitch,
    ::testing::Values(SwitchCase{"fibers", false}, SwitchCase{"pool_worker", true}),
    [](const ::testing::TestParamInfo<SwitchCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace artc::sim
