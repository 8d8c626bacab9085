// Discrete-event simulation engine with blocking-style simulated threads.
//
// Every performance experiment in this repository runs in virtual time on
// this engine. Only one simulated thread executes at any instant: the
// scheduler transfers control to exactly one runnable thread and waits for
// it to yield (by blocking on a simulated primitive, sleeping, or
// finishing). This lets application models, the VFS, and the trace
// replayer be written in plain blocking style while virtual time advances
// deterministically.
//
// Every simulated thread is a user-space stackful coroutine (fiber) with
// its own owned stack. A simulated context switch is `artc_sim_switch`, an
// x86-64 routine that saves only the callee-saved registers and the FP
// control words, with no syscall. In a two-context ping-pong on a 4-vCPU
// Intel Xeon VM a round trip costs ~29 ns; glibc's context swap, which also
// saves and restores the signal mask with a syscall, cost ~500 ns. TSan and
// ASan are told about every switch (fiber API).
//
// A Simulation is one scheduler (clock, run queue, event queue, RNG) and
// runs wholly on the host thread that calls Run(). Independent simulations
// share nothing, so many may run at once on different host threads: that
// is how suite replays and sweeps use several cores (one simulated world
// per replay, core::ReplaySuiteOnSimTarget; DESIGN.md §5f).
//
// Determinism: a run is a pure function of (program, seed). When several
// threads are runnable at the same virtual instant, the scheduler picks one
// with its seeded RNG — this models OS scheduling nondeterminism, and
// varying the seed explores different interleavings of the same program.
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/util/rng.h"
#include "src/util/time.h"

namespace artc::sim {

class Simulation;

// Identifies a simulated thread: its dense spawn index, 0, 1, 2, ...
using SimThreadId = uint32_t;
inline constexpr SimThreadId kInvalidThread = UINT32_MAX;

// How a suite replay (core::ReplaySuiteOnSimTarget) runs its independent
// simulations. A single Simulation always runs on the host thread that
// calls Run(), whatever the backend.
enum class SimBackend : uint8_t {
  kFibers,    // one replay after another on the calling host thread
  kParallel,  // replays spread over a pool of host worker threads
};

// Internal per-thread record. Exposed only so SimCondVar can hold pointers.
struct ThreadState;
// Internal scheduler state (defined in simulation.cc).
struct Scheduler;

// The two kinds of scheduler choice point a SchedulePolicy can override.
enum class ChoicePoint : uint8_t {
  kRun,   // which ready thread runs next
  kWake,  // which condvar waiter NotifyOne wakes
};

// Overrides the scheduler's seeded-random choices; see src/sim/schedule.h
// for implementations. Pick() is called only when n >= 2 and must return an
// index < n. `sim_rng` is the simulation's stream: a policy may draw from
// it (perturbing downstream seeded decisions exactly like the default
// scheduler would) or keep a private stream and leave it untouched.
class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;
  virtual size_t Pick(ChoicePoint point, const SimThreadId* candidates, size_t n,
                      Rng& sim_rng) = 0;
};

// A condition variable for simulated threads. All waits are in virtual time;
// there is no spurious wakeup, but users should still re-check predicates
// because another thread may run between notify and wakeup.
class SimCondVar {
 public:
  explicit SimCondVar(Simulation* simulation) : sim_(simulation) {}
  SimCondVar(const SimCondVar&) = delete;
  SimCondVar& operator=(const SimCondVar&) = delete;
  // A moved condvar takes its waiters along: a waiter holds no pointer to
  // the condvar it waits on. Lets a table of condvars live in one vector.
  SimCondVar(SimCondVar&&) noexcept = default;

  // Blocks the calling simulated thread until notified.
  void Wait();
  // Wakes one waiter (seeded-random choice among waiters).
  void NotifyOne();
  // Wakes all waiters.
  void NotifyAll();

 private:
  Simulation* sim_;
  std::vector<ThreadState*> waiters_;
};

// A mutex for simulated threads. Execution is serialized by the scheduler,
// so this exists to model *contention* (waiting in virtual time), not to
// protect memory.
class SimMutex {
 public:
  explicit SimMutex(Simulation* simulation) : sim_(simulation), cv_(simulation) {}
  void Lock();
  void Unlock();
  bool Held() const { return locked_; }

 private:
  Simulation* sim_;
  SimCondVar cv_;
  bool locked_ = false;
};

// A cyclic barrier for simulated threads: the first count-1 arrivals block
// in virtual time; the count-th releases everyone and opens the next phase.
// Wait() returns true on the arrival that tripped the barrier (the pivot),
// mirroring PTHREAD_BARRIER_SERIAL_THREAD.
class SimBarrier {
 public:
  SimBarrier(Simulation* simulation, uint32_t count)
      : sim_(simulation), cv_(simulation), count_(count) {}
  SimBarrier(const SimBarrier&) = delete;
  SimBarrier& operator=(const SimBarrier&) = delete;

  bool Wait();

 private:
  Simulation* sim_;
  SimCondVar cv_;
  uint32_t count_;
  uint32_t arrived_ = 0;
  uint64_t phase_ = 0;
};

class Simulation {
 public:
  explicit Simulation(uint64_t seed);
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current virtual time.
  TimeNs Now() const;

  // The seed of replay `index` in a suite seeded with `seed`: index 0 keeps
  // the root seed, later ones get an independent splitmix-derived stream.
  // Suite harnesses seed replay k with ShardSeed(seed, k), so a standalone
  // run with that seed reproduces it exactly.
  static uint64_t ShardSeed(uint64_t seed, size_t index);

  // Creates a simulated thread. May be called before Run() or from within a
  // running simulated thread; the new thread becomes runnable at the
  // current virtual time.
  SimThreadId Spawn(std::string name, std::function<void()> body);

  // Runs the simulation until no runnable threads or pending events remain.
  // Must be called from the host (non-simulated) thread; the whole run stays
  // on it. Returns the final virtual time.
  TimeNs Run();

  // ---- Calls below are only legal from within a simulated thread. ----

  // Advances virtual time for the calling thread.
  void Sleep(TimeNs duration);

  // Blocks the calling thread until another thread wakes it via WakeThread.
  // Used by SimCondVar; rarely needed directly.
  void BlockCurrent();

  // Id and name of the calling simulated thread.
  SimThreadId CurrentThread() const;
  const std::string& CurrentThreadName() const;

  // Joins a simulated thread (blocks the caller in virtual time).
  void Join(SimThreadId tid);

  // ---- Callable from anywhere inside the simulation. ----

  // Schedules fn to run in scheduler context at virtual time `when`
  // (>= Now()). Callbacks must not block; they may wake threads and
  // schedule further callbacks. Returns an id usable with CancelCallback.
  uint64_t ScheduleCallback(TimeNs when, std::function<void()> fn);
  // Best-effort cancel; returns false if already fired or unknown.
  bool CancelCallback(uint64_t id);

  // Makes a blocked thread runnable at the current virtual time.
  void WakeThread(ThreadState* t);

  // The simulation's seeded RNG; also available to workloads that want
  // reproducible randomness tied to the run.
  Rng& rng();

  // Installs a schedule policy (non-owning; caller keeps it alive for the
  // simulation's lifetime). nullptr restores the built-in seeded-random
  // scheduler — a run with no policy is bit-identical to one never set.
  // Install before Run(); switching mid-run is legal but rarely useful.
  void SetSchedulePolicy(SchedulePolicy* policy);
  SchedulePolicy* schedule_policy() const;

  // Total context switches performed (diagnostics).
  uint64_t switch_count() const;

  // Number of PendingEvent records ever allocated (diagnostics). Completed
  // and cancelled events are recycled, so this tracks the maximum number of
  // *simultaneously outstanding* events, not the total scheduled.
  size_t allocated_event_count() const;

  // Fiber-stack pool diagnostics. Stacks are returned to a free pool when
  // their thread finishes and are reused by later spawns, so `allocated` is
  // the high-water mark of concurrently *live* threads, not the total ever
  // spawned.
  size_t FiberStacksAllocated() const;
  size_t FiberStacksInUse() const;

  // Number of simulated threads that have not run to completion. Nonzero
  // after Run() indicates a deadlock in the simulated program.
  size_t UnfinishedThreads() const;

  ThreadState* CurrentState() const;

 private:
  friend class SimCondVar;
  friend class SimMutex;

  void RunThread(ThreadState* t);  // scheduler: transfer control
  void YieldToScheduler(ThreadState* t, bool runnable_again);
  void FinishThread(ThreadState* t, bool aborted);  // body returned/unwound
  ThreadState* PickReady();
  // One scheduler choice among `candidates`: policy pick if installed,
  // otherwise the seeded-random draw. n == 1 short-circuits to 0 without
  // consuming randomness.
  size_t ChooseIndex(ChoicePoint point, const std::vector<ThreadState*>& candidates);

  static void FiberEntry();            // first frame of every fiber
  void FiberSwitchTo(ThreadState* t);  // scheduler/destructor -> fiber
  void FiberMain(ThreadState* t);      // fiber trampoline body

  std::unique_ptr<Scheduler> sched_;
  // Set by the destructor; read by the simulated threads it unwinds.
  bool shutdown_ = false;
};

// RAII lock for SimMutex.
class SimLockGuard {
 public:
  explicit SimLockGuard(SimMutex& mu) : mu_(mu) { mu_.Lock(); }
  ~SimLockGuard() { mu_.Unlock(); }
  SimLockGuard(const SimLockGuard&) = delete;
  SimLockGuard& operator=(const SimLockGuard&) = delete;

 private:
  SimMutex& mu_;
};

}  // namespace artc::sim

#endif  // SRC_SIM_SIMULATION_H_
