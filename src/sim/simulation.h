// Discrete-event simulation engine with blocking-style simulated threads.
//
// Every performance experiment in this repository runs in virtual time on
// this engine. Within one *shard* (time domain) only one simulated thread
// executes at any instant: the shard's scheduler transfers control to
// exactly one runnable thread and waits for it to yield (by blocking on a
// simulated primitive, sleeping, or finishing). This lets application
// models, the VFS, and the trace replayer be written in plain blocking
// style while virtual time advances deterministically.
//
// Every simulated thread is a user-space stackful coroutine (fiber) with
// its own owned stack. A simulated context switch is `artc_sim_switch`, an
// x86-64 routine that saves only the callee-saved registers and the FP
// control words, with no syscall. In a two-context ping-pong on a 4-vCPU
// Intel Xeon VM a round trip costs ~29 ns; glibc's context swap, which also
// saves and restores the signal mask with a syscall, cost ~500 ns. TSan and
// ASan are told about every switch (fiber API). Two backends decide which
// host threads drive the fibers:
//
//  - kFibers (default): every shard runs on the one host thread that called
//    Run().
//  - kParallel: the simulation is partitioned into SimConfig::shards
//    independent scheduler shards, each with its own virtual clock, run
//    queue, event queue, and RNG stream, distributed over N host worker
//    cores (shard i runs on worker i % N — the explicit core→shard map).
//    Shards advance in lockstep *windows* bounded by a conservative global
//    horizon (minimum next-dispatch time across shards plus the cross-shard
//    latency δ); cross-shard completions route through per-shard MPSC
//    mailboxes drained at window boundaries (src/sim/mailbox.h). Because
//    every cross-shard effect lands at least δ in the receiver's future,
//    the result is bit-identical regardless of worker count — including
//    worker count 1, which is how kFibers doubles as the parallel
//    backend's exactness oracle. A fiber may resume on a different worker
//    than it last ran on. See DESIGN.md §5f.
//
// Both backends share the per-shard scheduler itself (ready list, event
// queue, RNG), so a run is bit-identical across backends: same seed, same
// schedule, same virtual end time, same switch count.
//
// Determinism: a run is a pure function of (program, seed, SimConfig). When
// several threads are runnable at the same virtual instant, the shard picks
// one with its seeded RNG — this models OS scheduling nondeterminism, and
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

// Identifies a simulated thread: shard index in the high bits, dense
// per-shard index in the low bits. Shard 0 ids are plain 0,1,2,..., so a
// single-shard simulation (every simulation before SimConfig existed) sees
// the same ids it always did.
using SimThreadId = uint32_t;
inline constexpr SimThreadId kInvalidThread = UINT32_MAX;

// Bit 20 is reserved for obs pseudo-tracks (I/O scheduler, critpath
// overlay), so shard packing starts one bit above.
inline constexpr uint32_t kShardIdShift = 21;
inline constexpr SimThreadId kLocalThreadMask = (1u << kShardIdShift) - 1;

constexpr uint32_t ShardOfThread(SimThreadId id) { return id >> kShardIdShift; }
constexpr uint32_t LocalIndexOfThread(SimThreadId id) { return id & kLocalThreadMask; }
constexpr SimThreadId PackThreadId(uint32_t shard, uint32_t local) {
  return (shard << kShardIdShift) | local;
}

// Which host threads run a Simulation instance's fibers.
enum class SimBackend : uint8_t {
  kFibers,    // every shard on the host thread that called Run()
  kParallel,  // sharded windowed execution across host worker threads
};

// Backend names in enum order (the CLI --backend= vocabulary).
inline constexpr const char* kSimBackendNames[] = {"fibers", "parallel"};

// Parses a name in kSimBackendNames; returns false on anything else,
// leaving *out untouched.
bool ParseSimBackendName(const std::string& name, SimBackend* out);
const char* SimBackendName(SimBackend backend);

// Sharding/worker configuration. Only consulted beyond the defaults by
// multi-shard simulations; the zero-argument default is exactly the
// pre-kParallel engine.
struct SimConfig {
  // Independent scheduler shards (virtual time domains). Threads never
  // migrate between shards; see SpawnOnShard.
  size_t shards = 1;
  // Host worker threads for kParallel. 0 picks util::DefaultJobs()
  // (ARTC_JOBS / hardware_concurrency); always capped at `shards`.
  // Worker count never affects virtual-time results, only host wall time.
  size_t workers = 0;
  // δ: the minimum virtual-time latency of any cross-shard effect, and
  // therefore the width margin of every synchronization window. Larger
  // values mean fewer window barriers; the value is part of the simulated
  // semantics (a cross-shard join completion travels δ), so it must be
  // identical between runs being compared. Callers with storage-backed
  // shards typically widen this to the device's minimum service latency
  // (StorageStack lookahead); callers whose shards provably never interact
  // set kInfiniteLookahead instead — see DESIGN.md §5f.
  TimeNs cross_shard_latency = Us(5);
};

// Sentinel for SimConfig::cross_shard_latency declaring the shards fully
// independent (no cross-shard joins will ever be issued): the horizon
// becomes unbounded, so the whole run is a single window and each worker
// runs its shards to completion with exactly one barrier. Cross-shard Join
// under this sentinel is a programming error and aborts.
inline constexpr TimeNs kInfiniteLookahead = INT64_MAX / 2;

// Internal per-thread record. Exposed only so SimCondVar can hold pointers.
struct ThreadState;
// Internal per-shard scheduler state (defined in simulation.cc).
struct Shard;

// The two kinds of scheduler choice point a SchedulePolicy can override.
enum class ChoicePoint : uint8_t {
  kRun,   // which ready thread runs next
  kWake,  // which condvar waiter NotifyOne wakes
};

// Overrides the scheduler's seeded-random choices; see src/sim/schedule.h
// for implementations. Pick() is called only when n >= 2 and must return an
// index < n. `sim_rng` is the owning shard's stream: a policy may draw
// from it (perturbing downstream seeded decisions exactly like the default
// scheduler would) or keep a private stream and leave it untouched.
class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;
  virtual size_t Pick(ChoicePoint point, const SimThreadId* candidates, size_t n,
                      Rng& sim_rng) = 0;
};

// A condition variable for simulated threads. All waits are in virtual time;
// there is no spurious wakeup, but users should still re-check predicates
// because another thread may run between notify and wakeup. All waiters and
// notifiers must live on the same shard (cross-shard signalling goes
// through the mailbox protocol, not condvars).
class SimCondVar {
 public:
  explicit SimCondVar(Simulation* simulation) : sim_(simulation) {}
  SimCondVar(const SimCondVar&) = delete;
  SimCondVar& operator=(const SimCondVar&) = delete;

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

// A mutex for simulated threads. Execution within a shard is serialized by
// its scheduler, so this exists to model *contention* (waiting in virtual
// time), not to protect memory.
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
  explicit Simulation(uint64_t seed, SimBackend backend = SimBackend::kFibers,
                      SimConfig config = SimConfig{});
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current virtual time of the calling context's shard: the calling
  // simulated thread's shard, the shard whose window is executing (for
  // scheduler callbacks), or shard 0 from the host.
  TimeNs Now() const;

  // Virtual clock of one shard (host-side; e.g. after Run()).
  TimeNs ShardNow(size_t shard) const;

  // Backend this instance was constructed with.
  SimBackend backend() const { return backend_; }

  size_t shard_count() const;
  // Host workers the last Run() actually used (1 until Run is called).
  size_t worker_count() const { return workers_used_; }

  // The seed of shard `shard` in a simulation seeded with `seed`: shard 0
  // keeps the root seed (single-shard bit-compatibility), other shards get
  // an independent splitmix-derived stream. Public so suite harnesses can
  // construct a standalone single-shard run that is bit-identical to one
  // shard of a multi-shard run.
  static uint64_t ShardSeed(uint64_t seed, size_t shard);

  // Creates a simulated thread on the calling context's shard (shard 0 from
  // the host). May be called before Run() or from within a running
  // simulated thread; the new thread becomes runnable at the shard's
  // current virtual time.
  SimThreadId Spawn(std::string name, std::function<void()> body);

  // Creates a simulated thread on a specific shard. Host-side only (before
  // Run()); once running, threads may only spawn onto their own shard.
  SimThreadId SpawnOnShard(size_t shard, std::string name, std::function<void()> body);

  // Runs the simulation until no runnable threads or pending events remain
  // on any shard and no cross-shard messages are in flight. Must be called
  // from the host (non-simulated) thread. Returns the final virtual time
  // (the maximum across shards).
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

  // Joins a simulated thread (blocks the caller in virtual time). Joining
  // across shards is legal and costs at least one cross-shard latency δ
  // each way (the completion notification travels through the mailbox).
  void Join(SimThreadId tid);

  // ---- Callable from anywhere inside the simulation. ----

  // Schedules fn to run in scheduler context of the calling context's shard
  // at virtual time `when` (>= Now()). Callbacks must not block; they may
  // wake threads and schedule further callbacks. Returns an id usable with
  // CancelCallback.
  uint64_t ScheduleCallback(TimeNs when, std::function<void()> fn);
  // Best-effort cancel; returns false if already fired or unknown.
  bool CancelCallback(uint64_t id);

  // Makes a blocked thread runnable at the current virtual time. The thread
  // must belong to the calling context's shard.
  void WakeThread(ThreadState* t);

  // Seeded RNG of the calling context's shard; also available to workloads
  // that want reproducible randomness tied to the run.
  Rng& rng();

  // Installs a schedule policy on shard 0 (non-owning; caller keeps it
  // alive for the simulation's lifetime). nullptr restores the built-in
  // seeded-random scheduler — a run with no policy is bit-identical to one
  // never set. Install before Run(); switching mid-run is legal but rarely
  // useful.
  void SetSchedulePolicy(SchedulePolicy* policy);
  SchedulePolicy* schedule_policy() const;
  // Per-shard policies for multi-shard simulations (host-side, pre-Run).
  void SetShardSchedulePolicy(size_t shard, SchedulePolicy* policy);

  // Total context switches performed across all shards (diagnostics).
  uint64_t switch_count() const;
  // Context switches one shard performed.
  uint64_t ShardSwitchCount(size_t shard) const;

  // Number of PendingEvent records ever allocated (diagnostics). Completed
  // and cancelled events are recycled, so this tracks the maximum number of
  // *simultaneously outstanding* events, not the total scheduled.
  size_t allocated_event_count() const;

  // Fiber-stack pool diagnostics. Stacks are returned to a per-shard free
  // pool when their thread finishes and are reused by later spawns, so
  // `allocated` is the high-water mark of concurrently *live* threads, not
  // the total ever spawned.
  size_t FiberStacksAllocated() const;
  size_t FiberStacksInUse() const;

  // Cross-shard mailbox messages delivered and synchronization windows
  // executed (diagnostics; 0 for single-shard non-parallel runs).
  uint64_t MessagesDelivered() const { return messages_delivered_; }
  uint64_t WindowCount() const { return windows_; }

  // Number of simulated threads that have not run to completion. Nonzero
  // after Run() indicates a deadlock in the simulated program.
  size_t UnfinishedThreads() const;

  ThreadState* CurrentState() const;

 private:
  friend class SimCondVar;
  friend class SimMutex;
  struct WorkerTeam;

  // Sentinel "no event / unbounded horizon" virtual time.
  static constexpr TimeNs kNoWork = INT64_MAX;

  Shard* ActiveShard() const;    // calling context's shard (see Now())
  Shard* ShardAt(size_t i) const;
  SimThreadId SpawnOn(Shard* s, std::string name, std::function<void()> body);

  void RunThread(Shard* s, ThreadState* t);  // scheduler: transfer control
  void YieldToScheduler(ThreadState* t, bool runnable_again);
  void FinishThread(ThreadState* t, bool aborted);  // body returned/unwound
  ThreadState* PickReady(Shard* s);
  // One scheduler choice among `candidates` (all on shard s): policy pick
  // if installed, otherwise the shard's seeded-random draw. n == 1
  // short-circuits to 0 without consuming randomness.
  size_t ChooseIndex(Shard* s, ChoicePoint point,
                     const std::vector<ThreadState*>& candidates);

  // Windowed execution (multi-shard and kParallel).
  TimeNs RunWindowed();
  // Processes shard work strictly below `horizon` (ready threads first,
  // then due events), exactly the legacy scheduler loop when horizon is
  // kNoWork. Runs with the shard marked active on the calling host thread.
  void RunShardWindow(Shard* s, TimeNs horizon);
  TimeNs NextDispatchTime(Shard* s);   // kNoWork when the shard is idle
  // Drains every mailbox into its shard's event queue; true if any message
  // landed. Refreshes receiving shards' entries in *next_dispatch when given.
  bool DeliverMessages(std::vector<TimeNs>* next_dispatch = nullptr);
  void ApplyMessage(Shard* s, const struct ShardMessage& m);
  void SendJoinDone(Shard* from, SimThreadId joiner);

  static void FiberEntry();            // first frame of every fiber
  void FiberSwitchTo(Shard* s, ThreadState* t);  // scheduler/destructor -> fiber
  void FiberMain(ThreadState* t);      // fiber trampoline body

  SimBackend backend_;
  SimConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t workers_used_ = 1;
  uint64_t messages_delivered_ = 0;
  uint64_t windows_ = 0;
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
