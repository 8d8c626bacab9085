#include "src/sim/simulation.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <iterator>
#include <mutex>
#include <queue>
#include <thread>

#include "src/obs/obs.h"
#include "src/sim/mailbox.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

// Sanitizers cannot see a hand-rolled stack switch, so the switch wrapper
// below tells them about every fiber. GCC defines __SANITIZE_*__; clang
// reports the same through __has_feature.
#if defined(__SANITIZE_THREAD__)
#define ARTC_TSAN_FIBERS 1
#endif
#if defined(__SANITIZE_ADDRESS__)
#define ARTC_ASAN_FIBERS 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) && !defined(ARTC_TSAN_FIBERS)
#define ARTC_TSAN_FIBERS 1
#endif
#if __has_feature(address_sanitizer) && !defined(ARTC_ASAN_FIBERS)
#define ARTC_ASAN_FIBERS 1
#endif
#endif
#ifdef ARTC_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif
#ifdef ARTC_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

#if !defined(__x86_64__)
#error "artc_sim_switch in src/sim/simulation.cc is x86-64 SysV only; port that one function"
#endif

// Saves the running context's callee-saved state on its own stack, stores
// the resulting stack pointer in *save_sp, and resumes the context whose
// stack pointer is next_sp. The saved frame, from next_sp upwards, is: x87
// control word (2 bytes, then padding), MXCSR at +8, r15, r14, r13, r12,
// rbx, rbp, return address. Like glibc's context swap it keeps the FP
// control state per context; unlike it, it never touches the signal mask,
// so a switch is a handful of instructions with no syscall.
extern "C" void artc_sim_switch(void** save_sp, void* next_sp);

asm(R"(
  .text
  .globl artc_sim_switch
  .type artc_sim_switch, @function
  .p2align 4
artc_sim_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr 8(%rsp)
  fldcw (%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size artc_sim_switch, .-artc_sim_switch
)");

namespace artc::sim {

// One side of a fiber switch: a fiber, or the shard scheduler running on
// whichever host thread drives the shard. `sp` is only meaningful while the
// context is switched out.
struct FiberContext {
  void* sp = nullptr;
#ifdef ARTC_TSAN_FIBERS
  void* tsan_fiber = nullptr;
#endif
#ifdef ARTC_ASAN_FIBERS
  const void* stack_bottom = nullptr;
  size_t stack_size = 0;
  void* fake_stack = nullptr;
#endif
};

namespace {

// Switches from the running context `from` to `to`, returning when `to`
// switches back. Every switch is scheduler <-> fiber, so whoever resumes
// `from` is always `to`; the sanitizer bookkeeping relies on that. A fiber
// that finished passes `exiting`: its stack is never resumed.
void SwitchContext(FiberContext* from, FiberContext* to, [[maybe_unused]] bool exiting) {
#ifdef ARTC_TSAN_FIBERS
  from->tsan_fiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(to->tsan_fiber, 0);
#endif
#ifdef ARTC_ASAN_FIBERS
  __sanitizer_start_switch_fiber(exiting ? nullptr : &from->fake_stack,
                                 to->stack_bottom, to->stack_size);
#endif
  artc_sim_switch(&from->sp, to->sp);
#ifdef ARTC_ASAN_FIBERS
  // `to` resumed us, possibly from another host thread's stack (kParallel).
  __sanitizer_finish_switch_fiber(from->fake_stack, &to->stack_bottom, &to->stack_size);
#endif
}

// Tells ASan the first switch into a fresh fiber has landed; records the
// scheduler's stack, which the fiber switches back to.
void FinishFirstSwitch([[maybe_unused]] FiberContext* sched) {
#ifdef ARTC_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &sched->stack_bottom, &sched->stack_size);
#endif
}

// Lays out a fresh stack as artc_sim_switch would have saved it, so the
// first switch into it returns into `entry` with the stack aligned as a call
// leaves it (rsp + 8 a multiple of 16). Above the return address sits a
// zero "return address" for `entry` itself, which ends unwinding there. The
// FP control state starts as the creating context's.
void* InitialFrame(char* stack, size_t size, void (*entry)()) {
  uint32_t mxcsr;
  uint16_t fpu_cw;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  const uintptr_t top = (reinterpret_cast<uintptr_t>(stack) + size) & ~uintptr_t{15};
  uint64_t* frame = reinterpret_cast<uint64_t*>(top) - 10;
  std::fill(frame, frame + 10, 0);
  frame[0] = fpu_cw;
  frame[1] = mxcsr;
  frame[8] = reinterpret_cast<uint64_t>(entry);  // frame[2..7]: r15..rbp
  return frame;
}

// Thrown out of blocking primitives when the Simulation is destroyed while
// threads are still blocked (e.g., a deadlocked test); unwinds the simulated
// thread so its fiber stack can be reclaimed.
struct SimShutdown {};

// Owned stack for one fiber. Replay threads call through the VFS and the
// storage stack but nothing recursion-heavy; 512 KiB leaves a wide margin
// while keeping even a 100-fiber simulation under ~50 MB. Stacks go back to
// the shard's pool when their thread finishes, so peak RSS tracks the
// maximum number of *live* threads, not the total ever spawned.
constexpr size_t kFiberStackBytes = 512 * 1024;

// A ScheduleCallback id names where its event record lives: the shard in
// the top 11 bits (thread ids pack at most 2^11 shards), the record's slot
// in the shard's event pool in the next 21, and the slot's generation in
// the low 32. A record takes the next generation each time it carries a
// callback, and CancelCallback matches the whole id against the record's,
// so a stale id never cancels a later callback unless the same slot
// carried 2^32 callbacks in between. Generation 0 is skipped, so no
// id is 0.
constexpr int kCallbackShardShift = 53;
constexpr int kCallbackSlotShift = 32;
constexpr uint64_t kCallbackSlotLimit = uint64_t{1} << (kCallbackShardShift - kCallbackSlotShift);

constexpr uint64_t MakeCallbackId(uint32_t shard, uint32_t slot, uint32_t generation) {
  return (static_cast<uint64_t>(shard) << kCallbackShardShift) |
         (static_cast<uint64_t>(slot) << kCallbackSlotShift) | generation;
}

}  // namespace

struct PendingEvent {
  TimeNs when;
  uint64_t seq;  // tie-break for stable ordering
  ThreadState* thread;              // wake this thread, or
  std::function<void()> callback;   // run this callback
  uint64_t callback_id;             // 0 unless it holds a live callback
  bool cancelled;
  uint32_t slot = 0;                // index in the shard's event_pool
  uint32_t generation = 0;          // of the last callback id given out here
};

namespace {

struct EventCompare {
  bool operator()(const PendingEvent* a, const PendingEvent* b) const {
    if (a->when != b->when) {
      return a->when > b->when;
    }
    return a->seq > b->seq;
  }
};

}  // namespace

struct ThreadState {
  enum class Run { kReady, kRunning, kBlocked, kDone };

  SimThreadId id = kInvalidThread;
  std::string name;
  std::function<void()> body;
  Run state = Run::kReady;
  std::vector<ThreadState*> joiners;       // same-shard joiners
  std::vector<SimThreadId> cross_joiners;  // cross-shard joiners, notified
                                           // through the mailbox on finish
  Simulation* sim = nullptr;
  Shard* shard = nullptr;

  // The stack comes from the shard pool lazily on first schedule, so
  // spawned-but-never-run threads cost only this record.
  FiberContext ctx;
  std::unique_ptr<char[]> stack;
  bool fiber_started = false;
};

// One scheduler shard: an independent virtual time domain with its own
// clock, RNG stream, run queue, event queue, and — under kParallel — host
// worker. Everything the pre-kParallel Simulation kept as direct members
// lives here now; a single-shard simulation is one Shard driven by the
// original scheduler loop.
struct Shard {
  Shard(Simulation* simulation, uint32_t shard_index, uint64_t seed)
      : sim(simulation), index(shard_index), rng(seed) {}

  Simulation* sim;
  uint32_t index;
  TimeNs now = 0;
  Rng rng;
  SchedulePolicy* policy = nullptr;      // non-owning
  std::vector<SimThreadId> policy_ids;   // scratch for policy candidate lists
  uint64_t seq = 0;
  uint64_t switches = 0;
  uint64_t sends = 0;  // cross-shard messages sent (deterministic sort key)

  std::vector<std::unique_ptr<ThreadState>> threads;
  std::vector<ThreadState*> ready;
  std::priority_queue<PendingEvent*, std::vector<PendingEvent*>, EventCompare> events;
  // Owns every PendingEvent ever allocated; bounded by the maximum number of
  // events simultaneously outstanding (completed ones are recycled through
  // free_events, so a long run does not grow this without bound).
  std::deque<std::unique_ptr<PendingEvent>> event_pool;
  std::vector<PendingEvent*> free_events;

  // The shard scheduler's own context; fibers resume it when they yield or
  // finish. Its saved stack pointer is rewritten by every switch *from* the
  // currently driving host thread, which is what lets the destructor unwind
  // fibers that last ran on a worker.
  FiberContext sched;
  // Stacks of finished threads, reused by later spawns.
  std::vector<std::unique_ptr<char[]>> free_stacks;
  size_t stacks_allocated = 0;
  size_t stacks_in_use = 0;

  // Incoming cross-shard messages, drained at window barriers.
  ShardMailbox inbox;

  // Lazily-registered per-shard metric ids (kParallel introspection: which
  // shards carry the load, and how much host time each one burns).
  obs::MetricId obs_windows{};
  obs::MetricId obs_busy_ns{};
  bool obs_ids_ready = false;
};

namespace {

// The simulated thread currently executing on this host thread. Everything
// belonging to a shard runs on the host thread driving that shard, so the
// scheduler updates this around every fiber switch.
thread_local ThreadState* g_current = nullptr;

// Argument hand-off into a starting fiber: FiberEntry is entered by the
// switch's `ret`, not by a call, so FiberSwitchTo parks the target here
// immediately before the first switch into it.
thread_local ThreadState* g_fiber_launch = nullptr;

// The shard whose scheduler loop is executing on this host thread. Gives
// scheduler-context callbacks (device completions, timers) their shard for
// Now()/rng()/ScheduleCallback without a current thread.
thread_local Shard* g_active_shard = nullptr;

class ScopedActiveShard {
 public:
  explicit ScopedActiveShard(Shard* s) : prev_(g_active_shard) { g_active_shard = s; }
  ~ScopedActiveShard() { g_active_shard = prev_; }
  ScopedActiveShard(const ScopedActiveShard&) = delete;
  ScopedActiveShard& operator=(const ScopedActiveShard&) = delete;

 private:
  Shard* prev_;
};

}  // namespace

void Simulation::FiberEntry() {
  ThreadState* t = g_fiber_launch;
  g_fiber_launch = nullptr;
  FinishFirstSwitch(&t->shard->sched);
  t->sim->FiberMain(t);
  // The fiber is done: switch to the shard scheduler for the last time (on
  // whichever host thread now drives the shard); it returns this stack to
  // the pool.
  SwitchContext(&t->ctx, &t->shard->sched, /*exiting=*/true);
  __builtin_unreachable();
}

void Simulation::FiberMain(ThreadState* t) {
  bool aborted = false;
  try {
    t->body();
  } catch (const SimShutdown&) {
    aborted = true;
  }
  FinishThread(t, aborted);
}

bool ParseSimBackendName(const std::string& name, SimBackend* out) {
  for (size_t i = 0; i < std::size(kSimBackendNames); ++i) {
    if (name == kSimBackendNames[i]) {
      *out = static_cast<SimBackend>(i);
      return true;
    }
  }
  return false;
}

const char* SimBackendName(SimBackend backend) {
  return kSimBackendNames[static_cast<size_t>(backend)];
}

uint64_t Simulation::ShardSeed(uint64_t seed, size_t shard) {
  if (shard == 0) {
    return seed;  // single-shard bit-compatibility with the original engine
  }
  // splitmix64 over (seed, shard) for independent per-shard streams.
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(shard);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Simulation::Simulation(uint64_t seed, SimBackend backend, SimConfig config)
    : backend_(backend), config_(config) {
  ARTC_CHECK_MSG(config_.shards >= 1, "SimConfig::shards must be >= 1");
  ARTC_CHECK_MSG(config_.shards <= (1u << (32 - kShardIdShift)),
                 "SimConfig::shards exceeds the thread-id shard field");
  ARTC_CHECK_MSG(config_.cross_shard_latency > 0,
                 "cross-shard latency must be positive (it is the window margin)");
  shards_.reserve(config_.shards);
  for (size_t k = 0; k < config_.shards; ++k) {
    shards_.push_back(std::make_unique<Shard>(this, static_cast<uint32_t>(k),
                                              ShardSeed(seed, k)));
  }
}

Simulation::~Simulation() {
  shutdown_ = true;
  // Resume every unfinished fiber so it throws SimShutdown out of its
  // blocking primitive, unwinding its stack (running destructors) before the
  // stacks are freed. Index-based: an unwinding destructor may Spawn. Safe on
  // this host thread even for fibers that last ran on a worker: the switch
  // rewrites the shard's saved scheduler context in place.
  for (auto& sp : shards_) {
    Shard* s = sp.get();
    ScopedActiveShard active(s);
    for (size_t i = 0; i < s->threads.size(); ++i) {
      ThreadState* t = s->threads[i].get();
      if (t->fiber_started && t->state != ThreadState::Run::kDone) {
        FiberSwitchTo(s, t);
      }
    }
  }
}

Shard* Simulation::ActiveShard() const {
  if (g_current != nullptr && g_current->sim == this) {
    return g_current->shard;
  }
  if (g_active_shard != nullptr && g_active_shard->sim == this) {
    return g_active_shard;
  }
  return shards_[0].get();
}

Shard* Simulation::ShardAt(size_t i) const {
  ARTC_CHECK(i < shards_.size());
  return shards_[i].get();
}

size_t Simulation::shard_count() const { return shards_.size(); }

TimeNs Simulation::Now() const { return ActiveShard()->now; }

TimeNs Simulation::ShardNow(size_t shard) const { return ShardAt(shard)->now; }

Rng& Simulation::rng() { return ActiveShard()->rng; }

void Simulation::SetSchedulePolicy(SchedulePolicy* policy) {
  shards_[0]->policy = policy;
}

SchedulePolicy* Simulation::schedule_policy() const { return shards_[0]->policy; }

void Simulation::SetShardSchedulePolicy(size_t shard, SchedulePolicy* policy) {
  ShardAt(shard)->policy = policy;
}

uint64_t Simulation::switch_count() const {
  uint64_t n = 0;
  for (const auto& sp : shards_) {
    n += sp->switches;
  }
  return n;
}

uint64_t Simulation::ShardSwitchCount(size_t shard) const {
  return ShardAt(shard)->switches;
}

size_t Simulation::allocated_event_count() const {
  size_t n = 0;
  for (const auto& sp : shards_) {
    n += sp->event_pool.size();
  }
  return n;
}

size_t Simulation::FiberStacksAllocated() const {
  size_t n = 0;
  for (const auto& sp : shards_) {
    n += sp->stacks_allocated;
  }
  return n;
}

size_t Simulation::FiberStacksInUse() const {
  size_t n = 0;
  for (const auto& sp : shards_) {
    n += sp->stacks_in_use;
  }
  return n;
}

SimThreadId Simulation::Spawn(std::string name, std::function<void()> body) {
  return SpawnOn(ActiveShard(), std::move(name), std::move(body));
}

SimThreadId Simulation::SpawnOnShard(size_t shard, std::string name,
                                     std::function<void()> body) {
  ARTC_CHECK_MSG(g_current == nullptr && g_active_shard == nullptr,
                 "SpawnOnShard is host-side only (threads spawn onto their own "
                 "shard with Spawn)");
  return SpawnOn(ShardAt(shard), std::move(name), std::move(body));
}

SimThreadId Simulation::SpawnOn(Shard* s, std::string name, std::function<void()> body) {
  ARTC_CHECK_MSG(s->threads.size() < kLocalThreadMask,
                 "per-shard simulated thread limit exceeded");
  auto t = std::make_unique<ThreadState>();
  t->id = PackThreadId(s->index, static_cast<uint32_t>(s->threads.size()));
  t->name = std::move(name);
  t->body = std::move(body);
  t->sim = this;
  t->shard = s;
  t->state = ThreadState::Run::kReady;
  ThreadState* raw = t.get();
  s->threads.push_back(std::move(t));
  s->ready.push_back(raw);
  ARTC_OBS_IF_ENABLED {
    // Label the simulated thread's virtual-time track ("replay-3", "init",
    // ...) so trace viewers show sim thread names, not bare ids.
    obs::DefaultTracer().SetTrackName(obs::ClockDomain::kVirtual, raw->id,
                                      raw->name);
  }
  return raw->id;
}

void Simulation::FinishThread(ThreadState* t, bool aborted) {
  t->state = ThreadState::Run::kDone;
  if (aborted) {
    return;  // shutdown unwind: joiners are unwound separately
  }
  Shard* s = t->shard;
  for (ThreadState* j : t->joiners) {
    ARTC_CHECK(j->state == ThreadState::Run::kBlocked);
    j->state = ThreadState::Run::kReady;
    s->ready.push_back(j);
  }
  t->joiners.clear();
  for (SimThreadId joiner : t->cross_joiners) {
    SendJoinDone(s, joiner);
  }
  t->cross_joiners.clear();
}

// ---- Fiber switching ----

void Simulation::FiberSwitchTo(Shard* s, ThreadState* t) {
  if (!t->fiber_started) {
    if (!s->free_stacks.empty()) {
      t->stack = std::move(s->free_stacks.back());
      s->free_stacks.pop_back();
    } else {
      t->stack = std::make_unique<char[]>(kFiberStackBytes);
      s->stacks_allocated++;
    }
    s->stacks_in_use++;
    t->ctx.sp = InitialFrame(t->stack.get(), kFiberStackBytes, &Simulation::FiberEntry);
#ifdef ARTC_TSAN_FIBERS
    t->ctx.tsan_fiber = __tsan_create_fiber(0);
#endif
#ifdef ARTC_ASAN_FIBERS
    t->ctx.stack_bottom = t->stack.get();
    t->ctx.stack_size = kFiberStackBytes;
#endif
    t->fiber_started = true;
    g_fiber_launch = t;
  }
  g_current = t;
  SwitchContext(&s->sched, &t->ctx, /*exiting=*/false);
  g_current = nullptr;
  if (t->state == ThreadState::Run::kDone && t->stack != nullptr) {
    // The fiber ran to completion (or unwound) and switched back for the
    // last time; its stack is dead and goes back to the shard pool.
#ifdef ARTC_TSAN_FIBERS
    __tsan_destroy_fiber(t->ctx.tsan_fiber);
    t->ctx.tsan_fiber = nullptr;
#endif
    s->free_stacks.push_back(std::move(t->stack));
    s->stacks_in_use--;
  }
}

// ---- Scheduler ----

size_t Simulation::ChooseIndex(Shard* s, ChoicePoint point,
                               const std::vector<ThreadState*>& candidates) {
  const size_t n = candidates.size();
  if (n == 1) {
    return 0;
  }
  if (s->policy == nullptr) {
    return s->rng.NextBelow(n);
  }
  s->policy_ids.clear();
  for (ThreadState* t : candidates) {
    s->policy_ids.push_back(t->id);
  }
  size_t pick = s->policy->Pick(point, s->policy_ids.data(), n, s->rng);
  ARTC_CHECK_MSG(pick < n, "schedule policy returned an out-of-range pick");
  return pick;
}

ThreadState* Simulation::PickReady(Shard* s) {
  ARTC_CHECK(!s->ready.empty());
  size_t idx = ChooseIndex(s, ChoicePoint::kRun, s->ready);
  ThreadState* t = s->ready[idx];
  s->ready[idx] = s->ready.back();
  s->ready.pop_back();
  return t;
}

void Simulation::RunThread(Shard* s, ThreadState* t) {
  s->switches++;
  ARTC_OBS_COUNT("sim.context_switches", 1);
  // Depth includes the thread being dispatched, so an idle shard with one
  // runnable thread observes 1, matching run-queue-depth convention.
  ARTC_OBS_OBSERVE("sim.run_queue_depth", s->ready.size() + 1);
  t->state = ThreadState::Run::kRunning;
  FiberSwitchTo(s, t);
}

namespace {

PendingEvent* AllocEvent(Shard* s) {
  if (!s->free_events.empty()) {
    PendingEvent* ev = s->free_events.back();
    s->free_events.pop_back();
    return ev;
  }
  s->event_pool.push_back(std::make_unique<PendingEvent>());
  PendingEvent* ev = s->event_pool.back().get();
  ev->slot = static_cast<uint32_t>(s->event_pool.size() - 1);
  return ev;
}

void ReleaseEvent(Shard* s, PendingEvent* ev) {
  ev->thread = nullptr;
  ev->callback = nullptr;  // drop captured state now, not at teardown
  ev->callback_id = 0;
  ev->cancelled = false;
  s->free_events.push_back(ev);
}

}  // namespace

void Simulation::RunShardWindow(Shard* s, TimeNs horizon) {
  // Host-clock-only introspection: per-shard window and busy-time counters.
  // Virtual time is never read here, so scrapes cannot perturb the replay.
  int64_t obs_t0 = 0;
  ARTC_OBS_IF_ENABLED {
    if (!s->obs_ids_ready) {
      char name[48];
      std::snprintf(name, sizeof(name), "sim.shard.%u.windows", s->index);
      s->obs_windows = obs::DefaultRegistry().Counter(name);
      std::snprintf(name, sizeof(name), "sim.shard.%u.busy_ns", s->index);
      s->obs_busy_ns = obs::DefaultRegistry().Counter(name);
      s->obs_ids_ready = true;
    }
    obs_t0 = obs::DefaultTracer().HostNowNs();
  }
  // Exactly the original scheduler loop, bounded: ready threads first, then
  // due events, stopping (instead of finishing) once the next event lies at
  // or beyond the horizon. kNoWork as the horizon is the unbounded original.
  while (true) {
    if (!s->ready.empty()) {
      RunThread(s, PickReady(s));
      continue;
    }
    if (s->events.empty()) {
      break;
    }
    PendingEvent* ev = s->events.top();
    if (ev->cancelled) {
      s->events.pop();
      ReleaseEvent(s, ev);
      continue;
    }
    if (ev->when >= horizon) {
      break;
    }
    s->events.pop();
    ARTC_CHECK(ev->when >= s->now);
    s->now = ev->when;
    if (ev->thread != nullptr) {
      ARTC_CHECK(ev->thread->state == ThreadState::Run::kBlocked);
      ev->thread->state = ThreadState::Run::kReady;
      s->ready.push_back(ev->thread);
      ReleaseEvent(s, ev);
    } else if (ev->callback) {
      auto fn = std::move(ev->callback);
      ReleaseEvent(s, ev);
      fn();
    }
  }
  ARTC_OBS_IF_ENABLED {
    obs::DefaultRegistry().Add(s->obs_windows, 1);
    obs::DefaultRegistry().Add(s->obs_busy_ns,
                               obs::DefaultTracer().HostNowNs() - obs_t0);
  }
}

TimeNs Simulation::NextDispatchTime(Shard* s) {
  if (!s->ready.empty()) {
    return s->now;
  }
  while (!s->events.empty() && s->events.top()->cancelled) {
    PendingEvent* ev = s->events.top();
    s->events.pop();
    ReleaseEvent(s, ev);
  }
  if (s->events.empty()) {
    return kNoWork;
  }
  return s->events.top()->when;
}

bool Simulation::DeliverMessages(std::vector<TimeNs>* next_dispatch) {
  bool any = false;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard* s = shards_[i].get();
    std::vector<ShardMessage> msgs = s->inbox.DrainSorted();
    if (msgs.empty()) {
      continue;
    }
    any = true;
    ARTC_OBS_OBSERVE("sim.mailbox_depth", msgs.size());
    ARTC_OBS_COUNT("sim.messages_delivered", msgs.size());
    for (const ShardMessage& m : msgs) {
      messages_delivered_++;
      // The horizon rule guarantees this: effect = sender time + δ >= the
      // window horizon, and no shard processed anything at or past it.
      ARTC_CHECK_MSG(m.effect >= s->now,
                     "cross-shard message would land in the receiver's past");
      PendingEvent* ev = AllocEvent(s);
      ev->when = m.effect;
      ev->seq = s->seq++;
      ev->thread = nullptr;
      ShardMessage copy = m;
      ev->callback = [this, s, copy] { ApplyMessage(s, copy); };
      ev->callback_id = 0;  // not cancellable
      ev->cancelled = false;
      s->events.push(ev);
    }
    if (next_dispatch != nullptr) {
      (*next_dispatch)[i] = NextDispatchTime(s);
    }
  }
  if (any) {
    ARTC_OBS_COUNT("sim.cross_shard_messages", 1);
  }
  return any;
}

void Simulation::ApplyMessage(Shard* s, const ShardMessage& m) {
  switch (m.kind) {
    case ShardMessage::Kind::kJoinRequest: {
      const uint32_t local = LocalIndexOfThread(m.target);
      ARTC_CHECK(local < s->threads.size());
      ThreadState* target = s->threads[local].get();
      if (target->state == ThreadState::Run::kDone) {
        SendJoinDone(s, m.joiner);
      } else {
        target->cross_joiners.push_back(m.joiner);
      }
      break;
    }
    case ShardMessage::Kind::kJoinDone: {
      const uint32_t local = LocalIndexOfThread(m.joiner);
      ARTC_CHECK(local < s->threads.size());
      WakeThread(s->threads[local].get());
      break;
    }
  }
}

void Simulation::SendJoinDone(Shard* from, SimThreadId joiner) {
  Shard* to = ShardAt(ShardOfThread(joiner));
  ShardMessage m;
  m.kind = ShardMessage::Kind::kJoinDone;
  m.effect = from->now + config_.cross_shard_latency;
  m.from_shard = from->index;
  m.from_seq = from->sends++;
  m.joiner = joiner;
  to->inbox.Push(m);
}

// Barrier state for the kParallel worker team. Workers wake on a generation
// bump, run one window for each shard they own, and report back; the
// coordinator (the Run() caller) computes horizons and drains mailboxes
// strictly between windows.
struct Simulation::WorkerTeam {
  std::mutex mu;
  std::condition_variable start_cv;
  std::condition_variable done_cv;
  uint64_t generation = 0;
  size_t pending = 0;
  TimeNs horizon = 0;
  // Cached per-shard next-dispatch times, owned by the coordinator; workers
  // read it during a window (the coordinator never writes between the
  // generation bump and the done barrier) to skip shards with nothing due.
  const std::vector<TimeNs>* next_dispatch = nullptr;
  bool exiting = false;
  std::vector<std::thread> threads;
};

TimeNs Simulation::RunWindowed() {
  const size_t shard_n = shards_.size();
  size_t workers = 1;
  if (backend_ == SimBackend::kParallel) {
    workers = config_.workers != 0 ? config_.workers : util::DefaultJobs();
    workers = std::min(workers, shard_n);
    if (workers == 0) {
      workers = 1;
    }
  }
  workers_used_ = workers;

  WorkerTeam team;
  if (workers > 1) {
    team.threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      // Static shard→worker map: worker w owns shards w, w+N, w+2N, ...
      // Shard state may still move between host threads (single-active-shard
      // windows run on the coordinator below) — safe because a shard's
      // saved scheduler context is rewritten on every switch into one of
      // its fibers and the barrier serializes all of a shard's windows.
      team.threads.emplace_back([this, &team, w, workers] {
        uint64_t seen = 0;
        while (true) {
          TimeNs horizon;
          const std::vector<TimeNs>* next_dispatch;
          {
            std::unique_lock<std::mutex> lk(team.mu);
            team.start_cv.wait(lk, [&] { return team.generation != seen || team.exiting; });
            if (team.exiting) {
              return;
            }
            seen = team.generation;
            horizon = team.horizon;
            next_dispatch = team.next_dispatch;
          }
          for (size_t i = w; i < shards_.size(); i += workers) {
            if ((*next_dispatch)[i] >= horizon) {
              continue;  // nothing due below the horizon
            }
            Shard* s = shards_[i].get();
            ScopedActiveShard active(s);
            RunShardWindow(s, horizon);
          }
          {
            std::lock_guard<std::mutex> lk(team.mu);
            if (--team.pending == 0) {
              team.done_cv.notify_one();
            }
          }
        }
      });
    }
  }

  // Cached next-dispatch time per shard. A shard's entry can only change
  // when the shard runs a window or receives a message, so each round
  // recomputes just those — the common sparse window (one shard with work,
  // everyone else far in the future) costs O(active shards), not O(shards).
  std::vector<TimeNs> next_dispatch(shard_n);
  for (size_t i = 0; i < shard_n; ++i) {
    next_dispatch[i] = NextDispatchTime(shards_[i].get());
  }

  while (true) {
    // Conservative horizon: the earliest any shard could dispatch next,
    // plus δ. Every cross-shard effect generated inside the window lands at
    // sender-time + δ >= horizon, so windows never interact below it.
    TimeNs next = kNoWork;
    for (TimeNs t : next_dispatch) {
      next = std::min(next, t);
    }
    if (next == kNoWork) {
      if (!DeliverMessages(&next_dispatch)) {
        break;  // no runnable work anywhere and no mail in flight: done
      }
      continue;
    }
    const TimeNs horizon = (next > kNoWork - config_.cross_shard_latency)
                               ? kNoWork
                               : next + config_.cross_shard_latency;
    windows_++;
    ARTC_OBS_COUNT("sim.windows", 1);
    size_t active = 0;
    for (TimeNs t : next_dispatch) {
      active += t < horizon ? 1 : 0;
    }
    ARTC_OBS_OBSERVE("sim.window_active_shards", active);
    if (horizon != kNoWork) {
      ARTC_OBS_OBSERVE("sim.window_span_ns", horizon - next);
    }
    if (workers > 1 && active > 1) {
      {
        std::lock_guard<std::mutex> lk(team.mu);
        team.horizon = horizon;
        team.next_dispatch = &next_dispatch;
        team.pending = workers;
        team.generation++;
        team.start_cv.notify_all();
      }
      // Coordinator-side barrier wait: how long the slowest worker holds the
      // window open, on the host clock.
      int64_t obs_wait0 = 0;
      ARTC_OBS_IF_ENABLED { obs_wait0 = obs::DefaultTracer().HostNowNs(); }
      std::unique_lock<std::mutex> lk(team.mu);
      team.done_cv.wait(lk, [&] { return team.pending == 0; });
      ARTC_OBS_OBSERVE("sim.barrier_wait_ns",
                       obs::DefaultTracer().HostNowNs() - obs_wait0);
    } else {
      // One active shard (or a sequential run): skip the barrier round-trip
      // and run inline on this thread.
      for (size_t i = 0; i < shard_n; ++i) {
        if (next_dispatch[i] >= horizon) {
          continue;
        }
        Shard* s = shards_[i].get();
        ScopedActiveShard active_shard(s);
        RunShardWindow(s, horizon);
      }
    }
    size_t refreshed = 0;
    for (size_t i = 0; i < shard_n; ++i) {
      if (next_dispatch[i] < horizon) {
        next_dispatch[i] = NextDispatchTime(shards_[i].get());
        refreshed++;
      }
    }
    // How much the cached next-dispatch vector saves: refreshes per window
    // vs shard count is the sparse-window win.
    ARTC_OBS_COUNT("sim.next_dispatch_refreshes", refreshed);
    DeliverMessages(&next_dispatch);
  }

  if (workers > 1) {
    {
      std::lock_guard<std::mutex> lk(team.mu);
      team.exiting = true;
      team.start_cv.notify_all();
    }
    for (std::thread& th : team.threads) {
      th.join();
    }
  }

  TimeNs end = 0;
  for (auto& sp : shards_) {
    end = std::max(end, sp->now);
  }
  return end;
}

TimeNs Simulation::Run() {
  ARTC_CHECK_MSG(g_current == nullptr, "Run() must be called from the host thread");
  if (shards_.size() == 1) {
    // The original single-shard engine: one unbounded window, no barriers,
    // no mailboxes (a lone shard can never receive one, whatever the
    // backend). Bit-compatible with every pre-kParallel run.
    Shard* s = shards_[0].get();
    ScopedActiveShard active(s);
    RunShardWindow(s, kNoWork);
    return s->now;
  }
  return RunWindowed();
}

void Simulation::YieldToScheduler(ThreadState* t, bool runnable_again) {
  Shard* s = t->shard;
  if (runnable_again) {
    t->state = ThreadState::Run::kReady;
    s->ready.push_back(t);
  } else {
    t->state = ThreadState::Run::kBlocked;
  }
  SwitchContext(&t->ctx, &s->sched, /*exiting=*/false);
  if (shutdown_) {
    throw SimShutdown{};
  }
}

void Simulation::Sleep(TimeNs duration) {
  ARTC_CHECK(duration >= 0);
  ThreadState* t = CurrentState();
  Shard* s = t->shard;
  PendingEvent* ev = AllocEvent(s);
  ev->when = s->now + duration;
  ev->seq = s->seq++;
  ev->thread = t;
  ev->callback_id = 0;
  ev->cancelled = false;
  s->events.push(ev);
  YieldToScheduler(t, /*runnable_again=*/false);
}

void Simulation::BlockCurrent() {
  YieldToScheduler(CurrentState(), /*runnable_again=*/false);
}

SimThreadId Simulation::CurrentThread() const {
  return g_current != nullptr ? g_current->id : kInvalidThread;
}

const std::string& Simulation::CurrentThreadName() const {
  static const std::string kHost = "<host>";
  return g_current != nullptr ? g_current->name : kHost;
}

ThreadState* Simulation::CurrentState() const {
  ARTC_CHECK_MSG(g_current != nullptr && g_current->sim == this,
                 "not running inside a simulated thread of this simulation");
  return g_current;
}

void Simulation::Join(SimThreadId tid) {
  const uint32_t shard_idx = ShardOfThread(tid);
  ARTC_CHECK(shard_idx < shards_.size());
  Shard* target_shard = shards_[shard_idx].get();
  const uint32_t local = LocalIndexOfThread(tid);
  ThreadState* self = CurrentState();
  if (target_shard == self->shard) {
    ARTC_CHECK(local < target_shard->threads.size());
    ThreadState* target = target_shard->threads[local].get();
    if (target->state == ThreadState::Run::kDone) {
      return;
    }
    target->joiners.push_back(self);
    BlockCurrent();
    return;
  }
  // Cross-shard join: ask the target's shard (δ away) whether the thread is
  // done; the answer — immediate or at finish — travels back as a kJoinDone
  // that wakes us. Both hops go through the window-boundary mailboxes.
  ARTC_CHECK_MSG(config_.cross_shard_latency < kInfiniteLookahead,
                 "cross-shard Join in a simulation whose shards were declared "
                 "independent (cross_shard_latency = kInfiniteLookahead)");
  Shard* s = self->shard;
  ShardMessage m;
  m.kind = ShardMessage::Kind::kJoinRequest;
  m.effect = s->now + config_.cross_shard_latency;
  m.from_shard = s->index;
  m.from_seq = s->sends++;
  m.joiner = self->id;
  m.target = tid;
  target_shard->inbox.Push(m);
  BlockCurrent();
}

uint64_t Simulation::ScheduleCallback(TimeNs when, std::function<void()> fn) {
  Shard* s = ActiveShard();
  ARTC_CHECK(when >= s->now);
  PendingEvent* ev = AllocEvent(s);
  ev->when = when;
  ev->seq = s->seq++;
  ev->thread = nullptr;
  ev->callback = std::move(fn);
  ARTC_CHECK_MSG(ev->slot < kCallbackSlotLimit,
                 "more than 2^21 events outstanding on one shard");
  ev->generation = ev->generation == UINT32_MAX ? 1 : ev->generation + 1;
  ev->callback_id = MakeCallbackId(s->index, ev->slot, ev->generation);
  ev->cancelled = false;
  s->events.push(ev);
  return ev->callback_id;
}

bool Simulation::CancelCallback(uint64_t id) {
  const size_t shard_idx = static_cast<size_t>(id >> kCallbackShardShift);
  ARTC_CHECK(shard_idx < shards_.size());
  Shard* s = shards_[shard_idx].get();
  ARTC_CHECK_MSG(s == ActiveShard(),
                 "callbacks may only be cancelled from their own shard");
  const uint64_t slot = (id >> kCallbackSlotShift) & (kCallbackSlotLimit - 1);
  if (slot >= s->event_pool.size()) {
    return false;
  }
  PendingEvent* ev = s->event_pool[slot].get();
  if (ev->callback_id != id) {
    return false;  // fired, cancelled, or the slot has moved on
  }
  // The event stays in the queue (lazy deletion) and is recycled when
  // popped, but the callback's captures are released immediately.
  ev->cancelled = true;
  ev->callback = nullptr;
  ev->callback_id = 0;
  return true;
}

void Simulation::WakeThread(ThreadState* t) {
  if (shutdown_) {
    return;  // unwinding destructors may notify already-unwound threads
  }
  Shard* s = t->shard;
  ARTC_CHECK_MSG(s == ActiveShard(),
                 "cross-shard WakeThread is not allowed; cross-shard effects "
                 "route through the window mailboxes");
  ARTC_CHECK(t->state == ThreadState::Run::kBlocked);
  t->state = ThreadState::Run::kReady;
  s->ready.push_back(t);
}

size_t Simulation::UnfinishedThreads() const {
  size_t n = 0;
  for (const auto& sp : shards_) {
    for (const auto& t : sp->threads) {
      if (t->state != ThreadState::Run::kDone) {
        n++;
      }
    }
  }
  return n;
}

void SimCondVar::Wait() {
  ThreadState* self = sim_->CurrentState();
  ARTC_CHECK_MSG(waiters_.empty() || waiters_.front()->shard == self->shard,
                 "SimCondVar waiters must all live on one shard");
  waiters_.push_back(self);
  sim_->BlockCurrent();
}

void SimCondVar::NotifyOne() {
  if (waiters_.empty()) {
    return;
  }
  size_t idx = sim_->ChooseIndex(waiters_.front()->shard, ChoicePoint::kWake, waiters_);
  ThreadState* t = waiters_[idx];
  waiters_[idx] = waiters_.back();
  waiters_.pop_back();
  sim_->WakeThread(t);
}

void SimCondVar::NotifyAll() {
  for (ThreadState* t : waiters_) {
    sim_->WakeThread(t);
  }
  waiters_.clear();
}

void SimMutex::Lock() {
  while (locked_) {
    cv_.Wait();
  }
  locked_ = true;
}

void SimMutex::Unlock() {
  ARTC_CHECK(locked_);
  locked_ = false;
  cv_.NotifyOne();
}

bool SimBarrier::Wait() {
  ARTC_CHECK(count_ > 0);
  const uint64_t my_phase = phase_;
  if (++arrived_ == count_) {
    arrived_ = 0;
    phase_++;
    cv_.NotifyAll();
    return true;
  }
  while (phase_ == my_phase) {
    cv_.Wait();
  }
  return false;
}

}  // namespace artc::sim
