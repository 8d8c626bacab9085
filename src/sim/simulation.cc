#include "src/sim/simulation.h"

#include <algorithm>
#include <deque>
#include <queue>

#include "src/obs/obs.h"
#include "src/util/check.h"

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

// One side of a fiber switch: a fiber, or the scheduler running on the host
// thread that called Run(). `sp` is only meaningful while the context is
// switched out.
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
// the pool when their thread finishes, so peak RSS tracks the maximum
// number of *live* threads, not the total ever spawned.
constexpr size_t kFiberStackBytes = 512 * 1024;

// A ScheduleCallback id names where its event record lives: the record's
// slot in the event pool in the high 32 bits and the slot's generation in
// the low 32. A record takes the next generation each time it carries a
// callback, and CancelCallback matches the whole id against the record's,
// so a stale id never cancels a later callback unless the same slot
// carried 2^32 callbacks in between. Generation 0 is skipped, so no id is 0.
constexpr int kCallbackSlotShift = 32;

constexpr uint64_t MakeCallbackId(uint32_t slot, uint32_t generation) {
  return (static_cast<uint64_t>(slot) << kCallbackSlotShift) | generation;
}

}  // namespace

struct PendingEvent {
  TimeNs when;
  uint64_t seq;  // tie-break for stable ordering
  ThreadState* thread;              // wake this thread, or
  std::function<void()> callback;   // run this callback
  uint64_t callback_id;             // 0 unless it holds a live callback
  bool cancelled;
  uint32_t slot = 0;                // index in the scheduler's event_pool
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
  std::vector<ThreadState*> joiners;
  Simulation* sim = nullptr;
  Scheduler* sched = nullptr;

  // The stack comes from the pool lazily on first schedule, so
  // spawned-but-never-run threads cost only this record.
  FiberContext ctx;
  std::unique_ptr<char[]> stack;
  bool fiber_started = false;
};

// The scheduler's state: virtual clock, RNG stream, run queue and event
// queue, plus the fiber-stack pool.
struct Scheduler {
  explicit Scheduler(uint64_t seed) : rng(seed) {}

  TimeNs now = 0;
  Rng rng;
  SchedulePolicy* policy = nullptr;      // non-owning
  std::vector<SimThreadId> policy_ids;   // scratch for policy candidate lists
  uint64_t seq = 0;
  uint64_t switches = 0;

  std::vector<std::unique_ptr<ThreadState>> threads;
  std::vector<ThreadState*> ready;
  std::priority_queue<PendingEvent*, std::vector<PendingEvent*>, EventCompare> events;
  // Owns every PendingEvent ever allocated; bounded by the maximum number of
  // events simultaneously outstanding (completed ones are recycled through
  // free_events, so a long run does not grow this without bound).
  std::deque<std::unique_ptr<PendingEvent>> event_pool;
  std::vector<PendingEvent*> free_events;

  // The scheduler's own context; fibers resume it when they yield or finish.
  FiberContext ctx;
  // Stacks of finished threads, reused by later spawns.
  std::vector<std::unique_ptr<char[]>> free_stacks;
  size_t stacks_allocated = 0;
  size_t stacks_in_use = 0;
};

namespace {

// The simulated thread currently executing on this host thread. Separate
// simulations may run on separate host threads at once, each with its own.
thread_local ThreadState* g_current = nullptr;

// Argument hand-off into a starting fiber: FiberEntry is entered by the
// switch's `ret`, not by a call, so FiberSwitchTo parks the target here
// immediately before the first switch into it.
thread_local ThreadState* g_fiber_launch = nullptr;

}  // namespace

void Simulation::FiberEntry() {
  ThreadState* t = g_fiber_launch;
  g_fiber_launch = nullptr;
  FinishFirstSwitch(&t->sched->ctx);
  t->sim->FiberMain(t);
  // The fiber is done: switch to the scheduler for the last time; it
  // returns this stack to the pool.
  SwitchContext(&t->ctx, &t->sched->ctx, /*exiting=*/true);
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

uint64_t Simulation::ShardSeed(uint64_t seed, size_t index) {
  if (index == 0) {
    return seed;  // a one-replay suite is the standalone run
  }
  // splitmix64 over (seed, index) for independent per-replay streams.
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(index);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Simulation::Simulation(uint64_t seed) : sched_(std::make_unique<Scheduler>(seed)) {}

Simulation::~Simulation() {
  shutdown_ = true;
  // Resume every unfinished fiber so it throws SimShutdown out of its
  // blocking primitive, unwinding its stack (running destructors) before the
  // stacks are freed. Index-based: an unwinding destructor may Spawn.
  for (size_t i = 0; i < sched_->threads.size(); ++i) {
    ThreadState* t = sched_->threads[i].get();
    if (t->fiber_started && t->state != ThreadState::Run::kDone) {
      FiberSwitchTo(t);
    }
  }
}

TimeNs Simulation::Now() const { return sched_->now; }

Rng& Simulation::rng() { return sched_->rng; }

void Simulation::SetSchedulePolicy(SchedulePolicy* policy) { sched_->policy = policy; }

SchedulePolicy* Simulation::schedule_policy() const { return sched_->policy; }

uint64_t Simulation::switch_count() const { return sched_->switches; }

size_t Simulation::allocated_event_count() const { return sched_->event_pool.size(); }

size_t Simulation::FiberStacksAllocated() const { return sched_->stacks_allocated; }

size_t Simulation::FiberStacksInUse() const { return sched_->stacks_in_use; }

SimThreadId Simulation::Spawn(std::string name, std::function<void()> body) {
  Scheduler* s = sched_.get();
  auto t = std::make_unique<ThreadState>();
  t->id = static_cast<SimThreadId>(s->threads.size());
  t->name = std::move(name);
  t->body = std::move(body);
  t->sim = this;
  t->sched = s;
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
  for (ThreadState* j : t->joiners) {
    ARTC_CHECK(j->state == ThreadState::Run::kBlocked);
    j->state = ThreadState::Run::kReady;
    sched_->ready.push_back(j);
  }
  t->joiners.clear();
}

// ---- Fiber switching ----

void Simulation::FiberSwitchTo(ThreadState* t) {
  Scheduler* s = sched_.get();
  if (!t->fiber_started) {
    if (!s->free_stacks.empty()) {
      t->stack = std::move(s->free_stacks.back());
      s->free_stacks.pop_back();
    } else {
      // Not zero-filled: a fiber writes its stack before reading it. Each
      // Simulation allocates its own stacks, so a fill would cost 512 KiB
      // per fiber of every replay.
      t->stack = std::make_unique_for_overwrite<char[]>(kFiberStackBytes);
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
  SwitchContext(&s->ctx, &t->ctx, /*exiting=*/false);
  g_current = nullptr;
  if (t->state == ThreadState::Run::kDone && t->stack != nullptr) {
    // The fiber ran to completion (or unwound) and switched back for the
    // last time; its stack is dead and goes back to the pool.
#ifdef ARTC_TSAN_FIBERS
    __tsan_destroy_fiber(t->ctx.tsan_fiber);
    t->ctx.tsan_fiber = nullptr;
#endif
    s->free_stacks.push_back(std::move(t->stack));
    s->stacks_in_use--;
  }
}

// ---- Scheduler ----

size_t Simulation::ChooseIndex(ChoicePoint point,
                               const std::vector<ThreadState*>& candidates) {
  const size_t n = candidates.size();
  if (n == 1) {
    return 0;
  }
  Scheduler* s = sched_.get();
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

ThreadState* Simulation::PickReady() {
  std::vector<ThreadState*>& ready = sched_->ready;
  ARTC_CHECK(!ready.empty());
  size_t idx = ChooseIndex(ChoicePoint::kRun, ready);
  ThreadState* t = ready[idx];
  ready[idx] = ready.back();
  ready.pop_back();
  return t;
}

void Simulation::RunThread(ThreadState* t) {
  sched_->switches++;
  ARTC_OBS_COUNT("sim.context_switches", 1);
  // Depth includes the thread being dispatched, so an idle scheduler with
  // one runnable thread observes 1, matching run-queue-depth convention.
  ARTC_OBS_OBSERVE("sim.run_queue_depth", sched_->ready.size() + 1);
  t->state = ThreadState::Run::kRunning;
  FiberSwitchTo(t);
}

namespace {

PendingEvent* AllocEvent(Scheduler* s) {
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

void ReleaseEvent(Scheduler* s, PendingEvent* ev) {
  ev->thread = nullptr;
  ev->callback = nullptr;  // drop captured state now, not at teardown
  ev->callback_id = 0;
  ev->cancelled = false;
  s->free_events.push_back(ev);
}

}  // namespace

TimeNs Simulation::Run() {
  ARTC_CHECK_MSG(g_current == nullptr, "Run() must be called from the host thread");
  Scheduler* s = sched_.get();
  // Ready threads first, then the earliest due event, until neither is left.
  while (true) {
    if (!s->ready.empty()) {
      RunThread(PickReady());
      continue;
    }
    if (s->events.empty()) {
      break;
    }
    PendingEvent* ev = s->events.top();
    s->events.pop();
    if (ev->cancelled) {
      ReleaseEvent(s, ev);
      continue;
    }
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
  return s->now;
}

void Simulation::YieldToScheduler(ThreadState* t, bool runnable_again) {
  if (runnable_again) {
    t->state = ThreadState::Run::kReady;
    sched_->ready.push_back(t);
  } else {
    t->state = ThreadState::Run::kBlocked;
  }
  SwitchContext(&t->ctx, &sched_->ctx, /*exiting=*/false);
  if (shutdown_) {
    throw SimShutdown{};
  }
}

void Simulation::Sleep(TimeNs duration) {
  ARTC_CHECK(duration >= 0);
  ThreadState* t = CurrentState();
  Scheduler* s = sched_.get();
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
  ThreadState* self = CurrentState();
  ARTC_CHECK(tid < sched_->threads.size());
  ThreadState* target = sched_->threads[tid].get();
  if (target->state == ThreadState::Run::kDone) {
    return;
  }
  target->joiners.push_back(self);
  BlockCurrent();
}

uint64_t Simulation::ScheduleCallback(TimeNs when, std::function<void()> fn) {
  Scheduler* s = sched_.get();
  ARTC_CHECK(when >= s->now);
  PendingEvent* ev = AllocEvent(s);
  ev->when = when;
  ev->seq = s->seq++;
  ev->thread = nullptr;
  ev->callback = std::move(fn);
  ev->generation = ev->generation == UINT32_MAX ? 1 : ev->generation + 1;
  ev->callback_id = MakeCallbackId(ev->slot, ev->generation);
  ev->cancelled = false;
  s->events.push(ev);
  return ev->callback_id;
}

bool Simulation::CancelCallback(uint64_t id) {
  const uint64_t slot = id >> kCallbackSlotShift;
  if (slot >= sched_->event_pool.size()) {
    return false;
  }
  PendingEvent* ev = sched_->event_pool[slot].get();
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
  ARTC_CHECK(t->state == ThreadState::Run::kBlocked);
  t->state = ThreadState::Run::kReady;
  sched_->ready.push_back(t);
}

size_t Simulation::UnfinishedThreads() const {
  size_t n = 0;
  for (const auto& t : sched_->threads) {
    if (t->state != ThreadState::Run::kDone) {
      n++;
    }
  }
  return n;
}

void SimCondVar::Wait() {
  waiters_.push_back(sim_->CurrentState());
  sim_->BlockCurrent();
}

void SimCondVar::NotifyOne() {
  if (waiters_.empty()) {
    return;
  }
  size_t idx = sim_->ChooseIndex(ChoicePoint::kWake, waiters_);
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
