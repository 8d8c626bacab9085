// Property-based random trace generator for the checking harness.
//
// Runs a randomized multi-threaded workload on a real simulated VFS with
// tracing enabled and returns the recorded trace plus the pre-workload
// snapshot as one bundle. Two design points matter:
//
//  * Path collisions are the point. All threads draw from one small shared
//    pool of names (files, directories, and names used as BOTH — mkdir
//    targets colliding with open/unlink targets), so create/delete/rename
//    races on the same name are common and the name rule is load-bearing in
//    the compiled dependency graph.
//  * The recorded trace is sequentially consistent by construction: every
//    operation runs under one global simulated mutex, so no two call
//    windows overlap and sorting by enter time reproduces the execution
//    order exactly. A trace like this annotates with zero model warnings
//    and replays with zero return mismatches under ANY legal schedule —
//    which is precisely the property the explorer then tests. Concurrency
//    stress comes from the multi-schedule replay, not from racing the
//    recorder.
//
// Sync events (GenOptions::sync) are recorded by hand at their grant
// instants — a lock after SimMutex::Lock returns, a barrier wait at
// arrival, a cond wait at wakeup — with zero-width call windows. Within a
// simulation only one thread runs at any instant and the recorder
// appends in execution order, so the stable sort by enter time keeps
// same-instant sync events (a barrier release, a signal and its wakeup) in
// the order they actually happened.
#ifndef SRC_CHECK_GENERATOR_H_
#define SRC_CHECK_GENERATOR_H_

#include <cstdint>
#include <string>

#include "src/trace/trace_io.h"

namespace artc::check {

struct GenOptions {
  uint64_t seed = 1;
  uint32_t threads = 4;
  uint32_t ops_per_thread = 24;
  std::string storage = "ssd";
  std::string fs_profile = "ext4";

  // Synchronization workload. When sync is true the workers additionally
  // fight over a small pool of mutexes (critical sections with fs ops
  // inside), rendezvous at a shared barrier several times, run a condvar
  // producer/consumer handoff at the end, and spawn+join child threads —
  // all recorded as first-class sync trace events at their grant instants
  // (see trace/syscalls.h for the convention).
  bool sync = false;
  uint32_t sync_mutexes = 2;    // contended mutex pool size
  uint32_t barrier_phases = 2;  // barrier rounds every worker runs
  uint32_t cond_items = 4;      // items per producer in the condvar handoff
};

trace::TraceBundle GenerateTrace(const GenOptions& opt);

}  // namespace artc::check

#endif  // SRC_CHECK_GENERATOR_H_
