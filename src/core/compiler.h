// The ARTC compiler: trace + initial snapshot -> compiled benchmark.
//
// A single scan over the annotated trace maintains one cursor per resource
// (creating action, last action, uses since create) and emits dependency
// edges according to the enabled ordering rules — action series are never
// materialised, exactly as Sec. 4.3.3 describes.
#ifndef SRC_CORE_COMPILER_H_
#define SRC_CORE_COMPILER_H_

#include <memory>

#include "src/core/compiled.h"
#include "src/fsmodel/resource_model.h"
#include "src/trace/event.h"
#include "src/trace/snapshot.h"

namespace artc::core {

struct CompileOptions {
  ReplayMethod method = ReplayMethod::kArtc;
  ReplayModes modes;  // only consulted for kArtc
  // Drop completion edges that are transitively implied by the dependent
  // action's same-thread predecessor (kArtc only). Such edges can never be
  // the one an action blocks on, so replay behaviour — including simulated
  // timestamps under a fixed seed — is unchanged; the dep arena just gets
  // smaller. EdgeStats::pruned_by_rule reports what was dropped;
  // count_by_rule still reflects the full rule output.
  bool prune_redundant_deps = true;
};

// Annotates and compiles. Pass the trace as an rvalue when done with it
// (the normal parse -> compile pipeline): the benchmark then takes over the
// event vector instead of copying 104 bytes per event.
CompiledBenchmark Compile(trace::Trace t, const trace::FsSnapshot& snapshot,
                          const CompileOptions& options = {});

// Compile against a precomputed annotation. `annotated` must have been
// produced from this exact trace + snapshot. A pipeline that already ran
// AnnotateTrace — for validation, statistics, or to compile the same trace
// under several methods — passes it here instead of paying for a second
// annotation pass (roughly a third of compile time on large traces).
CompiledBenchmark Compile(trace::Trace t, const trace::FsSnapshot& snapshot,
                          const fsmodel::AnnotatedTrace& annotated,
                          const CompileOptions& options);

// A compiled benchmark shared across concurrent consumers. CompiledBenchmark
// is immutable once compiled and Replay() only ever reads it, so one
// compiled artifact can back any number of simultaneous replays (sweep
// cells) without copies — the shared_ptr's control block is the only
// synchronization. Everything reachable through the pointer is const; a
// consumer that needs a variant (different method, ablated rules) compiles
// its own.
using CompiledBenchmarkPtr = std::shared_ptr<const CompiledBenchmark>;

}  // namespace artc::core

#endif  // SRC_CORE_COMPILER_H_
