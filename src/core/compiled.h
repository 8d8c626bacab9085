// The compiled benchmark: the output of the ARTC compiler and the input of
// the replayer (paper Sec. 4.3.1). Conceptually this plays the role of the
// generated-C-plus-shared-library artifact in the original system: static
// tables of actions, resources (fd/aio remap slots), and dependencies.
#ifndef SRC_CORE_COMPILED_H_
#define SRC_CORE_COMPILED_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/modes.h"
#include "src/trace/event.h"
#include "src/trace/snapshot.h"

namespace artc::core {

inline constexpr uint32_t kNoEvent = UINT32_MAX;

// Compact id of the resource an edge orders on, indexing
// CompiledBenchmark::dep_resource_names. Infrastructure edges (temporal
// issue order, fd/aio remap plumbing) carry kNoDepResource.
inline constexpr uint32_t kNoDepResource = UINT32_MAX;

enum class DepKind : uint8_t {
  kCompletion,  // dependency must have finished replaying
  kIssue,       // dependency must have been issued
};

struct Dep {
  uint32_t event;   // trace index of the prerequisite action
  DepKind kind;
  RuleTag rule;     // which ordering rule produced this edge (stats)
  // Which resource the rule ordered on (attribution). Generations of the
  // same name share one id, so "every stall behind /a/b" aggregates
  // across create/delete cycles.
  uint32_t res = kNoDepResource;
};

// A view over one action's dependencies inside the shared dep arena.
struct DepSpan {
  const Dep* first = nullptr;
  const Dep* last = nullptr;
  const Dep* begin() const { return first; }
  const Dep* end() const { return last; }
  size_t size() const { return static_cast<size_t>(last - first); }
  bool empty() const { return first == last; }
  const Dep& operator[](size_t i) const { return first[i]; }
};

// Per-action replay metadata. The original trace event (arguments +
// expected outcome) lives in CompiledBenchmark::events at the same index:
// keeping the strings out of this struct makes it a small POD the replay
// hot loop can walk without dragging argument data through the cache.
struct CompiledAction {
  uint32_t thread_index = 0;   // dense replay-thread index
  // File-descriptor remapping (Sec. 4.2: fd names are remapped through a
  // table so generations that reused a number can coexist): slot to *read*
  // the runtime fd from, and slot to *store* a newly created fd into.
  int32_t fd_use_slot = -1;
  int32_t fd_def_slot = -1;
  // AIO handle remapping, same scheme.
  int32_t aio_use_slot = -1;
  int32_t aio_def_slot = -1;
  // Time between this action's issue and the return of the previous action
  // on the same thread in the original trace — the paper's "predelay".
  TimeNs predelay = 0;
};

struct EdgeStats {
  // Edges emitted by each rule, *before* redundant-edge pruning — this is
  // what the paper's Fig. 8 tables report.
  std::array<uint64_t, static_cast<size_t>(RuleTag::kCount)> count_by_rule{};
  std::array<double, static_cast<size_t>(RuleTag::kCount)> total_length_ns{};
  // Of the above, edges dropped as transitively implied (never materialized
  // in the dep arena the replayer walks).
  std::array<uint64_t, static_cast<size_t>(RuleTag::kCount)> pruned_by_rule{};
  uint64_t TotalEdges() const;
  uint64_t TotalPruned() const;
  double MeanLengthNs() const;  // across all rules
};

struct CompiledBenchmark {
  ReplayMethod method = ReplayMethod::kArtc;
  ReplayModes modes;
  std::vector<CompiledAction> actions;          // indexed by trace order
  // events[i] is actions[i]'s original trace event. The compiler moving an
  // rvalue trace in steals this vector wholesale instead of copying ~200
  // bytes per event.
  std::vector<trace::TraceEvent> events;
  std::vector<std::vector<uint32_t>> thread_actions;  // per replay thread
  std::vector<uint32_t> thread_ids;             // original tid per replay thread
  uint32_t fd_slot_count = 0;
  uint32_t aio_slot_count = 0;
  trace::FsSnapshot snapshot;
  EdgeStats edge_stats;
  uint64_t model_warnings = 0;

  // Dependencies in compressed-sparse-row form: the deps of action i are
  // dep_arena[dep_offsets[i] .. dep_offsets[i+1]). One contiguous arena
  // instead of a heap vector per action keeps the replay hot loop walking
  // sequential memory.
  std::vector<Dep> dep_arena;
  std::vector<uint32_t> dep_offsets;  // size() + 1 entries; empty when size()==0

  // Human-readable names for Dep::res ids, assigned densely in edge-emission
  // order: literal paths for path-rule edges, "fd:N" / "file#N" / "aio:N" /
  // "thread:N" for the others. Only resources that actually produced a
  // materialized edge get an entry, so the table stays small.
  std::vector<std::string> dep_resource_names;

  const std::string& DepResourceName(uint32_t res) const {
    static const std::string kNone = "(none)";
    return res < dep_resource_names.size() ? dep_resource_names[res] : kNone;
  }

  DepSpan DepsFor(uint32_t action) const {
    const Dep* base = dep_arena.data();
    return DepSpan{base + dep_offsets[action], base + dep_offsets[action + 1]};
  }

  size_t size() const { return actions.size(); }
};

}  // namespace artc::core

#endif  // SRC_CORE_COMPILED_H_
