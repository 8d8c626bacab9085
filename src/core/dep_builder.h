// Internal machinery of the ARTC compiler: per-resource cursors, the
// dependency-edge builder, the incremental redundant-edge pruner, and the
// per-event CompileStep that drives them. The batch compiler (compiler.cc)
// and the streaming compiler (compile_stream.cc) both feed every event
// through one CompileStep, so they share a single copy of the scan.
//
// Everything here is deliberately decoupled from AnnotatedTrace and the
// per-event arrays of CompiledBenchmark so a streaming pipeline that never
// materializes either can drive it event by event. Per-event context the
// builder needs about *past* events (thread index, enter/return times)
// lives in the small EventMeta sidecar the step appends to as it scans —
// ~20 bytes per event instead of the ~200-byte TraceEvent.
//
// Not a public API: include only from src/core implementation files.
#ifndef SRC_CORE_DEP_BUILDER_H_
#define SRC_CORE_DEP_BUILDER_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/compiled.h"
#include "src/core/compiler.h"
#include "src/fsmodel/resource_model.h"
#include "src/util/interner.h"
#include "src/util/small_vec.h"

namespace artc::core::internal {

// Per-event sidecar consulted when a later event's edge references this one.
// Appended in trace order; index == trace event index.
struct EventMeta {
  std::vector<uint32_t> thread_index;  // dense replay-thread index
  std::vector<TimeNs> enter;
  std::vector<TimeNs> ret_time;

  void Push(uint32_t ti, const trace::TraceEvent& ev) {
    thread_index.push_back(ti);
    enter.push_back(ev.enter);
    ret_time.push_back(ev.ret_time);
  }
  size_t size() const { return thread_index.size(); }
};

struct ThreadUse {
  uint32_t thread;
  uint32_t event;
};

// Per-resource scan state (the paper's "last action / creating action /
// remaining uses" bookkeeping). Nearly every resource is used by one
// thread and waited on by one, so both lists keep that much inline and
// only a shared resource's lists reach the heap.
struct Cursor {
  uint32_t create_event = kNoEvent;
  uint32_t last_event = kNoEvent;
  // Last use per replay thread since create (a delete must wait for every
  // outstanding use, but one completion-dep per thread suffices: each
  // thread's later use subsumes its earlier ones).
  util::SmallVec<ThreadUse, 1> last_use_by_thread;
  // Threads that already hold a dep on create_event (a second dep from the
  // same thread is transitively implied by thread ordering).
  util::SmallVec<uint32_t, 2> create_waiters;
  bool touched = false;
};

// Emits one event's dependency edges into a small sorted scratch vector.
// The caller owns what happens next (CompileStep refines predelay and
// prunes in place; the temporal pass flushes straight into the CSR arena).
// `resources` may keep growing between events (streaming annotation);
// cursors are sized lazily against it.
class DepBuilder {
 public:
  DepBuilder(const std::vector<fsmodel::ResourceInfo>& resources,
             const util::StringInterner* path_names, const EventMeta& meta,
             std::vector<std::string>* dep_resource_names,
             EdgeStats* edge_stats)
      : resources_(resources),
        path_names_(path_names),
        meta_(meta),
        names_(dep_resource_names),
        stats_(edge_stats) {}

  // Per-event emission protocol: BeginEvent, then ArtcTouch per annotation
  // touch (or AddDep/AddInfraDep for the temporal method), then read deps().
  void BeginEvent(uint32_t index, size_t reserve_hint) {
    cur_event_ = index;
    cur_touch_res_ = fsmodel::kNoResource;
    scratch_.clear();
    scratch_.reserve(reserve_hint);
  }

  void ArtcTouch(const fsmodel::Touch& touch, const ReplayModes& modes);

  // The current event's deps, sorted by prerequisite event and deduped.
  // Mutable so CompileStep can prune in place.
  std::vector<Dep>& deps() { return scratch_; }

  // Adds one dep, keeping scratch sorted/deduped; same-thread completion
  // deps (other than temporal issue order) are structurally implied and
  // skipped. Public for the temporal method's emission pass.
  void AddDep(uint32_t dep_event, DepKind kind, RuleTag rule);

  // Replayability infrastructure dep (temporal method): the defining event
  // of a used fd/aio slot must have completed. Not counted in edge stats.
  void AddInfraDep(uint32_t def_event);

  void CountEdge(RuleTag rule, uint32_t dep_event);

  // Resident bytes of the builder's own state (cursors + compaction maps) —
  // part of the streaming compiler's reported memory bound.
  uint64_t state_bytes() const;

 private:
  void Sequential(Cursor& c, RuleTag rule);
  void Stage(Cursor& c, fsmodel::Access access, RuleTag rule);
  void NameOrdering(const fsmodel::ResourceInfo& res, const Cursor& c,
                    RuleTag rule);
  void Update(Cursor& c, fsmodel::Access access);

  uint32_t ThreadOf(uint32_t event) const { return meta_.thread_index[event]; }

  std::vector<Dep>::iterator LowerBound(uint32_t dep_event);

  uint32_t CompactRes(uint32_t raw);
  uint32_t NewCompactName(const fsmodel::ResourceInfo& info, uint32_t raw);

  const std::vector<fsmodel::ResourceInfo>& resources_;
  const util::StringInterner* path_names_;  // may be null (synthetic ids)
  const EventMeta& meta_;
  std::vector<std::string>* names_;
  EdgeStats* stats_;
  std::vector<Cursor> cursors_;
  uint32_t cur_event_ = 0;
  uint32_t cur_touch_res_ = fsmodel::kNoResource;
  std::vector<Dep> scratch_;  // current event's deps, sorted by event
  // raw resource id -> compact attribution id + 1 (0 = unassigned), lazily
  // grown on the first materialised edge.
  std::vector<uint32_t> res_compact_;
  std::unordered_map<uint64_t, uint32_t> key_to_compact_;  // (kind,name)->id
};

// Drops completion edges that can never be the edge an action blocks on,
// one event at a time.
//
// For event k with same-thread predecessor p, the replayer starts checking
// k's deps only after p has completed. So if dep d is guaranteed complete
// before p completes — in *every* schedule, by thread order and the
// remaining completion edges — then k's check of d is always a no-op read,
// and removing the edge leaves replay behaviour (and simulated timestamps
// under a fixed seed) bit-identical. Edges implied only by *sibling* deps
// of k are NOT safe to drop: k might reach d's wait before the sibling has
// completed, so the edge can be the one that blocks.
//
// The pass keeps one completion vector clock per event: clock[i][t] is
// (index + 1) of the latest event on thread t known complete whenever i is
// complete. The forward scan computes it as the predecessor's clock merged
// with the clocks of i's completion deps plus i itself, pruning each dep
// already covered by the predecessor's clock. Every pruned edge is in the
// transitive closure of the kept edges plus thread order (inductively), so
// the closure is unchanged.
//
// Rows are stored sparsely: an event's cross-thread clock differs from its
// same-thread predecessor's only if the event has completion deps to merge,
// and on real traces the vast majority of events have none. So a new row
// materialises only at those "merge" events; every other event shares its
// thread's latest row (row 0 is the all-zeros row). An event's own-thread
// entry is implicitly (index + 1) — readers account for it explicitly —
// which is why sharing the row with later events on the thread is sound.
// Rows are as wide as the thread set *seen at creation time* (streaming
// discovers threads as it goes); entries past a row's width read as zero,
// which is exactly what a batch pass with the final thread count would have
// stored there.
class DepPruner {
 public:
  explicit DepPruner(const EventMeta& meta, EdgeStats* stats)
      : meta_(meta), stats_(stats) {
    row_off_.push_back(0);  // row 0: the empty (all-zeros) clock
    row_width_.push_back(0);
  }

  // Filters event i's deps in place (kept deps stay in order at the front)
  // and returns the kept count. Must be called exactly once per event, in
  // trace order, including for events with no deps.
  uint32_t PruneEvent(uint32_t i, uint32_t ti, Dep* deps, uint32_t count);

  uint64_t state_bytes() const {
    return (rows_.capacity() + row_off_.capacity() + row_width_.capacity() +
            row_of_.capacity() + cur_row_.capacity()) *
           sizeof(uint32_t);
  }

 private:
  uint32_t RowVal(uint32_t row, uint32_t t) const {
    return t < row_width_[row] ? rows_[row_off_[row] + t] : 0;
  }

  const EventMeta& meta_;
  EdgeStats* stats_;
  std::vector<uint32_t> rows_;       // concatenated variable-width rows
  std::vector<uint32_t> row_off_;    // row id -> offset into rows_
  std::vector<uint32_t> row_width_;  // row id -> entry count
  std::vector<uint32_t> row_of_;     // event -> its clock row id
  std::vector<uint32_t> cur_row_;    // thread -> latest row id
};

// Predelay is the interval between an action's issue and the moment its
// inferred constraints were satisfied in the original execution (paper
// Sec. 4.3.3): the latest of the same-thread predecessor's return and the
// dependencies' returns. Computing it against the thread gap alone would
// charge idle phases (e.g., a coordinator thread joining its workers) as
// compute and replay them as sleeps. `predelay` is the thread gap; `deps`
// must be the *unpruned* edge set, since pruning must not change pacing.
inline TimeNs RefinePredelay(TimeNs enter, TimeNs predelay,
                             const std::vector<Dep>& deps,
                             const EventMeta& meta) {
  TimeNs base = enter - predelay;  // same-thread predecessor return
  for (const Dep& d : deps) {
    base = std::max(base, meta.ret_time[d.event]);
  }
  return std::max<TimeNs>(0, enter - base);
}

// One event of the compiler's forward scan (Sec. 4.3.3), shared by the
// batch and streaming compilers. Push() takes the next event in trace order
// with its annotation touches and
//   - maps its tid to a dense replay thread (all events share thread 0
//     under the single-threaded method),
//   - appends it to the EventMeta sidecar and sets the thread-gap predelay,
//   - numbers fd/aio remap slots in resource-id order as resources appear,
//     and wires the event's def/use slots from its touches,
//   - for ARTC, emits the touches' dependency edges, refines predelay
//     against them and, if prune_redundant_deps is set, prunes them.
// The other methods emit no edges here; the temporal method adds its own
// in a second pass over the finished tables (see compiler.cc).
//
// The benchmark-wide tables (thread_ids, fd/aio slot counts, edge_stats,
// dep_resource_names) are written into *tables as the scan goes; the
// per-event output (the returned action and deps()) is the caller's to
// keep or digest.
class CompileStep {
 public:
  // `resources` (and the interner behind `path_names`) may keep growing
  // between events but must cover every resource a pushed touch names.
  CompileStep(const CompileOptions& options,
              const std::vector<fsmodel::ResourceInfo>& resources,
              const util::StringInterner* path_names,
              CompiledBenchmark* tables);

  // Sizes the sidecar for a trace of known length.
  void Reserve(size_t events);

  // Compiles the next event. Returns its action; deps() then holds the
  // edges it keeps, sorted by prerequisite event.
  CompiledAction Push(const trace::TraceEvent& ev,
                      std::span<const fsmodel::Touch> touches);

  const std::vector<Dep>& deps() { return builder_.deps(); }
  const EventMeta& meta() const { return meta_; }
  DepBuilder& builder() { return builder_; }

  // Resident bytes of the scan state (sidecar, cursors, pruner clocks,
  // thread and slot tables, attribution names).
  uint64_t state_bytes() const;

 private:
  uint32_t ThreadIndex(uint32_t tid);
  void AssignSlots();

  // Trace tids are small integers in practice, so a flat tid -> index+1
  // table covers the common case; anything above it uses the hash map.
  static constexpr uint32_t kFlatTidLimit = 1 << 16;

  const ReplayMethod method_;
  const ReplayModes modes_;
  const std::vector<fsmodel::ResourceInfo>& resources_;
  CompiledBenchmark* tables_;
  EventMeta meta_;
  DepBuilder builder_;
  std::optional<DepPruner> pruner_;
  std::vector<uint32_t> tid_flat_;
  std::unordered_map<uint32_t, uint32_t> tid_overflow_;
  std::vector<TimeNs> last_ret_by_thread_;
  TimeNs trace_start_ = 0;
  // resource id -> fd/aio slot (-1 for other kinds), for ids below
  // slots_assigned_.
  std::vector<int32_t> fd_slots_;
  std::vector<int32_t> aio_slots_;
  size_t slots_assigned_ = 0;
};

}  // namespace artc::core::internal

#endif  // SRC_CORE_DEP_BUILDER_H_
