// Scenario sweep engine (DESIGN.md §5j): trace each grid workload on its
// source stack and compile it once, measure the original program once per
// target, fan the grid's replays across a host thread pool, and stream one
// JSONL row per cell — virtual end time, error against the original,
// critical-path stall attribution, storage block counts, fs-state digest —
// while publishing live progress to the obs metrics plane.
//
// Determinism contract: every cell is an independent simulated world built
// from a shared *const* CompiledBenchmark, so a cell's row content is
// bit-identical whatever --jobs is, and identical to a standalone
// ReplayCompiledOnSimTarget of the same configuration. Rows are emitted in
// cell-index order through a reorder buffer, so the whole JSONL stream is
// byte-identical across worker counts (with host-time reporting off — the
// one intentionally nondeterministic field).
#ifndef SRC_SWEEP_SWEEP_H_
#define SRC_SWEEP_SWEEP_H_

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/artc.h"
#include "src/storage/storage_stack.h"
#include "src/sweep/grid.h"
#include "src/util/stats.h"
#include "src/util/time.h"

namespace artc::sweep {

// A sweep-ready input: the grid's cells, one shared compiled artifact per
// distinct (trace, replay method) pair, and one original run per distinct
// (workload, target). Each trace is annotated once (annotation is
// method-independent) and compiled once per method; the resulting
// CompiledBenchmarks are immutable and shared by every cell.
struct SweepPlan {
  std::vector<CellConfig> cells;
  // CellConfig::TraceKey() + "|" + method -> shared compiled benchmark.
  std::map<std::string, core::CompiledBenchmarkPtr> compiled;
  // CellConfig::OriginalKey() -> the original program's elapsed virtual
  // time on that target. Empty for a pre-traced input.
  std::map<std::string, TimeNs> originals;

  const core::CompiledBenchmark& BenchFor(const CellConfig& cell) const;
  // The cell's original run, or 0 when the plan has none.
  TimeNs OriginalFor(const CellConfig& cell) const;
};

// Expands the grids, traces each named workload once per (threads, source,
// seed) and compiles it for every method its cells use, and measures the
// original program once per (workload, threads, target, seed). The traces
// and original runs share a pool of `jobs` host workers (0 =
// util::DefaultJobs()); the plan is the same whatever `jobs` is. Returns
// false with *error set on grid validation failure.
bool BuildSweepPlan(std::vector<SweepGrid> grids, SweepPlan* out,
                    std::string* error, size_t jobs = 0);

// The same over a pre-traced input: every cell replays `t`, and the cells'
// workload is `trace_name` (the grid's workload axis is not used). There is
// no original run, so rows carry no orig_ns or error_pct. The trace is
// consumed: the final method's compile steals its event vector, leaving `t`
// moved-from (earlier methods, if any, compile from copies).
bool BuildSweepPlan(trace::Trace&& t, const trace::FsSnapshot& snapshot,
                    SweepGrid grid, const std::string& trace_name,
                    SweepPlan* out, std::string* error);

// Everything the sweep measured about one cell, distilled from the replay
// report + critical-path analysis. Deliberately *not* the full
// CritPathReport: a large grid times a segment-level path would dwarf the
// results themselves.
struct CellStats {
  size_t index = 0;   // position in SweepPlan::cells
  std::string id;     // CellConfig::Id()
  CellConfig config;

  TimeNs end_ns = 0;          // replay wall span (report.wall_time)
  // The original program's elapsed time on the cell's target; 0 for a
  // pre-traced input, whose rows then carry neither orig_ns nor error_pct.
  TimeNs orig_ns = 0;
  TimeNs sim_end_ns = 0;      // final virtual clock (init + replay)
  uint64_t sim_switches = 0;
  uint64_t total_events = 0;
  uint64_t failed_events = 0;
  uint64_t digest = 0;        // check::SnapshotDigest of the final fs state

  // Critical-path tiling (exec + stall + pacing + idle == end_ns).
  TimeNs exec_ns = 0;
  TimeNs stall_ns = 0;
  TimeNs pacing_ns = 0;
  TimeNs idle_ns = 0;

  // Storage-layer split of the path's exec time.
  TimeNs storage_ns = 0;
  TimeNs storage_cache_ns = 0;
  TimeNs storage_media_read_ns = 0;
  TimeNs storage_media_write_ns = 0;
  TimeNs storage_writeback_ns = 0;

  // Path stall by emitting rule (completion + issue edges folded together).
  std::array<TimeNs, static_cast<size_t>(core::RuleTag::kCount)>
      stall_by_rule{};

  // Top path-stall resources, descending (name, ns); capped at 8.
  std::vector<std::pair<std::string, TimeNs>> top_stall;

  // The replay's storage counters; rows carry the block counts.
  storage::StorageCounters storage;

  // Host-clock cost of replaying + analyzing this cell, microseconds.
  // Inherently nondeterministic; the JSONL row includes it only when
  // SweepOptions::include_host_time is set.
  int64_t host_us = 0;

  // Signed replay error against the original, in percent: positive means
  // the replay ran longer. Only meaningful when orig_ns > 0.
  double ErrorPct() const;

  // One JSONL object (no trailing newline). Field order is fixed and every
  // map is emitted in a deterministic order, so equal stats produce equal
  // bytes. `include_host_time` gates the trailing host_us field.
  std::string ToJsonl(bool include_host_time) const;
};

// Per-axis aggregate: mean end/stall and the |error_pct| distribution per
// axis value, used for the sensitivity table, the error table (Fig. 7(b))
// and "top stall movers" in the one-pager.
struct AxisValueAgg {
  std::string value;
  size_t cells = 0;
  TimeNs end_ns_sum = 0;
  TimeNs stall_ns_sum = 0;
  SampleStats abs_error_pct;  // cells with an original run only
  double MeanEndNs() const {
    return cells == 0 ? 0.0 : static_cast<double>(end_ns_sum) / cells;
  }
  double MeanStallNs() const {
    return cells == 0 ? 0.0 : static_cast<double>(stall_ns_sum) / cells;
  }
};

// One axis over one workload's cells: end times of different programs are
// never averaged together.
struct AxisAgg {
  std::string workload;
  std::string axis;
  std::vector<AxisValueAgg> values;  // grid declaration order
  // (max mean end - min mean end) / the workload's mean end; 0 for
  // single-value axes.
  double EndSensitivity() const;
};

// The SplitMix64 finaliser, applied to each cell digest before it is added
// into SweepReport::digest_sum.
uint64_t MixCellDigest(uint64_t digest);

struct SweepReport {
  std::string workloads;     // distinct cell workloads, in cell order
  size_t cells = 0;
  size_t failed_cells = 0;   // cells whose replay failed events
  size_t jobs = 0;           // host workers used
  int64_t host_ms = 0;       // whole-sweep host time

  // Order-independent aggregates (integer sums over all cells).
  TimeNs end_ns_sum = 0;
  TimeNs stall_ns_sum = 0;
  TimeNs exec_ns_sum = 0;
  // Wrapping sum of MixCellDigest over all cells: order-independent, and
  // equal cell digests add up instead of cancelling.
  uint64_t digest_sum = 0;
  std::array<TimeNs, static_cast<size_t>(core::RuleTag::kCount)>
      stall_by_rule_sum{};

  // Per workload, only axes with > 1 distinct value; never the workload
  // axis itself.
  std::vector<AxisAgg> axes;
  std::vector<CellStats> stats;    // cell-index order

  // Extremes by end_ns (ties broken by cell index, so deterministic).
  size_t best_cell = 0;   // index into stats
  size_t worst_cell = 0;

  std::string ToJson() const;
  std::string OnePager() const;
};

struct SweepOptions {
  size_t jobs = 0;          // host workers (0 = util::DefaultJobs())
  // Backpressure window: at most this many cells in flight or parked in the
  // reorder buffer (0 = 4x the worker count). Bounds memory on huge grids.
  size_t max_inflight = 0;
  // Include the per-cell host_us field in JSONL rows. On by default; the
  // determinism tests (and anyone diffing rows across runs) turn it off —
  // it is the only nondeterministic field.
  bool include_host_time = true;
  // JSONL sink: a stream (tests), a path, or neither. When both are set the
  // rows go to both.
  std::ostream* jsonl_stream = nullptr;
  std::string jsonl_path;
};

// Runs every cell of the plan. Emits JSONL rows in cell-index order, updates
// the obs metrics plane as it goes (counters sweep.cells_completed /
// sweep.cells_failed / per-axis sweep.stall_ns.<axis>.<value>, gauges
// sweep.cells_inflight / sweep.cells_total / sweep.progress_permille /
// sweep.eta_ms), and returns the aggregate report. Returns false only when
// the JSONL path cannot be opened.
bool RunSweep(const SweepPlan& plan, const SweepOptions& options,
              SweepReport* out, std::string* error);

// Deterministic drill-down: re-runs exactly one cell (found by id prefix
// match against CellConfig::Id()) with full observability — the
// critical-path one-pager, its JSON report, and the critical-path trace
// overlay on obs::DefaultTracer() (exported via ARTC_TRACE_OUT /
// obs::FlushOutputs as a Perfetto-loadable Chrome JSON trace). The cell's
// virtual results are bit-identical to the sweep row it drills into.
struct DrillResult {
  CellStats stats;
  std::string one_pager;      // critpath OnePager + sweep cell header
  std::string critpath_json;  // CritPathReport::ToJson()
};

// Drills into one of the grids' cells without building their whole plan:
// it expands the grids, resolves `id_prefix` among all their cells, then
// traces, compiles and measures only what that one cell needs (on `jobs`
// host workers, 0 = util::DefaultJobs()). The result, the cell's index in
// the expanded grids included, equals the cell's row in a sweep of the
// grids.
bool DrillGrids(std::vector<SweepGrid> grids, const std::string& id_prefix,
                DrillResult* out, std::string* error, size_t jobs = 0);

// Runs plan.cells[index] synchronously (shared by RunSweep workers and
// DrillGrids). `emit_trace` overlays the critical path on the default tracer;
// when non-null, *critpath_json / *one_pager receive the full
// CritPathReport renderings.
CellStats RunOneCell(const SweepPlan& plan, size_t index,
                     bool emit_trace = false,
                     std::string* critpath_json = nullptr,
                     std::string* one_pager = nullptr);

}  // namespace artc::sweep

#endif  // SRC_SWEEP_SWEEP_H_
