// Schedule-space explorer: replays one compiled benchmark under many
// distinct legal schedules and checks every run against the invariant
// oracle plus the cross-run invariants (schedule-invariant final file-system
// state, bounded virtual end-time spread, multi-worker parallel identity).
// On a violation it dumps a minimized repro — a trace-bundle slice plus the
// schedule spec that re-triggers it — and optionally a PR 3 chrome-trace of
// the failing run.
#ifndef SRC_CHECK_EXPLORER_H_
#define SRC_CHECK_EXPLORER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/oracle.h"
#include "src/check/refmodel.h"
#include "src/core/artc.h"
#include "src/sim/schedule.h"
#include "src/trace/trace_io.h"

namespace artc::check {

struct ExploreOptions {
  // Schedule mix. The default-policy baseline always runs; on top of it:
  uint32_t random_schedules = 8;
  uint32_t pct_schedules = 4;
  uint64_t seed = 1;  // base for the per-schedule policy seeds

  // Preemption-bounded exhaustive enumeration (PrefixSchedulePolicy over
  // recorded branching factors). 0 disables; keep bounds tiny — the number
  // of choice points grows with every context switch.
  uint32_t exhaustive_preemption_bound = 0;
  uint32_t exhaustive_budget = 64;  // max extra schedules

  // Re-run the default schedule as shard 0 of a two-copy suite on two
  // kParallel workers with a finite window, and require bit-identical
  // timing and final state (backend parity, standing guard in the fuzz
  // loop).
  bool differential_backend = false;

  // Replay end times may legitimately vary with the schedule (different
  // cache/seek patterns), but only within reason; flag runs slower AND
  // faster than baseline by more than this factor.
  double end_time_slack = 16.0;

  // A generated/corpus trace must be self-consistent: annotate with zero
  // fsmodel warnings and zero refmodel return mismatches. Counted as
  // violations when strict (the harness default).
  bool strict_trace = true;

  core::CompileOptions compile;
  core::SimTarget target;      // .schedule is overridden per run
  std::string repro_dir;       // dump repro bundles here ("" = disabled)
  bool repro_obs_trace = false;  // also dump a chrome-trace of a failing run
};

struct ScheduleRunSummary {
  std::string schedule;  // ScheduleSpec::ToString() or "prefix:<picks>"
  uint64_t digest = 0;   // final fs-state digest
  TimeNs end_time = 0;
  uint64_t hb_violations = 0;
  uint64_t ret_mismatches = 0;
};

struct ExploreResult {
  uint64_t schedules_run = 0;
  uint64_t violations = 0;
  uint64_t hb_edges = 0;  // refmodel edge count (diagnostics)
  std::vector<std::string> problems;  // deduped human-readable, capped
  std::vector<ScheduleRunSummary> runs;
  std::string repro_path;  // bundle written on first violation ("" if none)

  bool ok() const { return violations == 0; }
};

ExploreResult ExploreBundle(const trace::TraceBundle& bundle, const ExploreOptions& opt);

// One replay under an explicit policy (nullptr = built-in scheduler), with
// the final file-system state digested for cross-schedule comparison.
// Exposed for tests and the negative-rule checks.
struct PolicyRunResult {
  core::ReplayReport report;
  TimeNs end_time = 0;
  uint64_t switches = 0;
  uint64_t digest = 0;
  size_t unfinished_threads = 0;
};
PolicyRunResult ReplayCompiledUnderPolicy(const core::CompiledBenchmark& bench,
                                          const core::SimTarget& target,
                                          sim::SchedulePolicy* policy);

// FNV-1a over the canonical snapshot serialization.
uint64_t SnapshotDigest(const trace::FsSnapshot& snapshot);

}  // namespace artc::check

#endif  // SRC_CHECK_EXPLORER_H_
