// Schedule-space explorer: replays one compiled benchmark under many
// distinct legal schedules and checks every run against the invariant
// oracle plus the cross-run invariants (schedule-invariant final file-system
// state, bounded virtual end-time spread). Every replay goes through
// core::ReplayCompiledUnderPolicy, and every run is judged by the same
// verdict, whether it is the baseline, an explored schedule, a step of repro
// minimization or a repro-mode run. On a violation it dumps a minimized
// repro — a trace-bundle slice plus the check_artc command that re-triggers
// it — and optionally a chrome-trace of the failing run.
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

  core::CompileOptions compile;
  core::SimTarget target;      // .schedule is ignored: each run names its own
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
  std::vector<ScheduleRunSummary> runs;  // runs[0] is the default baseline
  std::string repro_path;  // bundle written on first violation ("" if none)

  bool ok() const { return violations == 0; }
};

ExploreResult ExploreBundle(const trace::TraceBundle& bundle, const ExploreOptions& opt);

// Explores `bundle` under the default baseline and `spec` alone, with every
// check ExploreBundle applies: the trace-level checks, the oracle on both
// runs, and `spec`'s run against the baseline's final state and end time.
// This is the predicate repro minimization shrinks a trace under, and what
// `check_artc --corpus=F --schedule=S` reports, so a printed repro command
// re-applies exactly the verdict that failed. Only `compile` and `target`
// of `opt` are read; it dumps no repro.
ExploreResult ExploreUnderSpec(const trace::TraceBundle& bundle,
                               const sim::ScheduleSpec& spec, const ExploreOptions& opt);

// Replays `bundle` under `spec` with the obs tracer on and writes the run's
// Chrome trace to `path`: the failing run a repro dumps with
// `repro_obs_trace`, and the named run of `check_artc --schedule=S
// --obs-repro=1`. Only `compile` and `target` of `opt` are read. False when
// `path` cannot be written.
bool WriteScheduleTrace(const trace::TraceBundle& bundle, const sim::ScheduleSpec& spec,
                        const ExploreOptions& opt, const std::string& path);

}  // namespace artc::check

#endif  // SRC_CHECK_EXPLORER_H_
