// Pluggable schedule policies for the simulation scheduler.
//
// The scheduler has exactly two kinds of nondeterministic choice points:
// which ready thread runs next (kRun) and which condvar waiter a NotifyOne
// wakes (kWake). By default both draw from the simulation's seeded RNG; a
// SchedulePolicy overrides the choice, which is how the checking harness
// (src/check/) explores many distinct legal interleavings of one replay:
//
//  - RandomSchedulePolicy: uniform choice from a policy-private RNG stream,
//    so the schedule varies with the policy seed while every other seeded
//    decision in the simulation (workload randomness, latency jitter) stays
//    fixed. This is rr's "chaos mode" shape.
//  - PctSchedulePolicy: PCT-style priority scheduling (Burckhardt et al.,
//    ASPLOS'10): each thread gets a random fixed priority, the highest
//    runnable priority always runs, and at d random steps the running
//    thread is demoted below everyone. Finds bugs that need a specific
//    small number of preemptions with provable probability.
//  - PrefixSchedulePolicy: replays an explicit choice sequence and records
//    the branching factor met at every choice point, which lets an explorer
//    enumerate all schedules with at most k non-default choices
//    (preemption-bounded exhaustive search) for small programs.
//
// Policies choose among candidates only when there are >= 2; single-choice
// points are invisible to them, so a choice sequence is dense in actual
// branch points.
#ifndef SRC_SIM_SCHEDULE_H_
#define SRC_SIM_SCHEDULE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/simulation.h"
#include "src/util/rng.h"

namespace artc::sim {

class RandomSchedulePolicy : public SchedulePolicy {
 public:
  explicit RandomSchedulePolicy(uint64_t seed) : rng_(seed) {}
  size_t Pick(ChoicePoint point, const SimThreadId* ids, size_t n,
              Rng& sim_rng) override;

 private:
  Rng rng_;
};

class PctSchedulePolicy : public SchedulePolicy {
 public:
  // `change_points` priority-change points are placed uniformly at random
  // over the first `horizon` choice points.
  PctSchedulePolicy(uint64_t seed, uint32_t change_points, uint32_t horizon = 4096);
  size_t Pick(ChoicePoint point, const SimThreadId* ids, size_t n,
              Rng& sim_rng) override;

 private:
  uint64_t PriorityOf(SimThreadId id);

  Rng rng_;
  std::vector<uint64_t> change_steps_;  // sorted, deduped
  uint64_t step_ = 0;
  uint64_t demote_next_;  // decreasing counter below every initial priority
  std::unordered_map<SimThreadId, uint64_t> priority_;
};

// Follows an explicit per-choice-point pick sequence; choice points beyond
// the sequence take candidate 0. Records the branching factor (number of
// candidates) seen at every choice point so callers can enumerate siblings.
class PrefixSchedulePolicy : public SchedulePolicy {
 public:
  explicit PrefixSchedulePolicy(std::vector<uint32_t> prefix)
      : prefix_(std::move(prefix)) {}
  size_t Pick(ChoicePoint point, const SimThreadId* ids, size_t n,
              Rng& sim_rng) override;

  const std::vector<uint32_t>& factors() const { return factors_; }

 private:
  std::vector<uint32_t> prefix_;
  std::vector<uint32_t> factors_;
  size_t step_ = 0;
};

// Serializable description of a schedule, small enough to embed in a repro
// bundle: kind + seed fully determine the interleaving.
enum class ScheduleKind : uint8_t { kDefault, kRandom, kPct };

struct ScheduleSpec {
  ScheduleKind kind = ScheduleKind::kDefault;
  uint64_t seed = 1;               // policy stream (kRandom, kPct)
  uint32_t pct_change_points = 8;  // kPct only
  uint32_t pct_horizon = 4096;     // kPct only

  std::string ToString() const;  // "default" | "random:7" | "pct:7/8"
};

const char* ScheduleKindName(ScheduleKind kind);

// Parses the ScheduleSpec::ToString() forms: "default", "random:7",
// "pct:7/8", and "pct:7" (the default change-point count). Every number is
// a whole plain decimal that fits its field (artc::ParseDecimal). Returns
// false (leaving *out default-initialized) on anything else. Shared by every frontend that accepts --schedule flags or grid-axis
// values (check_artc, artc_sweep).
bool ParseScheduleSpec(const std::string& s, ScheduleSpec* out);

// Builds the policy for a spec; kDefault yields nullptr (built-in scheduler,
// bit-identical to a simulation with no policy installed).
std::unique_ptr<SchedulePolicy> MakeSchedulePolicy(const ScheduleSpec& spec);

}  // namespace artc::sim

#endif  // SRC_SIM_SCHEDULE_H_
