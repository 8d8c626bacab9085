#include "src/sim/schedule.h"

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "src/util/check.h"
#include "src/util/strings.h"

namespace artc::sim {

size_t RandomSchedulePolicy::Pick(ChoicePoint point, const SimThreadId* ids,
                                  size_t n, Rng& sim_rng) {
  (void)point;
  (void)ids;
  (void)sim_rng;
  return rng_.NextBelow(n);
}

PctSchedulePolicy::PctSchedulePolicy(uint64_t seed, uint32_t change_points,
                                     uint32_t horizon)
    : rng_(seed), demote_next_(uint64_t{1} << 32) {
  ARTC_CHECK(horizon > 0);
  change_steps_.reserve(change_points);
  for (uint32_t i = 0; i < change_points; ++i) {
    change_steps_.push_back(1 + rng_.NextBelow(horizon));
  }
  std::sort(change_steps_.begin(), change_steps_.end());
  change_steps_.erase(std::unique(change_steps_.begin(), change_steps_.end()),
                      change_steps_.end());
}

uint64_t PctSchedulePolicy::PriorityOf(SimThreadId id) {
  auto it = priority_.find(id);
  if (it != priority_.end()) {
    return it->second;
  }
  // Initial priorities live strictly above the demotion band.
  uint64_t p = rng_.Next() | (uint64_t{1} << 62);
  priority_.emplace(id, p);
  return p;
}

size_t PctSchedulePolicy::Pick(ChoicePoint point, const SimThreadId* ids,
                               size_t n, Rng& sim_rng) {
  (void)point;
  (void)sim_rng;
  step_++;
  size_t best = 0;
  uint64_t best_prio = PriorityOf(ids[0]);
  for (size_t i = 1; i < n; ++i) {
    uint64_t p = PriorityOf(ids[i]);
    if (p > best_prio) {
      best_prio = p;
      best = i;
    }
  }
  if (std::binary_search(change_steps_.begin(), change_steps_.end(), step_)) {
    // Demote the thread that would have run: everyone else overtakes it.
    priority_[ids[best]] = demote_next_--;
  }
  return best;
}

size_t PrefixSchedulePolicy::Pick(ChoicePoint point, const SimThreadId* ids,
                                  size_t n, Rng& sim_rng) {
  (void)point;
  (void)ids;
  (void)sim_rng;
  factors_.push_back(static_cast<uint32_t>(n));
  size_t pick = 0;
  if (step_ < prefix_.size()) {
    pick = std::min<size_t>(prefix_[step_], n - 1);
  }
  step_++;
  return pick;
}

const char* ScheduleKindName(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kDefault:
      return "default";
    case ScheduleKind::kRandom:
      return "random";
    case ScheduleKind::kPct:
      return "pct";
  }
  return "?";
}

std::string ScheduleSpec::ToString() const {
  switch (kind) {
    case ScheduleKind::kDefault:
      return "default";
    case ScheduleKind::kRandom:
      return artc::StrFormat("random:%llu", static_cast<unsigned long long>(seed));
    case ScheduleKind::kPct:
      return artc::StrFormat("pct:%llu/%u", static_cast<unsigned long long>(seed),
                             pct_change_points);
  }
  return "?";
}

bool ParseScheduleSpec(const std::string& s, ScheduleSpec* out) {
  *out = ScheduleSpec();
  const std::string_view v = s;
  uint64_t seed = 0;
  if (v == "default") {
    return true;
  }
  if (v.starts_with("random:")) {
    if (!ParseDecimal(v.substr(7), UINT64_MAX, &seed)) {
      return false;
    }
    out->kind = ScheduleKind::kRandom;
    out->seed = seed;
    return true;
  }
  if (v.starts_with("pct:")) {
    const std::string_view rest = v.substr(4);
    const size_t slash = rest.find('/');
    uint64_t points = out->pct_change_points;
    if (!ParseDecimal(rest.substr(0, slash), UINT64_MAX, &seed) ||
        (slash != std::string_view::npos &&
         !ParseDecimal(rest.substr(slash + 1), UINT32_MAX, &points))) {
      return false;
    }
    out->kind = ScheduleKind::kPct;
    out->seed = seed;
    out->pct_change_points = static_cast<uint32_t>(points);
    return true;
  }
  return false;
}

std::unique_ptr<SchedulePolicy> MakeSchedulePolicy(const ScheduleSpec& spec) {
  switch (spec.kind) {
    case ScheduleKind::kDefault:
      return nullptr;
    case ScheduleKind::kRandom:
      return std::make_unique<RandomSchedulePolicy>(spec.seed);
    case ScheduleKind::kPct:
      return std::make_unique<PctSchedulePolicy>(spec.seed, spec.pct_change_points,
                                                 spec.pct_horizon);
  }
  return nullptr;
}

}  // namespace artc::sim
