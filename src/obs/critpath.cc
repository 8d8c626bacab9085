#include "src/obs/critpath.h"

#include <algorithm>

#include "src/obs/obs.h"
#include "src/obs/tracer.h"
#include "src/util/check.h"
#include "src/util/strings.h"

namespace artc::obs {
namespace {

using core::ActionOutcome;
using core::CompiledBenchmark;
using core::Dep;
using core::DepKind;
using core::DepSpan;
using core::kNoEvent;
using core::kUnattributedSlice;
using core::ReplayReport;
using core::RuleTag;
using core::RuleTagName;
using core::StallSlice;

constexpr size_t kRuleCount = static_cast<size_t>(RuleTag::kCount);

// Same-thread predecessor per action (kNoEvent for each thread's first).
std::vector<uint32_t> BuildPredecessors(const CompiledBenchmark& bench) {
  std::vector<uint32_t> pred(bench.size(), kNoEvent);
  for (const std::vector<uint32_t>& actions : bench.thread_actions) {
    for (size_t k = 1; k < actions.size(); ++k) {
      pred[actions[k]] = actions[k - 1];
    }
  }
  return pred;
}

// Longest-path DP over the edge-filtered graph: replays the schedule's
// timing structure (per-action exec and pacing durations held at observed
// values) with only the edges `keep` admits enforced. Trace order is a
// topological order (every dep points backward), so one forward pass
// suffices. With every edge kept this reproduces the actual end time
// exactly; with edges dropped it is a lower bound on any legal re-run.
template <typename KeepFn>
TimeNs WhatIfEndTime(const CompiledBenchmark& bench,
                     const std::vector<ActionOutcome>& outcomes,
                     const std::vector<uint32_t>& pred, TimeNs start,
                     KeepFn keep) {
  const size_t n = bench.size();
  std::vector<TimeNs> issue_dp(n, start);
  std::vector<TimeNs> finish(n, start);
  TimeNs end = start;
  for (uint32_t i = 0; i < n; ++i) {
    const ActionOutcome& out = outcomes[i];
    if (!out.executed) {
      TimeNs ready = pred[i] == kNoEvent ? start : finish[pred[i]];
      issue_dp[i] = ready;
      finish[i] = ready;
      continue;
    }
    const TimeNs exec = out.complete - out.issue;
    const TimeNs pace = out.issue - (out.wait_start + out.dep_stall);
    TimeNs ready = pred[i] == kNoEvent ? start : finish[pred[i]];
    for (const Dep& d : bench.DepsFor(i)) {
      if (!keep(d)) {
        continue;
      }
      const TimeNs satisfy =
          d.kind == DepKind::kIssue ? issue_dp[d.event] : finish[d.event];
      ready = std::max(ready, satisfy);
    }
    issue_dp[i] = ready + pace;
    finish[i] = issue_dp[i] + exec;
    end = std::max(end, finish[i]);
  }
  return end;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  AppendJsonEscaped(out, s);
  out->push_back('"');
}

}  // namespace

const char* CritSegmentKindName(CritSegmentKind k) {
  switch (k) {
    case CritSegmentKind::kExec:
      return "exec";
    case CritSegmentKind::kStall:
      return "stall";
    case CritSegmentKind::kPacing:
      return "pacing";
    case CritSegmentKind::kIdle:
      return "idle";
  }
  return "?";
}

CritPathReport AnalyzeCriticalPath(const CompiledBenchmark& bench,
                                   const ReplayReport& report,
                                   const CritPathOptions& options) {
  CritPathReport cp;
  const std::vector<ActionOutcome>& outcomes = report.outcomes;
  ARTC_CHECK(outcomes.size() == bench.size());

  // Replay start and end. Every replay thread stamps wait_start before its
  // first action, so the minimum over executed actions is the moment
  // RunThreads released them — the replay's t=0.
  uint32_t last = kNoEvent;
  bool any = false;
  TimeNs start = 0;
  TimeNs end = 0;
  for (uint32_t i = 0; i < outcomes.size(); ++i) {
    const ActionOutcome& out = outcomes[i];
    if (!out.executed) {
      continue;
    }
    if (!any || out.wait_start < start) {
      start = out.wait_start;
    }
    if (!any || out.complete > end) {
      end = out.complete;
      last = i;
    }
    any = true;
  }
  cp.start = start;
  cp.end_time = end;
  if (!any) {
    return cp;
  }

  const std::vector<uint32_t> pred = BuildPredecessors(bench);

  // Backward walk from the last completion. `t` is the frontier: everything
  // in [t, end] is already covered by emitted segments. Each action on the
  // path contributes (in backward order) its execution, its pacing sleep,
  // and its stall slices, all clamped below the frontier, then the walk
  // hops to the final blocking edge's action (or the same-thread
  // predecessor, whose completion bounds this action's wait start). In the
  // virtual-time sim per-thread timelines are contiguous —
  // complete(pred) == wait_start(next) — so the clamped emissions tile
  // [start, end] exactly.
  TimeNs t = end;
  auto emit = [&](CritSegmentKind kind, uint32_t action, uint32_t dep_index,
                  TimeNs lo, TimeNs hi) {
    hi = std::min(hi, t);
    lo = std::max(lo, start);
    if (lo >= hi) {
      return;
    }
    cp.segments.push_back({kind, action, dep_index, lo, hi});
    t = lo;
  };

  std::vector<StallSlice> slices;
  uint32_t cur = last;
  // Hop indices strictly decrease (deps and predecessors are earlier
  // actions), so the walk terminates within bench.size() steps.
  while (true) {
    const ActionOutcome& out = outcomes[cur];
    const TimeNs wait_end = out.wait_start + out.dep_stall;
    emit(CritSegmentKind::kExec, cur, kUnattributedSlice, out.issue,
         out.complete);
    emit(CritSegmentKind::kPacing, cur, kUnattributedSlice, wait_end,
         out.issue);
    core::ComputeStallSlices(bench, cur, outcomes, &slices);
    for (size_t k = slices.size(); k-- > 0;) {
      emit(CritSegmentKind::kStall, cur, slices[k].dep_index, slices[k].begin,
           slices[k].end);
    }
    if (t <= start) {
      break;
    }
    // Hop: the edge whose satisfaction ended the wait, else thread order.
    uint32_t next = kNoEvent;
    if (out.dep_stall > 0) {
      const DepSpan deps = bench.DepsFor(cur);
      for (size_t k = slices.size(); k-- > 0;) {
        if (slices[k].dep_index != kUnattributedSlice) {
          next = deps[slices[k].dep_index].event;
          break;
        }
      }
    }
    if (next == kNoEvent) {
      next = pred[cur];
    }
    if (next == kNoEvent) {
      emit(CritSegmentKind::kIdle, kNoEvent, kUnattributedSlice, start, t);
      break;
    }
    cur = next;
  }
  std::reverse(cp.segments.begin(), cp.segments.end());

  // Totals and attribution tables.
  std::vector<TimeNs> stall_by_res(bench.dep_resource_names.size(), 0);
  std::vector<TimeNs> by_thread(bench.thread_actions.size(), 0);
  for (const CritSegment& seg : cp.segments) {
    const TimeNs dur = seg.Duration();
    switch (seg.kind) {
      case CritSegmentKind::kExec: {
        cp.exec_ns += dur;
        const ActionOutcome& out = outcomes[seg.action];
        const TimeNs call = out.complete - out.issue;
        if (out.storage_ns > 0 && call > 0) {
          // Prorate the action's storage-service share onto the (possibly
          // clamped) path segment. Double math: the ns products overflow
          // int64 on multi-second calls.
          cp.storage_ns += static_cast<TimeNs>(
              static_cast<double>(out.storage_ns) * static_cast<double>(dur) /
              static_cast<double>(call));
        }
        break;
      }
      case CritSegmentKind::kStall: {
        cp.stall_ns += dur;
        if (seg.dep_index == kUnattributedSlice) {
          cp.stall_unattributed += dur;
          break;
        }
        const Dep& d = bench.DepsFor(seg.action)[seg.dep_index];
        cp.stall_by_rule_kind[static_cast<size_t>(d.rule)]
                             [d.kind == DepKind::kIssue ? 1 : 0] += dur;
        if (d.res < stall_by_res.size()) {
          stall_by_res[d.res] += dur;
        }
        break;
      }
      case CritSegmentKind::kPacing:
        cp.pacing_ns += dur;
        break;
      case CritSegmentKind::kIdle:
        cp.idle_ns += dur;
        break;
    }
    if (seg.action != kNoEvent) {
      by_thread[bench.actions[seg.action].thread_index] += dur;
    }
  }

  for (uint32_t r = 0; r < stall_by_res.size(); ++r) {
    if (stall_by_res[r] > 0) {
      cp.stall_by_resource.emplace_back(bench.DepResourceName(r),
                                        stall_by_res[r]);
    }
  }
  std::sort(cp.stall_by_resource.begin(), cp.stall_by_resource.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  for (uint32_t th = 0; th < by_thread.size(); ++th) {
    if (by_thread[th] > 0) {
      cp.path_ns_by_thread.emplace_back(th, by_thread[th]);
    }
  }
  std::sort(cp.path_ns_by_thread.begin(), cp.path_ns_by_thread.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });

  // Storage-layer split: the run-wide service breakdown prorated onto the
  // path's storage share. Per-action deltas don't carry the category, so
  // this assumes the path's storage mix matches the run's — an explicit
  // approximation (DESIGN.md §5e); the total storage_ns is exact.
  if (options.have_storage && cp.storage_ns > 0) {
    const storage::StorageCounters& sc = options.storage;
    const TimeNs total = sc.service_cache_ns + sc.service_media_read_ns +
                         sc.service_media_write_ns + sc.service_writeback_ns;
    if (total > 0) {
      auto share = [&](TimeNs part) {
        return static_cast<TimeNs>(static_cast<double>(cp.storage_ns) *
                                   static_cast<double>(part) /
                                   static_cast<double>(total));
      };
      cp.storage_cache_ns = share(sc.service_cache_ns);
      cp.storage_media_read_ns = share(sc.service_media_read_ns);
      cp.storage_media_write_ns = share(sc.service_media_write_ns);
      cp.storage_writeback_ns =
          cp.storage_ns - cp.storage_cache_ns - cp.storage_media_read_ns -
          cp.storage_media_write_ns;
    }
  }

  // What-if slack analysis. "baseline" keeps everything (and equals the
  // actual end time exactly — asserted by tests); each rule entry frees
  // that rule's edges; "all_edges_free" leaves only thread order, i.e. the
  // longest single-thread execution.
  cp.what_ifs.push_back(
      {"baseline", WhatIfEndTime(bench, outcomes, pred, start,
                                 [](const Dep&) { return true; })});
  std::array<bool, kRuleCount> rule_present{};
  for (const Dep& d : bench.dep_arena) {
    rule_present[static_cast<size_t>(d.rule)] = true;
  }
  for (size_t r = 0; r < kRuleCount; ++r) {
    if (!rule_present[r]) {
      continue;
    }
    const RuleTag rule = static_cast<RuleTag>(r);
    cp.what_ifs.push_back(
        {RuleTagName(rule),
         WhatIfEndTime(bench, outcomes, pred, start,
                       [rule](const Dep& d) { return d.rule != rule; })});
  }
  cp.what_ifs.push_back(
      {"all_edges_free", WhatIfEndTime(bench, outcomes, pred, start,
                                       [](const Dep&) { return false; })});

  if (options.emit_trace) {
    ARTC_OBS_IF_ENABLED { EmitCritPathTrace(cp, DefaultTracer()); }
  }
  return cp;
}

CritPathReport AnalyzeSimReplay(const CompiledBenchmark& bench,
                                const core::SimReplayResult& result,
                                bool emit_trace) {
  CritPathOptions options;
  options.storage = result.storage;
  options.have_storage = true;
  options.emit_trace = emit_trace;
  return AnalyzeCriticalPath(bench, result.report, options);
}

void EmitCritPathTrace(const CritPathReport& report, Tracer& tracer) {
  tracer.SetTrackName(ClockDomain::kVirtual, kCritPathTrack, "critical-path");
  uint32_t prev_action = kNoEvent;
  TimeNs prev_end = 0;
  uint64_t flows = 0;
  for (const CritSegment& seg : report.segments) {
    tracer.CompleteSpan(ClockDomain::kVirtual, kCritPathTrack, "critpath",
                        CritSegmentKindName(seg.kind), seg.begin,
                        seg.Duration(), "action",
                        seg.action == kNoEvent
                            ? -1
                            : static_cast<int64_t>(seg.action));
    // A hop between actions gets a flow arrow so Perfetto draws the chain.
    if (seg.action != prev_action && prev_action != kNoEvent &&
        seg.action != kNoEvent) {
      const uint64_t id = (1ull << 48) | flows++;
      tracer.FlowStart(ClockDomain::kVirtual, kCritPathTrack, "critpath",
                       "hop", prev_end, id);
      tracer.FlowEnd(ClockDomain::kVirtual, kCritPathTrack, "critpath", "hop",
                     seg.begin, id);
    }
    prev_action = seg.action;
    prev_end = seg.end;
  }
}

std::string CritPathReport::ToJson() const {
  std::string j = "{\n";
  j += StrFormat("  \"start\": %lld,\n", static_cast<long long>(start));
  j += StrFormat("  \"end_time\": %lld,\n", static_cast<long long>(end_time));
  j += StrFormat("  \"exec_ns\": %lld,\n", static_cast<long long>(exec_ns));
  j += StrFormat("  \"stall_ns\": %lld,\n", static_cast<long long>(stall_ns));
  j += StrFormat("  \"pacing_ns\": %lld,\n", static_cast<long long>(pacing_ns));
  j += StrFormat("  \"idle_ns\": %lld,\n", static_cast<long long>(idle_ns));
  j += StrFormat("  \"storage_ns\": %lld,\n", static_cast<long long>(storage_ns));
  j += StrFormat(
      "  \"storage_layers\": {\"cache\": %lld, \"media_read\": %lld, "
      "\"media_write\": %lld, \"writeback\": %lld},\n",
      static_cast<long long>(storage_cache_ns),
      static_cast<long long>(storage_media_read_ns),
      static_cast<long long>(storage_media_write_ns),
      static_cast<long long>(storage_writeback_ns));
  j += "  \"segments\": [";
  for (size_t i = 0; i < segments.size(); ++i) {
    const CritSegment& s = segments[i];
    j += StrFormat(
        "%s\n    {\"kind\": \"%s\", \"action\": %lld, \"begin\": %lld, "
        "\"end\": %lld}",
        i == 0 ? "" : ",", CritSegmentKindName(s.kind),
        s.action == kNoEvent ? -1ll : static_cast<long long>(s.action),
        static_cast<long long>(s.begin), static_cast<long long>(s.end));
  }
  j += "\n  ],\n";
  j += "  \"stall_by_rule\": {";
  bool first = true;
  for (size_t r = 0; r < kRuleCount; ++r) {
    const auto& rk = stall_by_rule_kind[r];
    if (rk[0] == 0 && rk[1] == 0) {
      continue;
    }
    j += StrFormat(
        "%s\n    \"%s\": {\"completion\": %lld, \"issue\": %lld, "
        "\"total\": %lld}",
        first ? "" : ",", RuleTagName(static_cast<RuleTag>(r)),
        static_cast<long long>(rk[0]), static_cast<long long>(rk[1]),
        static_cast<long long>(rk[0] + rk[1]));
    first = false;
  }
  j += "\n  },\n";
  j += StrFormat("  \"stall_unattributed\": %lld,\n",
                 static_cast<long long>(stall_unattributed));
  j += "  \"stall_by_resource\": [";
  for (size_t i = 0; i < stall_by_resource.size(); ++i) {
    j += i == 0 ? "\n    {\"name\": " : ",\n    {\"name\": ";
    AppendJsonString(&j, stall_by_resource[i].first);
    j += StrFormat(", \"ns\": %lld}",
                   static_cast<long long>(stall_by_resource[i].second));
  }
  j += "\n  ],\n";
  j += "  \"path_ns_by_thread\": [";
  for (size_t i = 0; i < path_ns_by_thread.size(); ++i) {
    j += StrFormat("%s\n    {\"thread\": %u, \"ns\": %lld}",
                   i == 0 ? "" : ",", path_ns_by_thread[i].first,
                   static_cast<long long>(path_ns_by_thread[i].second));
  }
  j += "\n  ],\n";
  j += "  \"what_ifs\": [";
  for (size_t i = 0; i < what_ifs.size(); ++i) {
    j += i == 0 ? "\n    {\"name\": " : ",\n    {\"name\": ";
    AppendJsonString(&j, what_ifs[i].name);
    j += StrFormat(", \"end_time\": %lld}",
                   static_cast<long long>(what_ifs[i].end_time));
  }
  j += "\n  ]\n}\n";
  return j;
}

std::string CritPathReport::OnePager() const {
  const TimeNs span = end_time - start;
  auto pct = [span](TimeNs ns) {
    return span > 0 ? 100.0 * static_cast<double>(ns) /
                          static_cast<double>(span)
                    : 0.0;
  };
  std::string s;
  s += StrFormat("critical path: %.6fs (%zu segments)\n", ToSeconds(span),
                 segments.size());
  s += StrFormat("  exec    %10.6fs  %5.1f%%\n", ToSeconds(exec_ns),
                 pct(exec_ns));
  s += StrFormat("  stall   %10.6fs  %5.1f%%\n", ToSeconds(stall_ns),
                 pct(stall_ns));
  s += StrFormat("  pacing  %10.6fs  %5.1f%%\n", ToSeconds(pacing_ns),
                 pct(pacing_ns));
  if (idle_ns > 0) {
    s += StrFormat("  idle    %10.6fs  %5.1f%%\n", ToSeconds(idle_ns),
                   pct(idle_ns));
  }
  if (storage_ns > 0) {
    s += StrFormat(
        "storage on path: %.6fs (cache %.6fs, media read %.6fs, media "
        "write %.6fs, writeback %.6fs)\n",
        ToSeconds(storage_ns), ToSeconds(storage_cache_ns),
        ToSeconds(storage_media_read_ns), ToSeconds(storage_media_write_ns),
        ToSeconds(storage_writeback_ns));
  }
  s += "stall by rule:\n";
  for (size_t r = 0; r < kRuleCount; ++r) {
    const auto& rk = stall_by_rule_kind[r];
    if (rk[0] == 0 && rk[1] == 0) {
      continue;
    }
    s += StrFormat("  %-10s %10.6fs  %5.1f%%  (completion %.6fs, issue %.6fs)\n",
                   RuleTagName(static_cast<RuleTag>(r)),
                   ToSeconds(rk[0] + rk[1]), pct(rk[0] + rk[1]),
                   ToSeconds(rk[0]), ToSeconds(rk[1]));
  }
  if (stall_unattributed > 0) {
    s += StrFormat("  %-10s %10.6fs\n", "(wakeup)",
                   ToSeconds(stall_unattributed));
  }
  if (!stall_by_resource.empty()) {
    s += "top stall resources:\n";
    const size_t top = std::min<size_t>(10, stall_by_resource.size());
    for (size_t i = 0; i < top; ++i) {
      s += StrFormat("  %-40s %10.6fs\n", stall_by_resource[i].first.c_str(),
                     ToSeconds(stall_by_resource[i].second));
    }
  }
  if (!path_ns_by_thread.empty()) {
    s += "path time by thread:\n";
    for (const auto& [th, ns] : path_ns_by_thread) {
      s += StrFormat("  thread %-3u %10.6fs  %5.1f%%\n", th, ToSeconds(ns),
                     pct(ns));
    }
  }
  s += "what-if end times (lower bounds):\n";
  for (const CritPathWhatIf& w : what_ifs) {
    const TimeNs wspan = w.end_time - start;
    s += StrFormat("  %-16s %10.6fs  (%.1f%% of actual)\n", w.name.c_str(),
                   ToSeconds(wspan), pct(wspan));
  }
  return s;
}

}  // namespace artc::obs
