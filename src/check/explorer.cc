#include "src/check/explorer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "src/fsmodel/resource_model.h"
#include "src/obs/obs.h"
#include "src/obs/tracer.h"
#include "src/util/strings.h"

namespace artc::check {
namespace {

// Replay end times may legitimately vary with the schedule (different
// cache/seek patterns), but only within reason; runs slower AND faster than
// baseline by more than this factor are flagged.
constexpr double kEndTimeSlack = 16.0;

std::string PrefixLabel(const std::vector<uint32_t>& prefix) {
  std::string out = "prefix:";
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (i > 0) {
      out.push_back(',');
    }
    out += std::to_string(prefix[i]);
  }
  return out;
}

uint32_t CountPreemptions(const std::vector<uint32_t>& prefix) {
  uint32_t n = 0;
  for (uint32_t c : prefix) {
    if (c != 0) {
      n++;
    }
  }
  return n;
}

}  // namespace

uint64_t SnapshotDigest(const trace::FsSnapshot& snapshot) {
  std::ostringstream out;
  trace::WriteSnapshot(snapshot, out);
  const std::string s = out.str();
  uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

// Shared state for one exploration of a bundle.
struct Explorer {
  const trace::TraceBundle& bundle;
  const ExploreOptions& opt;
  RefModel model;
  core::CompiledBenchmark bench;
  ExploreResult result;
  bool have_failing_spec = false;
  sim::ScheduleSpec failing_spec;  // first spec-describable failing schedule

  Explorer(const trace::TraceBundle& b, const ExploreOptions& o)
      : bundle(b), opt(o), model(BuildRefModel(b)),
        bench(core::Compile(b.trace, b.snapshot, o.compile)) {
    result.hb_edges = model.edges.size();
  }

  void Problem(const std::string& text) {
    if (result.problems.size() < 8 &&
        std::find(result.problems.begin(), result.problems.end(), text) ==
            result.problems.end()) {
      result.problems.push_back(text);
    }
  }

  // What every exploration starts with. First the checks that need no
  // replay: a generated or corpus trace must be self-consistent, with zero
  // refmodel return mismatches and zero fsmodel annotation warnings. Then
  // the baseline run: the default scheduler, exactly as production replay
  // runs it.
  void CheckTraceAndBaseline() {
    if (model.mismatched_returns > 0) {
      result.violations += model.mismatched_returns;
      Problem(StrFormat("trace disagrees with the reference model: %s",
                        model.first_mismatch.c_str()));
    }
    fsmodel::AnnotateOptions aopt;
    aopt.materialize_labels = false;
    fsmodel::AnnotatedTrace ann = fsmodel::AnnotateTrace(bundle.trace, bundle.snapshot, aopt);
    if (ann.warnings > 0) {
      result.violations += ann.warnings;
      Problem(StrFormat("fsmodel annotation reported %llu warnings: %s",
                        static_cast<unsigned long long>(ann.warnings),
                        ann.first_warning.c_str()));
    }
    RunSpec(sim::ScheduleSpec());
  }

  void RunSpec(const sim::ScheduleSpec& spec) {
    std::unique_ptr<sim::SchedulePolicy> policy = sim::MakeSchedulePolicy(spec);
    RunOne(policy.get(), spec.ToString(), &spec);
  }

  // The verdict on one schedule: replays under `policy`, checks the run
  // against the invariant oracle and, for every run after the baseline (the
  // first run), against the baseline's final fs state and end time, then
  // records the summary. `spec` is set for spec-describable schedules
  // (usable in a repro), null for prefixes.
  void RunOne(sim::SchedulePolicy* policy, const std::string& label,
              const sim::ScheduleSpec* spec) {
    trace::FsSnapshot final_state;
    core::SimReplayResult run =
        core::ReplayCompiledUnderPolicy(bench, opt.target, policy, &final_state);
    OracleFindings findings = CheckSchedule(model, bundle.trace, run.report);

    ScheduleRunSummary summary;
    summary.schedule = label;
    summary.digest = SnapshotDigest(final_state);
    summary.end_time = run.sim_end_time;
    summary.hb_violations = findings.hb_violations;
    summary.ret_mismatches = findings.ret_mismatches;

    uint64_t run_violations = findings.hb_violations + findings.ret_mismatches +
                              findings.unexecuted;
    if (run.unfinished_threads > 0) {
      run_violations++;
      Problem(StrFormat("[%s] %zu simulated threads never finished (deadlock)",
                        label.c_str(), run.unfinished_threads));
    }
    if (!findings.ok()) {
      Problem(StrFormat("[%s] %s", label.c_str(), findings.first_violation.c_str()));
    }
    if (!result.runs.empty()) {
      const ScheduleRunSummary& baseline = result.runs.front();
      if (summary.digest != baseline.digest) {
        run_violations++;
        Problem(StrFormat(
            "[%s] final fs state diverged from baseline (digest %016llx vs %016llx)",
            label.c_str(), static_cast<unsigned long long>(summary.digest),
            static_cast<unsigned long long>(baseline.digest)));
      }
      double hi = static_cast<double>(std::max<TimeNs>(summary.end_time, 1));
      double lo = static_cast<double>(std::max<TimeNs>(baseline.end_time, 1));
      double ratio = hi > lo ? hi / lo : lo / hi;
      if (ratio > kEndTimeSlack) {
        run_violations++;
        Problem(StrFormat("[%s] virtual end time %lld vs baseline %lld exceeds %.1fx slack",
                          label.c_str(), static_cast<long long>(summary.end_time),
                          static_cast<long long>(baseline.end_time), kEndTimeSlack));
      }
    }
    if (run_violations > 0 && result.violations == 0 && spec != nullptr) {
      have_failing_spec = true;
      failing_spec = *spec;
    }
    result.violations += run_violations;
    result.schedules_run++;
    result.runs.push_back(std::move(summary));
  }
};

// Shrinks the trace to the shortest prefix that still fails under `spec`,
// judged by ExploreUnderSpec. A prefix of a sequentially consistent trace is
// always itself a valid trace, so plain binary search over the cut point
// suffices.
trace::TraceBundle MinimizeRepro(const trace::TraceBundle& bundle,
                                 const sim::ScheduleSpec& spec,
                                 const ExploreOptions& opt) {
  size_t lo = 1;
  size_t hi = bundle.trace.events.size();
  auto slice = [&](size_t n) {
    trace::TraceBundle sub;
    sub.snapshot = bundle.snapshot;
    sub.trace.events.assign(bundle.trace.events.begin(),
                            bundle.trace.events.begin() + static_cast<ptrdiff_t>(n));
    return sub;
  };
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (!ExploreUnderSpec(slice(mid), spec, opt).ok()) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo < bundle.trace.events.size() ? slice(lo) : bundle;
}

void DumpRepro(Explorer& ex) {
  const ExploreOptions& opt = ex.opt;
  std::error_code ec;
  std::filesystem::create_directories(opt.repro_dir, ec);

  trace::TraceBundle repro = ex.bundle;
  std::string schedule = "default";
  if (ex.have_failing_spec) {
    schedule = ex.failing_spec.ToString();
    repro = MinimizeRepro(ex.bundle, ex.failing_spec, opt);
  }
  std::string bundle_path = opt.repro_dir + "/repro.trace";
  trace::WriteTraceBundleFile(repro, bundle_path);
  ex.result.repro_path = bundle_path;

  std::ofstream txt(opt.repro_dir + "/repro.txt");
  txt << "schedule: " << schedule << "\n";
  txt << "sim_seed: " << opt.target.seed << "\n";
  txt << "events: " << repro.trace.events.size() << " (of "
      << ex.bundle.trace.events.size() << ")\n";
  for (const std::string& p : ex.result.problems) {
    txt << "problem: " << p << "\n";
  }
  txt << "reproduce: check_artc --corpus=" << bundle_path << " --schedule=" << schedule
      << " --storage=" << opt.target.storage.name << "\n";

  if (opt.repro_obs_trace && ex.have_failing_spec) {
    // Capture the failing run with the obs tracer for timeline inspection.
    obs::Enable();
    obs::DefaultTracer().Clear();
    core::CompiledBenchmark bench = core::Compile(repro.trace, repro.snapshot, opt.compile);
    core::SimTarget target = opt.target;
    target.schedule = ex.failing_spec;
    core::ReplayCompiledOnSimTarget(bench, target);
    obs::DefaultTracer().WriteChromeJson(opt.repro_dir + "/repro_obs.json");
    obs::Disable();
  }
}

}  // namespace

ExploreResult ExploreBundle(const trace::TraceBundle& bundle, const ExploreOptions& opt) {
  Explorer ex(bundle, opt);
  ex.CheckTraceAndBaseline();

  for (uint32_t i = 0; i < opt.random_schedules; ++i) {
    sim::ScheduleSpec spec;
    spec.kind = sim::ScheduleKind::kRandom;
    spec.seed = opt.seed * 7919 + i;
    ex.RunSpec(spec);
  }
  for (uint32_t i = 0; i < opt.pct_schedules; ++i) {
    sim::ScheduleSpec spec;
    spec.kind = sim::ScheduleKind::kPct;
    spec.seed = opt.seed * 104729 + i;
    spec.pct_change_points = 2 + (i % 8);
    ex.RunSpec(spec);
  }

  if (opt.exhaustive_preemption_bound > 0 && opt.exhaustive_budget > 0) {
    std::vector<std::vector<uint32_t>> queue;
    queue.push_back({});
    uint32_t used = 0;
    size_t qi = 0;
    while (qi < queue.size() && used < opt.exhaustive_budget) {
      std::vector<uint32_t> prefix = queue[qi++];
      sim::PrefixSchedulePolicy policy(prefix);
      ex.RunOne(&policy, PrefixLabel(prefix), nullptr);
      used++;
      if (CountPreemptions(prefix) >= opt.exhaustive_preemption_bound) {
        continue;
      }
      const std::vector<uint32_t>& factors = policy.factors();
      for (size_t i = prefix.size();
           i < factors.size() && queue.size() < qi + (opt.exhaustive_budget - used);
           ++i) {
        for (uint32_t c = 1; c < factors[i]; ++c) {
          std::vector<uint32_t> next = prefix;
          next.resize(i, 0);
          next.push_back(c);
          queue.push_back(std::move(next));
          if (queue.size() >= qi + (opt.exhaustive_budget - used)) {
            break;
          }
        }
      }
    }
  }

  if (ex.result.violations > 0 && !opt.repro_dir.empty()) {
    DumpRepro(ex);
  }
  return std::move(ex.result);
}

ExploreResult ExploreUnderSpec(const trace::TraceBundle& bundle,
                               const sim::ScheduleSpec& spec, const ExploreOptions& opt) {
  Explorer ex(bundle, opt);
  ex.CheckTraceAndBaseline();
  ex.RunSpec(spec);
  return std::move(ex.result);
}

}  // namespace artc::check
