#include "src/check/explorer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "src/core/sim_env.h"
#include "src/fsmodel/resource_model.h"
#include "src/obs/obs.h"
#include "src/obs/tracer.h"
#include "src/storage/storage_stack.h"
#include "src/util/check.h"
#include "src/util/strings.h"
#include "src/vfs/vfs.h"

namespace artc::check {
namespace {

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

// Replays one copy of `bench` on every shard of a simulation built from
// `config`. Each shard gets its own storage stack, file system and replay
// environment; shard k is seeded with Simulation::ShardSeed(target.seed, k),
// so shard 0 of any config is the single-shard run. `policy` drives shard 0.
// unfinished_threads counts the whole simulation.
std::vector<PolicyRunResult> ReplayCopies(const core::CompiledBenchmark& bench,
                                          const core::SimTarget& target,
                                          sim::SchedulePolicy* policy,
                                          const sim::SimConfig& config) {
  sim::Simulation sim(target.seed, target.sim_backend, config);
  sim.SetSchedulePolicy(policy);
  std::vector<std::unique_ptr<storage::StorageStack>> stacks;
  std::vector<std::unique_ptr<vfs::Vfs>> fss;
  std::vector<std::unique_ptr<core::SimReplayEnv>> envs;
  std::vector<PolicyRunResult> out(config.shards);
  for (size_t k = 0; k < config.shards; ++k) {
    stacks.push_back(std::make_unique<storage::StorageStack>(&sim, target.storage));
    fss.push_back(std::make_unique<vfs::Vfs>(&sim, stacks.back().get(),
                                             vfs::MakeFsProfile(target.fs_profile),
                                             vfs::MakePlatformProfile(target.platform)));
    envs.push_back(
        std::make_unique<core::SimReplayEnv>(&sim, fss.back().get(), target.emulation));
    storage::StorageStack* stack = stacks.back().get();
    vfs::Vfs* fs = fss.back().get();
    core::SimReplayEnv* env = envs.back().get();
    PolicyRunResult* run = &out[k];
    sim::SimThreadId init = sim.SpawnOnShard(k, "init", [&bench, &target, env] {
      env->Initialize(bench.snapshot, target.delta_init);
    });
    sim.SpawnOnShard(k, "harness", [&sim, &bench, &target, init, stack, fs, env, run] {
      sim.Join(init);
      if (target.drop_caches_after_init) {
        stack->DropCaches();
      }
      run->report = Replay(bench, *env, target.replay);
      run->digest = SnapshotDigest(fs->CaptureSnapshot());
    });
  }
  sim.Run();
  for (size_t k = 0; k < config.shards; ++k) {
    out[k].end_time = sim.ShardNow(k);
    out[k].switches = sim.ShardSwitchCount(k);
    out[k].unfinished_threads = sim.UnfinishedThreads();
  }
  return out;
}

}  // namespace

PolicyRunResult ReplayCompiledUnderPolicy(const core::CompiledBenchmark& bench,
                                          const core::SimTarget& target,
                                          sim::SchedulePolicy* policy) {
  return std::move(ReplayCopies(bench, target, policy, sim::SimConfig{})[0]);
}

namespace {

// Shared state for one ExploreBundle invocation.
struct Explorer {
  const trace::TraceBundle& bundle;
  const ExploreOptions& opt;
  RefModel model;
  core::CompiledBenchmark bench;
  ExploreResult result;
  PolicyRunResult baseline;
  bool have_failing_spec = false;
  sim::ScheduleSpec failing_spec;  // first spec-describable failing schedule

  Explorer(const trace::TraceBundle& b, const ExploreOptions& o)
      : bundle(b), opt(o), model(BuildRefModel(b)),
        bench(core::Compile(b.trace, b.snapshot, o.compile)) {}

  void Problem(const std::string& text) {
    if (result.problems.size() < 8 &&
        std::find(result.problems.begin(), result.problems.end(), text) ==
            result.problems.end()) {
      result.problems.push_back(text);
    }
  }

  // Runs one schedule, checks it, and records the summary. `spec` is set
  // for spec-describable schedules (usable in a repro), null for prefixes.
  ScheduleRunSummary RunOne(sim::SchedulePolicy* policy, const std::string& label,
                            const sim::ScheduleSpec* spec, bool is_baseline = false) {
    PolicyRunResult run = ReplayCompiledUnderPolicy(bench, opt.target, policy);
    OracleFindings findings = CheckSchedule(model, bundle.trace, run.report);

    ScheduleRunSummary summary;
    summary.schedule = label;
    summary.digest = run.digest;
    summary.end_time = run.end_time;
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
    if (!is_baseline) {
      if (run.digest != baseline.digest) {
        run_violations++;
        Problem(StrFormat(
            "[%s] final fs state diverged from baseline (digest %016llx vs %016llx)",
            label.c_str(), static_cast<unsigned long long>(run.digest),
            static_cast<unsigned long long>(baseline.digest)));
      }
      double hi = static_cast<double>(std::max<TimeNs>(run.end_time, 1));
      double lo = static_cast<double>(std::max<TimeNs>(baseline.end_time, 1));
      double ratio = hi > lo ? hi / lo : lo / hi;
      if (ratio > opt.end_time_slack) {
        run_violations++;
        Problem(StrFormat("[%s] virtual end time %lld vs baseline %lld exceeds %.1fx slack",
                          label.c_str(), static_cast<long long>(run.end_time),
                          static_cast<long long>(baseline.end_time), opt.end_time_slack));
      }
    }
    if (run_violations > 0 && result.violations == 0 && spec != nullptr) {
      have_failing_spec = true;
      failing_spec = *spec;
    }
    result.violations += run_violations;
    result.schedules_run++;
    result.runs.push_back(summary);
    return summary;
  }
};

// True if exploring `b` under (baseline + spec schedule) still violates an
// invariant — the predicate driving repro minimization.
bool FailsWith(const trace::TraceBundle& b, const sim::ScheduleSpec& spec,
               const ExploreOptions& opt) {
  ExploreOptions sub = opt;
  sub.random_schedules = 0;
  sub.pct_schedules = 0;
  sub.exhaustive_preemption_bound = 0;
  sub.differential_backend = false;
  sub.repro_dir.clear();
  sub.repro_obs_trace = false;

  Explorer ex(b, sub);
  if (sub.strict_trace && ex.model.mismatched_returns > 0) {
    return true;
  }
  ex.baseline = ReplayCompiledUnderPolicy(ex.bench, sub.target, nullptr);
  OracleFindings base = CheckSchedule(ex.model, b.trace, ex.baseline.report);
  ex.result.violations += base.hb_violations + base.ret_mismatches + base.unexecuted;
  std::unique_ptr<sim::SchedulePolicy> policy = sim::MakeSchedulePolicy(spec);
  ex.RunOne(policy.get(), spec.ToString(), &spec);
  return ex.result.violations > 0;
}

// Shrinks the trace to the shortest prefix that still fails under `spec`.
// A prefix of a sequentially consistent trace is always itself a valid
// trace, so plain binary search over the cut point suffices.
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
    if (FailsWith(slice(mid), spec, opt)) {
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
  txt << "reproduce: check_artc --corpus=" << bundle_path
      << " --schedule=" << schedule << "\n";

  if (opt.repro_obs_trace && ex.have_failing_spec) {
    // Capture the failing run with the PR 3 tracer for timeline inspection.
    obs::Enable();
    obs::DefaultTracer().Clear();
    trace::TraceBundle minimized = repro;
    core::CompiledBenchmark bench =
        core::Compile(minimized.trace, minimized.snapshot, opt.compile);
    std::unique_ptr<sim::SchedulePolicy> policy = sim::MakeSchedulePolicy(ex.failing_spec);
    ReplayCompiledUnderPolicy(bench, opt.target, policy.get());
    obs::DefaultTracer().WriteChromeJson(opt.repro_dir + "/repro_obs.json");
    obs::Disable();
  }
}

}  // namespace

ExploreResult ExploreBundle(const trace::TraceBundle& bundle, const ExploreOptions& opt) {
  Explorer ex(bundle, opt);
  ex.result.hb_edges = ex.model.edges.size();

  if (opt.strict_trace) {
    if (ex.model.mismatched_returns > 0) {
      ex.result.violations += ex.model.mismatched_returns;
      ex.Problem(StrFormat("trace disagrees with the reference model: %s",
                           ex.model.first_mismatch.c_str()));
    }
    fsmodel::AnnotateOptions aopt;
    aopt.materialize_labels = false;
    fsmodel::AnnotatedTrace ann = fsmodel::AnnotateTrace(bundle.trace, bundle.snapshot, aopt);
    if (ann.warnings > 0) {
      ex.result.violations += ann.warnings;
      ex.Problem(StrFormat("fsmodel annotation reported %llu warnings: %s",
                           static_cast<unsigned long long>(ann.warnings),
                           ann.first_warning.c_str()));
    }
  }

  // Baseline: the default scheduler, exactly as production replay runs it.
  ex.baseline = ReplayCompiledUnderPolicy(ex.bench, opt.target, nullptr);
  sim::ScheduleSpec default_spec;
  {
    OracleFindings findings = CheckSchedule(ex.model, bundle.trace, ex.baseline.report);
    ScheduleRunSummary summary;
    summary.schedule = "default";
    summary.digest = ex.baseline.digest;
    summary.end_time = ex.baseline.end_time;
    summary.hb_violations = findings.hb_violations;
    summary.ret_mismatches = findings.ret_mismatches;
    ex.result.runs.push_back(summary);
    ex.result.schedules_run++;
    uint64_t v = findings.hb_violations + findings.ret_mismatches + findings.unexecuted;
    if (ex.baseline.unfinished_threads > 0) {
      v++;
      ex.Problem("[default] simulated threads never finished (deadlock)");
    }
    if (!findings.ok()) {
      ex.Problem(StrFormat("[default] %s", findings.first_violation.c_str()));
    }
    if (v > 0 && ex.result.violations == 0) {
      ex.have_failing_spec = true;
      ex.failing_spec = default_spec;
    }
    ex.result.violations += v;
  }

  for (uint32_t i = 0; i < opt.random_schedules; ++i) {
    sim::ScheduleSpec spec;
    spec.kind = sim::ScheduleKind::kRandom;
    spec.seed = opt.seed * 7919 + i;
    std::unique_ptr<sim::SchedulePolicy> policy = sim::MakeSchedulePolicy(spec);
    ex.RunOne(policy.get(), spec.ToString(), &spec);
  }
  for (uint32_t i = 0; i < opt.pct_schedules; ++i) {
    sim::ScheduleSpec spec;
    spec.kind = sim::ScheduleKind::kPct;
    spec.seed = opt.seed * 104729 + i;
    spec.pct_change_points = 2 + (i % 8);
    std::unique_ptr<sim::SchedulePolicy> policy = sim::MakeSchedulePolicy(spec);
    ex.RunOne(policy.get(), spec.ToString(), &spec);
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

  if (opt.differential_backend) {
    // Two copies of the trace as a two-shard suite on two kParallel workers.
    // The storage lookahead keeps the window finite, so the run crosses many
    // barriers and fibers resume on worker threads. Shard 0 keeps the root
    // seed, so it must reproduce the single-shard baseline exactly.
    core::SimTarget suite_target = opt.target;
    suite_target.sim_backend = sim::SimBackend::kParallel;
    sim::SimConfig config;
    config.shards = 2;
    config.workers = 2;
    config.cross_shard_latency = storage::MinDeviceLatencyNs(opt.target.storage);
    PolicyRunResult other = ReplayCopies(ex.bench, suite_target, nullptr, config)[0];
    if (other.end_time != ex.baseline.end_time || other.switches != ex.baseline.switches ||
        other.digest != ex.baseline.digest ||
        other.report.wall_time != ex.baseline.report.wall_time) {
      ex.result.violations++;
      ex.Problem(StrFormat(
          "2-shard parallel suite diverged from the baseline on shard 0: end %lld vs "
          "%lld, switches %llu vs %llu",
          static_cast<long long>(other.end_time),
          static_cast<long long>(ex.baseline.end_time),
          static_cast<unsigned long long>(other.switches),
          static_cast<unsigned long long>(ex.baseline.switches)));
    }
  }

  if (ex.result.violations > 0 && !opt.repro_dir.empty()) {
    DumpRepro(ex);
  }
  return std::move(ex.result);
}

}  // namespace artc::check
