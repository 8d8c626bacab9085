#include "src/sweep/sweep.h"

#include <algorithm>
#include <cmath>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>

#include "src/check/explorer.h"
#include "src/fsmodel/resource_model.h"
#include "src/obs/critpath.h"
#include "src/obs/log.h"
#include "src/obs/obs.h"
#include "src/util/check.h"
#include "src/util/strings.h"
#include "src/sweep/workload_table.h"
#include "src/util/thread_pool.h"

namespace artc::sweep {
namespace {

int64_t HostNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AppendStrField(std::string* out, const char* key, const std::string& v,
                    bool* first) {
  if (!*first) {
    *out += ',';
  }
  *first = false;
  *out += '"';
  *out += key;
  *out += "\":\"";
  AppendJsonEscaped(out, v);
  *out += '"';
}

void AppendIntField(std::string* out, const char* key, long long v,
                    bool* first) {
  if (!*first) {
    *out += ',';
  }
  *first = false;
  *out += StrFormat("\"%s\":%lld", key, v);
}

// ,"stall_by_rule":{...} in enum order, nonzero buckets only — order is
// deterministic and rows stay small on stall-free cells.
void AppendRuleMap(std::string* out, const std::array<TimeNs, static_cast<size_t>(
                                                                  core::RuleTag::kCount)>& ns) {
  *out += ",\"stall_by_rule\":{";
  const char* sep = "";
  for (size_t r = 0; r < ns.size(); ++r) {
    if (ns[r] != 0) {
      *out += StrFormat("%s\"%s\":%lld", sep, core::RuleTagName(static_cast<core::RuleTag>(r)),
                        static_cast<long long>(ns[r]));
      sep = ",";
    }
  }
  *out += '}';
}

bool Fail(std::string* error, std::string msg) {
  if (error != nullptr) {
    *error = std::move(msg);
  }
  return false;
}

// The live progress plane. All names are stable (scraped by CI); per-axis
// roll-up counters are interned on demand. Gauges that report a level
// (total, progress, ETA) are Set, so each sweep overwrites what the last
// one left in the process-global registry.
class ProgressMetrics {
 public:
  ProgressMetrics()
      : registry_(obs::DefaultRegistry()),
        completed_(registry_.Counter("sweep.cells_completed")),
        failed_(registry_.Counter("sweep.cells_failed")),
        stall_total_(registry_.Counter("sweep.stall_ns_total")),
        inflight_(registry_.Gauge("sweep.cells_inflight")),
        total_(registry_.Gauge("sweep.cells_total")),
        progress_(registry_.Gauge("sweep.progress_permille")),
        eta_(registry_.Gauge("sweep.eta_ms")) {}

  void StartSweep(size_t cells) {
    registry_.Set(total_, static_cast<int64_t>(cells));
    registry_.Set(progress_, 0);
    registry_.Set(eta_, 0);
  }

  void CellStarted() { registry_.Add(inflight_, 1); }

  void CellFinished(const CellStats& stats, size_t completed, size_t total,
                    int64_t elapsed_ms) {
    registry_.Add(inflight_, -1);
    registry_.Add(completed_, 1);
    if (stats.failed_events > 0) {
      registry_.Add(failed_, 1);
    }
    registry_.Add(stall_total_, stats.stall_ns);
    for (const std::string& axis : GridAxisNames()) {
      const std::string value = CellAxisValue(stats.config, axis);
      registry_.Add(
          registry_.Counter(StrFormat("sweep.stall_ns.%s.%s", axis.c_str(),
                                      value.c_str())),
          stats.stall_ns);
      registry_.Add(
          registry_.Counter(StrFormat("sweep.cells.%s.%s", axis.c_str(),
                                      value.c_str())),
          1);
    }
    if (total > 0) {
      registry_.Set(progress_, static_cast<int64_t>(completed * 1000 / total));
    }
    if (completed > 0) {
      const int64_t eta =
          elapsed_ms * static_cast<int64_t>(total - completed) /
          static_cast<int64_t>(completed);
      registry_.Set(eta_, eta);
    }
  }

 private:
  obs::MetricsRegistry& registry_;
  obs::MetricId completed_, failed_, stall_total_;
  obs::MetricId inflight_, total_, progress_, eta_;
};

// The single process-lifetime instance, leaked so gauge updates stay valid
// during static teardown.
ProgressMetrics& SweepProgressMetrics() {
  static ProgressMetrics* metrics = new ProgressMetrics();
  return *metrics;
}

}  // namespace

uint64_t MixCellDigest(uint64_t digest) {
  digest = (digest ^ (digest >> 30)) * 0xBF58476D1CE4E5B9ULL;
  digest = (digest ^ (digest >> 27)) * 0x94D049BB133111EBULL;
  return digest ^ (digest >> 31);
}

const core::CompiledBenchmark& SweepPlan::BenchFor(
    const CellConfig& cell) const {
  auto it = compiled.find(cell.TraceKey() + "|" + cell.method);
  ARTC_CHECK_MSG(it != compiled.end(), "no compiled artifact for cell '%s'",
                 cell.Echo().c_str());
  return *it->second;
}

TimeNs SweepPlan::OriginalFor(const CellConfig& cell) const {
  auto it = originals.find(cell.OriginalKey());
  return it == originals.end() ? 0 : it->second;
}

namespace {

// Annotates `t` once (annotation is method-independent) and compiles it for
// each method. The last method's compile steals the event vector; earlier
// ones copy it.
std::map<std::string, core::CompiledBenchmarkPtr> CompileMethods(
    trace::Trace&& t, const trace::FsSnapshot& snapshot,
    const std::set<std::string>& methods) {
  const fsmodel::AnnotatedTrace annotated = fsmodel::AnnotateTrace(t, snapshot);
  std::map<std::string, core::CompiledBenchmarkPtr> out;
  size_t remaining = methods.size();
  for (const std::string& method : methods) {
    core::CompileOptions copt;
    copt.method = core::ReplayMethodFromName(method);
    out[method] = std::make_shared<const core::CompiledBenchmark>(
        --remaining == 0
            ? core::Compile(std::move(t), snapshot, annotated, copt)
            : core::Compile(t, snapshot, annotated, copt));
  }
  return out;
}

void LogPlan(const SweepPlan& plan) {
  obs::LogInfo("sweep", "plan built",
               {{"cells", static_cast<int64_t>(plan.cells.size())},
                {"compiled", static_cast<int64_t>(plan.compiled.size())},
                {"originals", static_cast<int64_t>(plan.originals.size())}});
}

// Traces each named workload of out->cells once per (threads, source,
// seed), compiles it for every method its cells use, and measures the
// original program once per (workload, threads, target, seed), on a pool of
// `jobs` host workers.
void PlanCells(SweepPlan* out, size_t jobs) {
  // Trace keys in first-appearance order, each with the methods its cells
  // replay, and original runs in first-appearance order.
  std::vector<const CellConfig*> first_of_trace;
  std::map<std::string, std::set<std::string>> methods;
  std::vector<const CellConfig*> first_of_original;
  std::set<std::string> original_keys;
  for (const CellConfig& cell : out->cells) {
    std::set<std::string>& m = methods[cell.TraceKey()];
    if (m.empty()) {
      first_of_trace.push_back(&cell);
    }
    m.insert(cell.method);
    if (original_keys.insert(cell.OriginalKey()).second) {
      first_of_original.push_back(&cell);
    }
  }
  // Every trace (with its compiles) and every original run is an
  // independent simulation: run them on the pool, each into its own slot,
  // and fill the plan's maps afterwards so nothing depends on finish order.
  const size_t traces = first_of_trace.size();
  std::vector<std::map<std::string, core::CompiledBenchmarkPtr>> compiled(traces);
  std::vector<TimeNs> originals(first_of_original.size());
  util::ThreadPool pool(jobs);
  util::ParallelFor(pool, traces + first_of_original.size(), [&](size_t task) {
    if (task < traces) {
      const CellConfig& cell = *first_of_trace[task];
      workloads::TracedRun run = NamedWorkload::Find(cell.workload)
                                     ->Trace(cell.threads, cell.SourceStack().MakeSourceConfig());
      compiled[task] =
          CompileMethods(std::move(run.trace), run.snapshot, methods.at(cell.TraceKey()));
    } else {
      const CellConfig& cell = *first_of_original[task - traces];
      originals[task - traces] =
          NamedWorkload::Find(cell.workload)->Measure(cell.threads, cell.MakeSourceConfig());
    }
  });
  for (size_t i = 0; i < traces; ++i) {
    const std::string key = first_of_trace[i]->TraceKey();
    for (auto& [method, bench] : compiled[i]) {
      out->compiled[key + "|" + method] = std::move(bench);
    }
  }
  for (size_t i = 0; i < first_of_original.size(); ++i) {
    out->originals[first_of_original[i]->OriginalKey()] = originals[i];
  }
  LogPlan(*out);
}

}  // namespace

bool BuildSweepPlan(std::vector<SweepGrid> grids, SweepPlan* out,
                    std::string* error, size_t jobs) {
  *out = SweepPlan{};
  if (!ExpandGrids(std::move(grids), &out->cells, error)) {
    return false;
  }
  PlanCells(out, jobs);
  return true;
}

bool BuildSweepPlan(trace::Trace&& t, const trace::FsSnapshot& snapshot,
                    SweepGrid grid, const std::string& trace_name,
                    SweepPlan* out, std::string* error) {
  *out = SweepPlan{};
  if (!grid.Expand(&out->cells, error)) {
    return false;
  }
  std::set<std::string> methods;
  for (CellConfig& cell : out->cells) {
    cell.workload = trace_name;
    methods.insert(cell.method);
  }
  const std::map<std::string, core::CompiledBenchmarkPtr> by_method =
      CompileMethods(std::move(t), snapshot, methods);
  for (const CellConfig& cell : out->cells) {
    out->compiled[cell.TraceKey() + "|" + cell.method] = by_method.at(cell.method);
  }
  LogPlan(*out);
  return true;
}

CellStats RunOneCell(const SweepPlan& plan, size_t index, bool emit_trace,
                     std::string* critpath_json, std::string* one_pager) {
  const int64_t t0 = HostNowUs();
  const CellConfig& cell = plan.cells[index];
  const core::CompiledBenchmark& bench = plan.BenchFor(cell);
  CellStats s;
  s.index = index;
  s.id = cell.Id();
  s.config = cell;
  s.orig_ns = plan.OriginalFor(cell);

  const core::SimTarget target = cell.MakeTarget();
  trace::FsSnapshot final_state;
  const core::SimReplayResult result =
      core::ReplayCompiledOnSimTarget(bench, target, &final_state);
  s.digest = check::SnapshotDigest(final_state);

  const obs::CritPathReport cp =
      obs::AnalyzeSimReplay(bench, result, emit_trace);

  s.end_ns = result.report.wall_time;
  s.sim_end_ns = result.sim_end_time;
  s.sim_switches = result.sim_switches;
  s.total_events = result.report.total_events;
  s.failed_events = result.report.failed_events;
  s.exec_ns = cp.exec_ns;
  s.stall_ns = cp.stall_ns;
  s.pacing_ns = cp.pacing_ns;
  s.idle_ns = cp.idle_ns;
  s.storage_ns = cp.storage_ns;
  s.storage_cache_ns = cp.storage_cache_ns;
  s.storage_media_read_ns = cp.storage_media_read_ns;
  s.storage_media_write_ns = cp.storage_media_write_ns;
  s.storage_writeback_ns = cp.storage_writeback_ns;
  for (size_t r = 0; r < s.stall_by_rule.size(); ++r) {
    s.stall_by_rule[r] = cp.stall_by_rule_kind[r][0] + cp.stall_by_rule_kind[r][1];
  }
  const size_t top = std::min<size_t>(cp.stall_by_resource.size(), 8);
  s.top_stall.assign(cp.stall_by_resource.begin(),
                     cp.stall_by_resource.begin() + top);
  s.storage = result.storage;

  if (critpath_json != nullptr) {
    *critpath_json = cp.ToJson();
  }
  if (one_pager != nullptr) {
    *one_pager = cp.OnePager();
  }
  s.host_us = HostNowUs() - t0;
  return s;
}

double CellStats::ErrorPct() const {
  return 100.0 * (static_cast<double>(end_ns) - static_cast<double>(orig_ns)) /
         static_cast<double>(orig_ns);
}

std::string CellStats::ToJsonl(bool include_host_time) const {
  std::string out = "{";
  bool first = true;
  AppendStrField(&out, "cell", id, &first);
  AppendIntField(&out, "idx", static_cast<long long>(index), &first);
  for (const std::string& axis : GridAxisNames()) {
    const std::string value = CellAxisValue(config, axis);
    if (axis == "threads" || axis == "cache_mb" || axis == "seed") {
      out += ",\"" + axis + "\":" + value;
    } else {
      AppendStrField(&out, axis.c_str(), value, &first);
    }
  }
  AppendIntField(&out, "end_ns", end_ns, &first);
  if (orig_ns > 0) {
    AppendIntField(&out, "orig_ns", orig_ns, &first);
    out += StrFormat(",\"error_pct\":%.4f", ErrorPct());
  }
  AppendIntField(&out, "sim_end_ns", sim_end_ns, &first);
  AppendIntField(&out, "switches", static_cast<long long>(sim_switches), &first);
  AppendIntField(&out, "events", static_cast<long long>(total_events), &first);
  AppendIntField(&out, "failed_events", static_cast<long long>(failed_events),
                 &first);
  AppendStrField(&out, "digest",
                 StrFormat("%016llx", static_cast<unsigned long long>(digest)),
                 &first);
  AppendIntField(&out, "exec_ns", exec_ns, &first);
  AppendIntField(&out, "stall_ns", stall_ns, &first);
  AppendIntField(&out, "pacing_ns", pacing_ns, &first);
  AppendIntField(&out, "idle_ns", idle_ns, &first);
  AppendIntField(&out, "storage_ns", storage_ns, &first);
  AppendIntField(&out, "storage_cache_ns", storage_cache_ns, &first);
  AppendIntField(&out, "storage_media_read_ns", storage_media_read_ns, &first);
  AppendIntField(&out, "storage_media_write_ns", storage_media_write_ns,
                 &first);
  AppendIntField(&out, "storage_writeback_ns", storage_writeback_ns, &first);
  for (auto [key, blocks] : {std::pair{"media_read_blocks", storage.media_read_blocks},
                             {"media_write_blocks", storage.media_write_blocks},
                             {"cache_hit_blocks", storage.cache_hit_blocks},
                             {"cache_miss_blocks", storage.cache_miss_blocks},
                             {"cache_evicted_blocks", storage.cache_evicted_blocks},
                             {"cache_writeback_blocks", storage.cache_writeback_blocks}}) {
    AppendIntField(&out, key, static_cast<long long>(blocks), &first);
  }
  // Read plus write blocks per RAID-0 member; empty without RAID.
  out += ",\"raid_member_blocks\":[";
  for (size_t m = 0; m < storage.raid_member_read_blocks.size(); ++m) {
    out += StrFormat("%s%llu", m > 0 ? "," : "",
                     static_cast<unsigned long long>(storage.raid_member_read_blocks[m] +
                                                     storage.raid_member_write_blocks[m]));
  }
  out += ']';
  AppendRuleMap(&out, stall_by_rule);
  out += ",\"top_stall\":[";
  for (size_t i = 0; i < top_stall.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += "[\"";
    AppendJsonEscaped(&out, top_stall[i].first);
    out += StrFormat("\",%lld]", static_cast<long long>(top_stall[i].second));
  }
  out += ']';
  if (include_host_time) {
    AppendIntField(&out, "host_us", host_us, &first);
  }
  out += '}';
  return out;
}

double AxisAgg::EndSensitivity() const {
  TimeNs end_sum = 0;
  size_t cells = 0;
  for (const AxisValueAgg& v : values) {
    end_sum += v.end_ns_sum;
    cells += v.cells;
  }
  if (values.size() < 2 || end_sum <= 0) {
    return 0.0;
  }
  double lo = values[0].MeanEndNs();
  double hi = lo;
  for (const AxisValueAgg& v : values) {
    lo = std::min(lo, v.MeanEndNs());
    hi = std::max(hi, v.MeanEndNs());
  }
  return (hi - lo) / (static_cast<double>(end_sum) / static_cast<double>(cells));
}

bool RunSweep(const SweepPlan& plan, const SweepOptions& options,
              SweepReport* out, std::string* error) {
  const int64_t sweep_t0 = HostNowUs();

  std::ofstream file;
  if (!options.jsonl_path.empty()) {
    file.open(options.jsonl_path);
    if (!file.good()) {
      return Fail(error, StrFormat("cannot write '%s'", options.jsonl_path.c_str()));
    }
  }

  *out = SweepReport{};
  std::vector<std::string> workloads;  // distinct, in cell order
  for (const CellConfig& cell : plan.cells) {
    if (std::find(workloads.begin(), workloads.end(), cell.workload) ==
        workloads.end()) {
      workloads.push_back(cell.workload);
      out->workloads += (workloads.size() > 1 ? ", " : "") + cell.workload;
    }
  }
  out->cells = plan.cells.size();
  out->stats.resize(plan.cells.size());

  ProgressMetrics& metrics = SweepProgressMetrics();
  metrics.StartSweep(plan.cells.size());
  obs::LogInfo("sweep", "sweep started",
               {{"workloads", out->workloads.c_str()},
                {"cells", static_cast<int64_t>(plan.cells.size())}});

  util::ThreadPool pool(options.jobs);
  out->jobs = pool.worker_count();
  const size_t window = options.max_inflight > 0
                            ? options.max_inflight
                            : 4 * pool.worker_count();

  std::mutex mu;
  std::condition_variable slot_cv;
  size_t inflight = 0;     // submitted, not yet finished
  size_t completed = 0;
  size_t next_emit = 0;    // next cell index to write
  std::map<size_t, std::string> parked;  // finished rows awaiting their turn

  auto emit_ready = [&]() {
    // Called under mu: stream every parked row that is next in index order.
    for (auto it = parked.begin();
         it != parked.end() && it->first == next_emit;
         it = parked.erase(it), ++next_emit) {
      if (file.is_open()) {
        file << it->second << '\n';
      }
      if (options.jsonl_stream != nullptr) {
        *options.jsonl_stream << it->second << '\n';
      }
    }
    if (file.is_open()) {
      file.flush();  // rows are scrape-able mid-run (tail -f the sweep)
    }
  };

  for (size_t i = 0; i < plan.cells.size(); ++i) {
    {
      // Backpressure: cap submitted-but-unfinished cells. Bounds both the
      // pool queue and the reorder buffer (a parked row has finished, so it
      // no longer counts against the window).
      std::unique_lock<std::mutex> lk(mu);
      slot_cv.wait(lk, [&] { return inflight < window; });
      ++inflight;
    }
    metrics.CellStarted();
    pool.Submit([&, i] {
      CellStats stats = RunOneCell(plan, i);
      const std::string row = stats.ToJsonl(options.include_host_time);
      {
        std::lock_guard<std::mutex> lk(mu);
        --inflight;
        ++completed;
        parked.emplace(i, row);
        emit_ready();

        // Order-independent aggregates (wrapping integer sums), so
        // completion order cannot leak into the report.
        if (stats.failed_events > 0) {
          ++out->failed_cells;
        }
        out->end_ns_sum += stats.end_ns;
        out->stall_ns_sum += stats.stall_ns;
        out->exec_ns_sum += stats.exec_ns;
        out->digest_sum += MixCellDigest(stats.digest);
        for (size_t r = 0; r < stats.stall_by_rule.size(); ++r) {
          out->stall_by_rule_sum[r] += stats.stall_by_rule[r];
        }
        out->stats[i] = std::move(stats);
        // Under mu, so the progress last Set is the highest count.
        metrics.CellFinished(out->stats[i], completed, plan.cells.size(),
                             (HostNowUs() - sweep_t0) / 1000);
      }
      slot_cv.notify_all();
    });
  }
  pool.Wait();
  {
    std::lock_guard<std::mutex> lk(mu);
    emit_ready();
    ARTC_CHECK(parked.empty() && next_emit == plan.cells.size());
  }
  out->host_ms = (HostNowUs() - sweep_t0) / 1000;

  // Axis aggregates per workload: only axes that actually vary, values in
  // first-appearance (= grid declaration) order.
  for (const std::string& workload : workloads) {
    for (const std::string& axis : GridAxisNames()) {
      if (axis == "workload") {
        continue;
      }
      AxisAgg agg;
      agg.workload = workload;
      agg.axis = axis;
      std::map<std::string, size_t> slot;
      for (const CellStats& s : out->stats) {
        if (s.config.workload != workload) {
          continue;
        }
        const std::string value = CellAxisValue(s.config, axis);
        auto [it, inserted] = slot.emplace(value, agg.values.size());
        if (inserted) {
          agg.values.emplace_back().value = value;
        }
        AxisValueAgg& v = agg.values[it->second];
        ++v.cells;
        v.end_ns_sum += s.end_ns;
        v.stall_ns_sum += s.stall_ns;
        if (s.orig_ns > 0) {
          v.abs_error_pct.Add(std::abs(s.ErrorPct()));
        }
      }
      if (agg.values.size() > 1) {
        out->axes.push_back(std::move(agg));
      }
    }
  }

  for (size_t i = 0; i < out->stats.size(); ++i) {
    if (out->stats[i].end_ns < out->stats[out->best_cell].end_ns) {
      out->best_cell = i;
    }
    if (out->stats[i].end_ns > out->stats[out->worst_cell].end_ns) {
      out->worst_cell = i;
    }
  }

  obs::LogInfo("sweep", "sweep finished",
               {{"cells", static_cast<int64_t>(out->cells)},
                {"failed_cells", static_cast<int64_t>(out->failed_cells)},
                {"host_ms", out->host_ms}});
  return true;
}

namespace {

// Mean, p50, p90 and worst-decile mean of |error_pct| (Fig. 7(b)).
std::array<double, 4> ErrorSummary(const SampleStats& s) {
  return {s.Mean(), s.Percentile(0.5), s.Percentile(0.9), s.TailMean(0.9)};
}

// One source -> target / method / original / error line, plus the replay's
// storage block counts.
std::string CellLine(const CellStats& s) {
  const CellConfig& c = s.config;
  std::string out = StrFormat("  %s", c.workload.c_str());
  if (c.threads != 0) {
    out += StrFormat("(%u)", c.threads);
  }
  out += StrFormat("  %s -> %s  %-13s end %8.3f s", c.source.c_str(), c.StackName().c_str(),
                   c.method.c_str(), ToSeconds(s.end_ns));
  if (s.orig_ns > 0) {
    out += StrFormat("  orig %8.3f s  error %+7.1f%%", ToSeconds(s.orig_ns), s.ErrorPct());
  }
  const storage::StorageCounters& sc = s.storage;
  const uint64_t looked_up = sc.cache_hit_blocks + sc.cache_miss_blocks;
  out += StrFormat(
      "  | media r/w %llu/%llu  cache hit/miss %llu/%llu (%.3f)  evicted %llu  "
      "writeback %llu",
      static_cast<unsigned long long>(sc.media_read_blocks),
      static_cast<unsigned long long>(sc.media_write_blocks),
      static_cast<unsigned long long>(sc.cache_hit_blocks),
      static_cast<unsigned long long>(sc.cache_miss_blocks),
      looked_up > 0 ? static_cast<double>(sc.cache_hit_blocks) /
                          static_cast<double>(looked_up)
                    : 0.0,
      static_cast<unsigned long long>(sc.cache_evicted_blocks),
      static_cast<unsigned long long>(sc.cache_writeback_blocks));
  // Stripe balance: the busiest RAID member's share of member blocks (0.5 is
  // a perfectly balanced 2-disk array; 0 without RAID).
  uint64_t raid_total = 0;
  uint64_t raid_max = 0;
  for (size_t m = 0; m < sc.raid_member_read_blocks.size(); ++m) {
    const uint64_t blocks = sc.raid_member_read_blocks[m] + sc.raid_member_write_blocks[m];
    raid_total += blocks;
    raid_max = std::max(raid_max, blocks);
  }
  out += StrFormat("  stripe %.3f of %zu",
                   raid_total > 0 ? static_cast<double>(raid_max) / raid_total : 0.0,
                   sc.raid_member_read_blocks.size());
  return out + '\n';
}

// "axis" or "[workload] axis" when the report spans several workloads.
std::string AxisLabel(const AxisAgg& agg, bool several_workloads) {
  return several_workloads ? "[" + agg.workload + "] " + agg.axis : agg.axis;
}

}  // namespace

std::string SweepReport::ToJson() const {
  std::string out = "{";
  bool first = true;
  AppendStrField(&out, "workloads", workloads, &first);
  AppendIntField(&out, "cells", static_cast<long long>(cells), &first);
  AppendIntField(&out, "failed_cells", static_cast<long long>(failed_cells),
                 &first);
  AppendIntField(&out, "jobs", static_cast<long long>(jobs), &first);
  AppendIntField(&out, "host_ms", host_ms, &first);
  AppendIntField(&out, "end_ns_sum", end_ns_sum, &first);
  AppendIntField(&out, "stall_ns_sum", stall_ns_sum, &first);
  AppendIntField(&out, "exec_ns_sum", exec_ns_sum, &first);
  AppendStrField(
      &out, "digest_sum",
      StrFormat("%016llx", static_cast<unsigned long long>(digest_sum)),
      &first);
  AppendRuleMap(&out, stall_by_rule_sum);
  out += ",\"axes\":[";
  for (size_t a = 0; a < axes.size(); ++a) {
    const AxisAgg& agg = axes[a];
    if (a > 0) {
      out += ',';
    }
    out += "{\"workload\":\"";
    AppendJsonEscaped(&out, agg.workload);
    out += StrFormat("\",\"axis\":\"%s\",\"end_sensitivity\":%.6f,\"values\":[",
                     agg.axis.c_str(), agg.EndSensitivity());
    for (size_t v = 0; v < agg.values.size(); ++v) {
      const AxisValueAgg& val = agg.values[v];
      if (v > 0) {
        out += ',';
      }
      out += "{\"value\":\"";
      AppendJsonEscaped(&out, val.value);
      out += StrFormat("\",\"cells\":%zu,\"mean_end_ns\":%.0f,"
                       "\"mean_stall_ns\":%.0f",
                       val.cells, val.MeanEndNs(), val.MeanStallNs());
      if (val.abs_error_pct.Count() > 0) {
        const std::array<double, 4> e = ErrorSummary(val.abs_error_pct);
        out += StrFormat(",\"abs_error_pct\":{\"mean\":%.4f,\"p50\":%.4f,"
                         "\"p90\":%.4f,\"worst_decile_mean\":%.4f}",
                         e[0], e[1], e[2], e[3]);
      }
      out += '}';
    }
    out += "]}";
  }
  out += ']';
  if (!stats.empty()) {
    out += StrFormat(",\"best\":{\"cell\":\"%s\",\"end_ns\":%lld}",
                     stats[best_cell].id.c_str(),
                     static_cast<long long>(stats[best_cell].end_ns));
    out += StrFormat(",\"worst\":{\"cell\":\"%s\",\"end_ns\":%lld}",
                     stats[worst_cell].id.c_str(),
                     static_cast<long long>(stats[worst_cell].end_ns));
  }
  out += '}';
  return out;
}

std::string SweepReport::OnePager() const {
  std::string out;
  out += StrFormat("==== sweep: %s (%zu cells, %zu jobs, %lld ms host) ====\n",
                   workloads.c_str(), cells, jobs,
                   static_cast<long long>(host_ms));
  if (stats.empty()) {
    out += "(no cells)\n";
    return out;
  }
  const double grand_mean = static_cast<double>(end_ns_sum) / cells;
  out += StrFormat("virtual end: mean %.2f ms", grand_mean / kNsPerMs);
  out += StrFormat("   stall share: %.1f%%\n",
                   end_ns_sum > 0
                       ? 100.0 * static_cast<double>(stall_ns_sum) /
                             static_cast<double>(end_ns_sum)
                       : 0.0);
  if (failed_cells > 0) {
    out += StrFormat("cells with failed events: %zu\n", failed_cells);
  }
  const CellStats& best = stats[best_cell];
  const CellStats& worst = stats[worst_cell];
  out += StrFormat("best : %s  %.2f ms  %s\n", best.id.c_str(),
                   static_cast<double>(best.end_ns) / kNsPerMs,
                   best.config.Echo().c_str());
  out += StrFormat("worst: %s  %.2f ms  %s\n", worst.id.c_str(),
                   static_cast<double>(worst.end_ns) / kNsPerMs,
                   worst.config.Echo().c_str());

  out += "cells (workload  source -> target  method, replay end, original on "
         "the target, replay error | replay storage blocks):\n";
  for (const CellStats& s : stats) {
    out += CellLine(s);
  }

  const bool several = workloads.find(", ") != std::string::npos;
  if (!axes.empty()) {
    out += "sensitivity (mean-end spread / mean end), per varying axis:\n";
    for (const AxisAgg& agg : axes) {
      out += StrFormat("  %-9s %5.1f%%  ", AxisLabel(agg, several).c_str(),
                       100.0 * agg.EndSensitivity());
      for (size_t v = 0; v < agg.values.size(); ++v) {
        if (v > 0) {
          out += " | ";
        }
        out += StrFormat("%s %.2fms", agg.values[v].value.c_str(),
                         agg.values[v].MeanEndNs() / kNsPerMs);
      }
      out += '\n';
    }
    bool header = false;
    for (const AxisAgg& agg : axes) {
      for (const AxisValueAgg& v : agg.values) {
        if (v.abs_error_pct.Count() == 0) {
          continue;
        }
        if (!header) {
          out += "|replay error| per axis value:\n";
          header = true;
        }
        const std::array<double, 4> e = ErrorSummary(v.abs_error_pct);
        out += StrFormat("  %-9s %-12s mean %6.1f%%  p50 %6.1f%%  p90 %6.1f%%  "
                         "worst-10%% mean %6.1f%%  (%zu cells)\n",
                         AxisLabel(agg, several).c_str(), v.value.c_str(), e[0], e[1],
                         e[2], e[3], v.abs_error_pct.Count());
      }
    }
    out += "top stall movers per axis (max vs min mean path stall):\n";
    for (const AxisAgg& agg : axes) {
      const AxisValueAgg* lo = &agg.values[0];
      const AxisValueAgg* hi = &agg.values[0];
      for (const AxisValueAgg& v : agg.values) {
        if (v.MeanStallNs() < lo->MeanStallNs()) lo = &v;
        if (v.MeanStallNs() > hi->MeanStallNs()) hi = &v;
      }
      out += StrFormat("  %-9s %s +%.2fms stall vs %s\n",
                       AxisLabel(agg, several).c_str(), hi->value.c_str(),
                       (hi->MeanStallNs() - lo->MeanStallNs()) / kNsPerMs,
                       lo->value.c_str());
    }
  }
  out += "path stall by rule (all cells):\n";
  for (size_t r = 0; r < stall_by_rule_sum.size(); ++r) {
    if (stall_by_rule_sum[r] == 0) {
      continue;
    }
    out += StrFormat("  %-11s %10.2f ms\n",
                     core::RuleTagName(static_cast<core::RuleTag>(r)),
                     static_cast<double>(stall_by_rule_sum[r]) / kNsPerMs);
  }
  return out;
}

namespace {

// The index of the one cell whose id starts with `id_prefix`; false with
// *error set when the prefix is empty, matches no cell or several.
bool FindCell(const std::vector<CellConfig>& cells, const std::string& id_prefix,
              size_t* index, std::string* error) {
  if (id_prefix.empty()) {
    return Fail(error, "empty cell id");
  }
  size_t matches = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].Id().compare(0, id_prefix.size(), id_prefix) == 0) {
      ++matches;
      *index = i;
    }
  }
  if (matches != 1) {
    return Fail(error, matches == 0
                           ? StrFormat("no cell with id prefix '%s' in this grid",
                                       id_prefix.c_str())
                           : StrFormat("cell id prefix '%s' is ambiguous (%zu matches)",
                                       id_prefix.c_str(), matches));
  }
  return true;
}

}  // namespace

bool DrillGrids(std::vector<SweepGrid> grids, const std::string& id_prefix,
                DrillResult* out, std::string* error, size_t jobs) {
  std::vector<CellConfig> cells;
  size_t index = 0;
  if (!ExpandGrids(std::move(grids), &cells, error) ||
      !FindCell(cells, id_prefix, &index, error)) {
    return false;
  }
  SweepPlan plan;
  plan.cells.push_back(std::move(cells[index]));
  PlanCells(&plan, jobs);
  const CellConfig& cell = plan.cells[0];
  obs::LogInfo("sweep", "drilling cell",
               {{"cell", cell.Id().c_str()}, {"config", cell.Echo().c_str()}});
  std::string pager;
  out->stats = RunOneCell(plan, 0, /*emit_trace=*/true, &out->critpath_json, &pager);
  out->stats.index = index;
  out->one_pager =
      StrFormat("==== cell %s ====\n%s\n", out->stats.id.c_str(), cell.Echo().c_str()) +
      pager;
  return true;
}

}  // namespace artc::sweep
