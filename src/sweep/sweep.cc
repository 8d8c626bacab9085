#include "src/sweep/sweep.h"

#include <algorithm>
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
#include "src/util/thread_pool.h"

namespace artc::sweep {
namespace {

int64_t HostNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          *out += c;
        }
    }
  }
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

// The live progress plane. All names are stable (scraped by CI); per-axis
// roll-up counters are interned on demand. The "set"-style gauges
// (progress, ETA) are emulated on top of the registry's add-only cells by
// tracking the last published value in a shadow. The shadows are plain
// ints, so callers must serialize access: there is ONE process-lifetime
// instance (the registry cells it fronts are process-global too), sweeps
// are serialized by SweepMu, and within a sweep CellFinished is only ever
// called under RunSweep's per-sweep mutex. StartSweep runs before any
// worker is submitted, so it needs no further locking.
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
    // Shadows persist across sweeps (one instance per process), so these
    // deltas rewind whatever the previous sweep left in the global gauges.
    SetGauge(total_, &total_shadow_, static_cast<int64_t>(cells));
    SetGauge(progress_, &progress_shadow_, 0);
    SetGauge(eta_, &eta_shadow_, 0);
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
      SetGauge(progress_, &progress_shadow_,
               static_cast<int64_t>(completed * 1000 / total));
    }
    if (completed > 0) {
      const int64_t eta =
          elapsed_ms * static_cast<int64_t>(total - completed) /
          static_cast<int64_t>(completed);
      SetGauge(eta_, &eta_shadow_, eta);
    }
  }

 private:
  void SetGauge(obs::MetricId id, int64_t* shadow, int64_t value) {
    registry_.Add(id, value - *shadow);
    *shadow = value;
  }

  obs::MetricsRegistry& registry_;
  obs::MetricId completed_, failed_, stall_total_;
  obs::MetricId inflight_, total_, progress_, eta_;
  int64_t total_shadow_ = 0;
  int64_t progress_shadow_ = 0;
  int64_t eta_shadow_ = 0;
};

// One sweep at a time per process: the registry gauges above have no
// set-operation, so concurrent sweeps would corrupt each other's shadows.
std::mutex& SweepMu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

// The single process-lifetime instance (see the class comment). Leaked like
// SweepMu so gauge updates stay valid during static teardown.
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
  auto it = compiled.find(cell.method);
  ARTC_CHECK_MSG(it != compiled.end(), "no compiled artifact for method '%s'",
                 cell.method.c_str());
  return *it->second;
}

bool BuildSweepPlan(trace::Trace&& t, const trace::FsSnapshot& snapshot,
                    SweepGrid grid, const std::string& trace_name,
                    SweepPlan* out, std::string* error) {
  out->trace_name = trace_name;
  if (!grid.Expand(trace_name, &out->cells, error)) {
    return false;
  }
  // Annotation is method-independent: one logical pass over the trace feeds
  // every per-method compile.
  const fsmodel::AnnotatedTrace annotated = fsmodel::AnnotateTrace(t, snapshot);
  std::set<std::string> methods;
  for (const CellConfig& cell : out->cells) {
    methods.insert(cell.method);
  }
  // The last method's compile steals the event vector; earlier ones (only
  // present in multi-method grids) copy it.
  size_t remaining = methods.size();
  for (const std::string& method : methods) {
    core::CompileOptions copt;
    copt.method = core::ReplayMethodFromName(method);
    out->compiled[method] = std::make_shared<const core::CompiledBenchmark>(
        --remaining == 0
            ? core::Compile(std::move(t), snapshot, annotated, copt)
            : core::Compile(t, snapshot, annotated, copt));
  }
  obs::LogInfo("sweep", "plan built",
               {{"trace", trace_name.c_str()},
                {"cells", static_cast<int64_t>(out->cells.size())},
                {"methods", static_cast<int64_t>(methods.size())}});
  return true;
}

CellStats RunOneCell(const core::CompiledBenchmark& bench,
                     const CellConfig& cell, size_t index, bool emit_trace,
                     std::string* critpath_json, std::string* one_pager) {
  const int64_t t0 = HostNowUs();
  CellStats s;
  s.index = index;
  s.id = cell.Id();
  s.config = cell;

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

  if (critpath_json != nullptr) {
    *critpath_json = cp.ToJson();
  }
  if (one_pager != nullptr) {
    *one_pager = cp.OnePager();
  }
  s.host_us = HostNowUs() - t0;
  return s;
}

std::string CellStats::ToJsonl(bool include_host_time) const {
  std::string out = "{";
  bool first = true;
  AppendStrField(&out, "cell", id, &first);
  AppendIntField(&out, "idx", static_cast<long long>(index), &first);
  AppendStrField(&out, "trace", config.trace_name, &first);
  AppendStrField(&out, "method", config.method, &first);
  AppendStrField(&out, "fs", config.fs, &first);
  AppendStrField(&out, "storage", config.storage, &first);
  AppendStrField(&out, "iosched", config.iosched, &first);
  AppendIntField(&out, "cache_mb", config.cache_mb, &first);
  AppendStrField(&out, "schedule", config.schedule, &first);
  AppendIntField(&out, "seed", static_cast<long long>(config.seed), &first);
  AppendStrField(&out, "backend", config.backend, &first);
  AppendStrField(&out, "pacing", config.pacing, &first);
  AppendIntField(&out, "end_ns", end_ns, &first);
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
  // Rule map in enum order, nonzero buckets only — order is deterministic
  // and rows stay small on stall-free cells.
  out += ",\"stall_by_rule\":{";
  bool rule_first = true;
  for (size_t r = 0; r < stall_by_rule.size(); ++r) {
    if (stall_by_rule[r] == 0) {
      continue;
    }
    if (!rule_first) {
      out += ',';
    }
    rule_first = false;
    out += StrFormat("\"%s\":%lld",
                     core::RuleTagName(static_cast<core::RuleTag>(r)),
                     static_cast<long long>(stall_by_rule[r]));
  }
  out += '}';
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

double AxisAgg::EndSensitivity(double grand_mean_end) const {
  if (values.size() < 2 || grand_mean_end <= 0.0) {
    return 0.0;
  }
  double lo = values[0].MeanEndNs();
  double hi = lo;
  for (const AxisValueAgg& v : values) {
    lo = std::min(lo, v.MeanEndNs());
    hi = std::max(hi, v.MeanEndNs());
  }
  return (hi - lo) / grand_mean_end;
}

bool RunSweep(const SweepPlan& plan, const SweepOptions& options,
              SweepReport* out, std::string* error) {
  std::lock_guard<std::mutex> sweep_lock(SweepMu());
  const int64_t sweep_t0 = HostNowUs();

  std::ofstream file;
  if (!options.jsonl_path.empty()) {
    file.open(options.jsonl_path);
    if (!file.good()) {
      if (error != nullptr) {
        *error = StrFormat("cannot write '%s'", options.jsonl_path.c_str());
      }
      return false;
    }
  }

  *out = SweepReport{};
  out->trace_name = plan.trace_name;
  out->cells = plan.cells.size();
  out->stats.resize(plan.cells.size());

  ProgressMetrics& metrics = SweepProgressMetrics();
  metrics.StartSweep(plan.cells.size());
  obs::LogInfo("sweep", "sweep started",
               {{"trace", plan.trace_name.c_str()},
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
    const CellConfig& cell = plan.cells[i];
    const core::CompiledBenchmark& bench = plan.BenchFor(cell);
    pool.Submit([&, i] {
      CellStats stats = RunOneCell(bench, plan.cells[i], i);
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
        // Under mu: CellFinished's gauge shadows are plain read-modify-write
        // state, and this mutex is what serializes workers within the sweep.
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

  // Axis aggregates: only axes that actually vary, values in
  // first-appearance (= grid declaration) order.
  for (const std::string& axis : GridAxisNames()) {
    AxisAgg agg;
    agg.axis = axis;
    std::map<std::string, size_t> slot;
    for (const CellStats& s : out->stats) {
      const std::string value = CellAxisValue(s.config, axis);
      auto [it, inserted] = slot.emplace(value, agg.values.size());
      if (inserted) {
        AxisValueAgg v;
        v.value = value;
        agg.values.push_back(std::move(v));
      }
      AxisValueAgg& v = agg.values[it->second];
      ++v.cells;
      v.end_ns_sum += s.end_ns;
      v.stall_ns_sum += s.stall_ns;
    }
    if (agg.values.size() > 1) {
      out->axes.push_back(std::move(agg));
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

std::string SweepReport::ToJson() const {
  std::string out = "{";
  bool first = true;
  AppendStrField(&out, "trace", trace_name, &first);
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
  out += ",\"stall_by_rule\":{";
  bool rule_first = true;
  for (size_t r = 0; r < stall_by_rule_sum.size(); ++r) {
    if (stall_by_rule_sum[r] == 0) {
      continue;
    }
    if (!rule_first) {
      out += ',';
    }
    rule_first = false;
    out += StrFormat("\"%s\":%lld",
                     core::RuleTagName(static_cast<core::RuleTag>(r)),
                     static_cast<long long>(stall_by_rule_sum[r]));
  }
  out += '}';
  const double grand_mean =
      cells == 0 ? 0.0 : static_cast<double>(end_ns_sum) / cells;
  out += ",\"axes\":[";
  for (size_t a = 0; a < axes.size(); ++a) {
    const AxisAgg& agg = axes[a];
    if (a > 0) {
      out += ',';
    }
    out += StrFormat("{\"axis\":\"%s\",\"end_sensitivity\":%.6f,\"values\":[",
                     agg.axis.c_str(), agg.EndSensitivity(grand_mean));
    for (size_t v = 0; v < agg.values.size(); ++v) {
      const AxisValueAgg& val = agg.values[v];
      if (v > 0) {
        out += ',';
      }
      out += "{\"value\":\"";
      AppendJsonEscaped(&out, val.value);
      out += StrFormat("\",\"cells\":%zu,\"mean_end_ns\":%.0f,"
                       "\"mean_stall_ns\":%.0f}",
                       val.cells, val.MeanEndNs(), val.MeanStallNs());
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
                   trace_name.c_str(), cells, jobs,
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

  if (!axes.empty()) {
    out += "sensitivity (mean-end spread / grand mean), per varying axis:\n";
    for (const AxisAgg& agg : axes) {
      out += StrFormat("  %-9s %5.1f%%  ", agg.axis.c_str(),
                       100.0 * agg.EndSensitivity(grand_mean));
      for (size_t v = 0; v < agg.values.size(); ++v) {
        if (v > 0) {
          out += " | ";
        }
        out += StrFormat("%s %.2fms", agg.values[v].value.c_str(),
                         agg.values[v].MeanEndNs() / kNsPerMs);
      }
      out += '\n';
    }
    out += "top stall movers per axis (max vs min mean path stall):\n";
    for (const AxisAgg& agg : axes) {
      const AxisValueAgg* lo = &agg.values[0];
      const AxisValueAgg* hi = &agg.values[0];
      for (const AxisValueAgg& v : agg.values) {
        if (v.MeanStallNs() < lo->MeanStallNs()) lo = &v;
        if (v.MeanStallNs() > hi->MeanStallNs()) hi = &v;
      }
      out += StrFormat("  %-9s %s +%.2fms stall vs %s\n", agg.axis.c_str(),
                       hi->value.c_str(),
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

bool DrillCell(const SweepPlan& plan, const std::string& id_prefix,
               DrillResult* out, std::string* error) {
  if (id_prefix.empty()) {
    if (error != nullptr) {
      *error = "empty cell id";
    }
    return false;
  }
  const CellConfig* match = nullptr;
  size_t match_index = 0;
  size_t matches = 0;
  for (size_t i = 0; i < plan.cells.size(); ++i) {
    const std::string id = plan.cells[i].Id();
    if (id.compare(0, id_prefix.size(), id_prefix) == 0) {
      ++matches;
      match = &plan.cells[i];
      match_index = i;
    }
  }
  if (matches == 0) {
    if (error != nullptr) {
      *error = StrFormat("no cell with id prefix '%s' in this grid",
                         id_prefix.c_str());
    }
    return false;
  }
  if (matches > 1) {
    if (error != nullptr) {
      *error = StrFormat("cell id prefix '%s' is ambiguous (%zu matches)",
                         id_prefix.c_str(), matches);
    }
    return false;
  }
  obs::LogInfo("sweep", "drilling cell",
               {{"cell", match->Id().c_str()},
                {"config", match->Echo().c_str()}});
  std::string pager;
  out->stats = RunOneCell(plan.BenchFor(*match), *match, match_index,
                          /*emit_trace=*/true, &out->critpath_json, &pager);
  out->one_pager =
      StrFormat("==== cell %s ====\n%s\n", out->stats.id.c_str(),
                match->Echo().c_str()) +
      pager;
  return true;
}

}  // namespace artc::sweep
