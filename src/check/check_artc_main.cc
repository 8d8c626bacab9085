// check_artc: schedule-space fuzzing harness for the ROOT ordering rules.
//
// Three modes:
//  * Fuzz (default): generate --iters random traces (src/check/generator),
//    compile each, and explore it under many legal schedules
//    (src/check/explorer), asserting the invariant oracle on every run.
//  * Corpus (--corpus=FILE|DIR): explore pre-recorded trace bundles (or
//    ARTCT files) instead of generating fresh ones; used by the regression
//    suite. A directory contributes its *.trace files.
//  * Repro (--corpus=FILE --schedule=SPEC): replay one named schedule, below.
//
// On a violation the explorer dumps a minimized repro under --out; re-run it
// with the command on repro.txt's "reproduce:" line,
// check_artc --corpus=<repro.trace> --schedule=<spec> --storage=<config>,
// which applies the same checks to the baseline and that one schedule; with
// --obs-repro=1 it also writes that schedule's Chrome trace to
// <out>/repro_obs.json. The flags that choose explored schedules (--seed,
// --schedules, --pct, --preemptions, --budget) exit 2 in this mode.
// Exits 1 if any invariant was violated or a corpus file cannot be read.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/check/explorer.h"
#include "src/check/generator.h"
#include "src/obs/log.h"
#include "src/trace/stream_reader.h"
#include "src/trace/trace_io.h"
#include "src/util/flags.h"
#include "src/util/strings.h"

namespace artc::check {
namespace {

struct Totals {
  uint64_t traces = 0;
  uint64_t schedules = 0;
  uint64_t violations = 0;
  uint64_t hb_edges = 0;
};

void Tally(const ExploreResult& r, Totals* totals) {
  totals->traces++;
  totals->schedules += r.schedules_run;
  totals->violations += r.violations;
  totals->hb_edges += r.hb_edges;
}

void ReportExploration(const std::string& name, const ExploreResult& r, Totals* totals) {
  Tally(r, totals);
  if (r.ok()) {
    return;
  }
  std::printf("FAIL %s: %llu violations over %llu schedules\n", name.c_str(),
              static_cast<unsigned long long>(r.violations),
              static_cast<unsigned long long>(r.schedules_run));
  for (const std::string& p : r.problems) {
    std::printf("  %s\n", p.c_str());
  }
  if (!r.repro_path.empty()) {
    std::printf("  repro: %s\n", r.repro_path.c_str());
  }
}

// Repro mode's report: one line whatever the verdict, then the problems.
void ReportRepro(const std::string& name, const std::string& schedule,
                 const ExploreResult& r, Totals* totals) {
  Tally(r, totals);
  std::printf("%s %s under %s: %llu violations, digest %016llx (baseline %016llx)\n",
              r.ok() ? "OK  " : "FAIL", name.c_str(), schedule.c_str(),
              static_cast<unsigned long long>(r.violations),
              static_cast<unsigned long long>(r.runs.back().digest),
              static_cast<unsigned long long>(r.runs.front().digest));
  for (const std::string& p : r.problems) {
    std::printf("  %s\n", p.c_str());
  }
}

int Main(int argc, char** argv) {
  uint64_t iters = 20;
  uint64_t seed = 1;
  uint64_t sync = 0;
  uint64_t obs_repro = 0;
  std::string corpus;
  std::string out_dir = "check_repros";
  std::string schedule;
  std::string emit;
  std::string storage_name = "ssd";
  GenOptions gen;
  ExploreOptions opt;
  util::FlagSet flags;
  flags.Unsigned("iters", &iters);
  flags.Unsigned("seed", &seed);
  flags.Unsigned("threads", &gen.threads);
  flags.Unsigned("ops", &gen.ops_per_thread);
  flags.Unsigned("sync", &sync);
  flags.Unsigned("sync-mutexes", &gen.sync_mutexes);
  flags.Unsigned("barrier-phases", &gen.barrier_phases);
  flags.Unsigned("cond-items", &gen.cond_items);
  flags.String("corpus", &corpus);
  flags.String("out", &out_dir);
  flags.String("schedule", &schedule);
  flags.String("emit", &emit);
  flags.Unsigned("schedules", &opt.random_schedules);
  flags.Unsigned("pct", &opt.pct_schedules);
  flags.Unsigned("preemptions", &opt.exhaustive_preemption_bound);
  flags.Unsigned("budget", &opt.exhaustive_budget);
  flags.Unsigned("obs-repro", &obs_repro);
  flags.Choice("storage", &storage_name, storage::kNamedConfigNames);
  bench::HarnessObsSession obs_session(argc, argv, &flags);
  if (gen.threads == 0) {
    flags.Fail("--threads must be at least 1");
  }

  gen.sync = sync != 0;
  opt.repro_dir = out_dir;
  opt.repro_obs_trace = obs_repro != 0;
  opt.target.storage = storage::MakeNamedConfig(storage_name);
  sim::ScheduleSpec repro_spec;
  if (!schedule.empty()) {
    if (!sim::ParseScheduleSpec(schedule, &repro_spec)) {
      flags.Fail("unparsable --schedule '" + schedule + "'");
    }
    if (corpus.empty()) {
      flags.Fail("--schedule replays a --corpus bundle; generated traces are explored");
    }
    // Repro mode runs the baseline and the named schedule only.
    for (const char* name : {"seed", "schedules", "pct", "preemptions", "budget"}) {
      if (flags.Given(name)) {
        flags.Fail(StrFormat("--%s chooses explored schedules; --schedule runs only the named one",
                             name));
      }
    }
    if (flags.Given("out") && obs_repro == 0) {
      flags.Fail("with --schedule, --out only names where --obs-repro=1 writes its trace");
    }
  }
  Totals totals;
  if (!corpus.empty()) {
    std::vector<std::string> paths;
    if (std::filesystem::is_directory(corpus)) {
      for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
        if (entry.path().extension() == ".trace") {
          paths.push_back(entry.path().string());
        }
      }
      std::sort(paths.begin(), paths.end());
    } else {
      paths.push_back(corpus);
    }
    if (!schedule.empty() && opt.repro_obs_trace && paths.size() > 1) {
      flags.Fail(StrFormat("with --schedule, --obs-repro=1 traces one bundle; "
                           "--corpus names %zu bundles",
                           paths.size()));
    }
    for (const std::string& path : paths) {
      trace::ParallelReadResult read;
      trace::ParseDiag diag;
      if (!trace::ParallelReadTraceFile(path, {}, &read, &diag)) {
        obs::LogError("check_artc", "cannot read corpus trace",
                      {{"detail", diag.Format()}});
        return 1;
      }
      const trace::TraceBundle& bundle = read.bundle;
      if (!schedule.empty()) {
        // Repro mode: the default baseline plus exactly the named schedule,
        // judged as the exploration that printed the command judged it.
        ReportRepro(path, schedule, ExploreUnderSpec(bundle, repro_spec, opt), &totals);
        if (opt.repro_obs_trace) {
          const std::string trace_path = out_dir + "/repro_obs.json";
          std::error_code ec;
          std::filesystem::create_directories(out_dir, ec);
          if (!WriteScheduleTrace(bundle, repro_spec, opt, trace_path)) {
            obs::LogError("check_artc", "cannot write repro trace", {{"path", trace_path}});
            return 1;
          }
        }
        continue;
      }
      ExploreOptions o = opt;
      o.seed = seed;
      ReportExploration(path, ExploreBundle(bundle, o), &totals);
    }
  } else {
    for (uint64_t i = 0; i < iters; ++i) {
      gen.seed = seed + i;
      trace::TraceBundle bundle = GenerateTrace(gen);
      if (!emit.empty()) {
        // Corpus refresh: save the generated bundle before exploring it.
        std::filesystem::create_directories(emit);
        trace::WriteTraceBundleFile(
            bundle, StrFormat("%s/gen_seed%llu.trace", emit.c_str(),
                              static_cast<unsigned long long>(gen.seed)));
      }
      ExploreOptions o = opt;
      o.seed = seed + i;
      o.repro_dir = StrFormat("%s/iter%llu", out_dir.c_str(),
                              static_cast<unsigned long long>(i));
      ReportExploration(StrFormat("fuzz[seed=%llu]",
                                  static_cast<unsigned long long>(gen.seed)),
                        ExploreBundle(bundle, o), &totals);
    }
  }

  std::printf(
      "{\"traces\": %llu, \"schedules\": %llu, \"hb_edges\": %llu, \"violations\": %llu}\n",
      static_cast<unsigned long long>(totals.traces),
      static_cast<unsigned long long>(totals.schedules),
      static_cast<unsigned long long>(totals.hb_edges),
      static_cast<unsigned long long>(totals.violations));
  return totals.violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace artc::check

int main(int argc, char** argv) { return artc::check::Main(argc, argv); }
