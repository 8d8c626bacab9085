// artc_critpath: compile a benchmark with the default ARTC method (a named
// workload — a Magritte program, or one of the Figs 5-7 programs of
// sweep::NamedWorkload — or any ARTCT or text trace file), run it on a
// simulated target and print the critical-path attribution one-pager —
// which ordering rules, resources, threads, and storage layers the
// replay's end-to-end time is serialized behind — plus an optional JSON
// report for scripting. An unreadable trace file exits 1 with a diagnostic.
//
//   artc_critpath --workload=iphoto_import [--storage=hdd] [--fs=ext4]
//   artc_critpath --trace=path/to/file.artct --json=report.json
//   artc_critpath --all               # the whole Magritte suite, one pager each
//   artc_critpath --micro=seq_readers --source=cfq-100ms --storage=cfq-1ms
//                                     # the Fig. 5(d) scenario (EXPERIMENTS.md)
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/artc.h"
#include "src/core/suite.h"
#include "src/obs/critpath.h"
#include "src/obs/log.h"
#include "src/sweep/workload_table.h"
#include "src/trace/stream_reader.h"
#include "src/util/flags.h"
#include "src/util/thread_pool.h"
#include "src/vfs/vfs.h"
#include "src/workloads/magritte.h"

namespace artc {
namespace {

using core::CompiledBenchmark;
using core::SimReplayResult;
using core::SimTarget;
using workloads::MagritteSpec;
using workloads::TracedRun;

struct Options {
  SimTarget target;
  std::string json_path;
};

// What the --workload / --micro / --source / --seed flags select: a named
// workload (sweep::NamedWorkload) traced on a storage config.
struct WorkloadSource {
  std::string workload = "iphoto_import";
  std::string micro;           // if set, this workload instead
  std::string source = "ssd";  // traced on this storage config
  uint64_t seed = 1;

  void AddFlags(util::FlagSet* flags) {
    flags->String("workload", &workload);
    flags->Choice("micro", &micro, sweep::kMicroWorkloadNames);
    flags->Choice("source", &source, storage::kNamedConfigNames);
    flags->Unsigned("seed", &seed);
  }

  // Traces the selected workload; an unknown name fails through `flags`,
  // listing the known ones.
  TracedRun Trace(const util::FlagSet& flags) const {
    const std::string& name = micro.empty() ? workload : micro;
    const std::optional<sweep::NamedWorkload> w = sweep::NamedWorkload::Find(name);
    if (!w) {
      flags.Fail("unknown workload '" + name + "' (expected " +
                 sweep::NamedWorkload::Names() + ")");
    }
    workloads::SourceConfig config;
    config.storage = storage::MakeNamedConfig(source);
    config.seed = seed;
    return w->Trace(/*threads=*/0, config);
  }
};

int PrintPager(const std::string& title, const CompiledBenchmark& bench,
               const SimReplayResult& result, const Options& opt) {
  obs::CritPathReport cp =
      obs::AnalyzeSimReplay(bench, result, /*emit_trace=*/true);
  std::printf("==== %s (%zu actions, %zu threads, %s/%s) ====\n",
              title.c_str(), bench.size(), bench.thread_actions.size(),
              opt.target.storage.name.c_str(), opt.target.fs_profile.c_str());
  std::fputs(cp.OnePager().c_str(), stdout);
  std::printf("replay: %s\n\n", result.report.Summary().c_str());
  if (!opt.json_path.empty() && !bench::WriteReport(opt.json_path, cp.ToJson())) {
    return 1;
  }
  return 0;
}

int AnalyzeOne(const std::string& title, const CompiledBenchmark& bench,
               const Options& opt) {
  SimReplayResult result = core::ReplayCompiledOnSimTarget(bench, opt.target);
  return PrintPager(title, bench, result, opt);
}

CompiledBenchmark CompileArtc(TracedRun run) {
  return core::Compile(std::move(run.trace), run.snapshot, core::CompileOptions{});
}

// --all: trace every Magritte workload on the suite's ssd source, compile
// them on the host thread pool (--jobs), replay them as one suite on a pool
// of --jobs workers and print one pager per workload.
int AnalyzeSuite(const Options& opt, uint64_t seed) {
  const std::vector<MagritteSpec>& specs = workloads::MagritteSuite();
  workloads::SourceConfig source;
  source.storage = storage::MakeNamedConfig("ssd");
  source.seed = seed;
  std::vector<TracedRun> runs;
  for (const MagritteSpec& spec : specs) {
    runs.push_back(sweep::NamedWorkload::Find(spec.FullName())->Trace(0, source));
  }
  std::vector<core::CompileJob> jobs;
  for (const TracedRun& run : runs) {
    jobs.push_back(core::CompileJob{&run.trace, &run.snapshot, core::CompileOptions{}});
  }
  util::ThreadPool pool(opt.target.jobs);
  std::vector<CompiledBenchmark> benches = core::CompileSuite(jobs, &pool);

  std::vector<const CompiledBenchmark*> ptrs;
  for (const CompiledBenchmark& b : benches) {
    ptrs.push_back(&b);
  }
  core::SuiteReplayResult suite = core::ReplaySuiteOnSimTarget(ptrs, opt.target);

  int rc = 0;
  for (size_t i = 0; i < benches.size(); ++i) {
    rc |= PrintPager(specs[i].FullName(), benches[i], suite.runs[i], opt);
  }
  std::printf("suite: %zu workloads, %zu host workers\n", benches.size(), suite.workers);
  return rc;
}

int Main(int argc, char** argv) {
  Options opt;
  WorkloadSource ws;
  std::string storage_name = "hdd";
  std::string trace_path;
  bool pacing = false;
  bool all = false;
  util::FlagSet flags;
  ws.AddFlags(&flags);
  flags.Choice("storage", &storage_name, storage::kNamedConfigNames);
  flags.Choice("fs", &opt.target.fs_profile, vfs::kFsProfileNames);
  flags.Switch("pacing", &pacing);
  // Host worker threads for --all's compiles and replays (0 = ARTC_JOBS /
  // core count; 1 runs the replays one after another).
  flags.Unsigned("jobs", &opt.target.jobs);
  flags.String("json", &opt.json_path);
  flags.String("trace", &trace_path);
  flags.Switch("all", &all);
  bench::HarnessObsSession obs_session(argc, argv, &flags);

  opt.target.seed = ws.seed;
  opt.target.storage = storage::MakeNamedConfig(storage_name);
  if (pacing) {
    opt.target.replay.pacing = core::PacingMode::kNatural;
  }

  if (ws.micro.empty() && !trace_path.empty()) {
    trace::ParallelReadResult read;
    trace::ParseDiag diag;
    if (!trace::ParallelReadTraceFile(trace_path, {}, &read, &diag)) {
      obs::LogError("artc_critpath", "cannot read trace",
                    {{"detail", diag.Format()}});
      return 1;
    }
    return AnalyzeOne(trace_path,
                      core::Compile(std::move(read.bundle.trace),
                                    read.bundle.snapshot, core::CompileOptions{}),
                      opt);
  }
  if (ws.micro.empty() && all) {
    Options per = opt;
    per.json_path.clear();  // one pager per workload; JSON is single-run only
    per.target.sim_backend = sim::SimBackend::kParallel;
    return AnalyzeSuite(per, ws.seed);
  }
  TracedRun run = ws.Trace(flags);
  std::string title = run.workload_name;
  if (!ws.micro.empty()) {
    title += " (traced on " + ws.source + ")";
  }
  return AnalyzeOne(title, CompileArtc(std::move(run)), opt);
}

}  // namespace
}  // namespace artc

int main(int argc, char** argv) { return artc::Main(argc, argv); }
