// artc_critpath: run a compiled benchmark (a Magritte workload by name, or
// any .artcb file) on a simulated target and print the critical-path
// attribution one-pager — which ordering rules, resources, threads, and
// storage layers the replay's end-to-end time is serialized behind — plus
// an optional JSON report for scripting.
//
//   artc_critpath --workload=iphoto_import [--storage=hdd] [--fs=ext4]
//   artc_critpath --bench=path/to/file.artcb --json=report.json
//   artc_critpath --all               # the whole Magritte suite, one pager each
//   artc_critpath --micro=seq_readers --source=cfq-100ms --storage=cfq-1ms
//                                     # the Fig. 5(d) scenario (EXPERIMENTS.md)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include <vector>

#include "bench/bench_common.h"
#include "src/core/artc.h"
#include "src/core/serialize.h"
#include "src/core/suite.h"
#include "src/obs/critpath.h"
#include "src/obs/log.h"
#include "src/obs/obs.h"
#include "src/util/thread_pool.h"
#include "src/workloads/magritte.h"
#include "src/workloads/micro.h"

namespace artc {
namespace {

using bench::ReplayWithMethod;
using core::CompiledBenchmark;
using core::SimReplayResult;
using core::SimTarget;
using workloads::MagritteSpec;
using workloads::SourceConfig;
using workloads::TracedRun;

uint64_t FlagValue(int argc, char** argv, const char* name, uint64_t def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtoull(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return def;
}

std::string StringFlag(int argc, char** argv, const char* name, const char* def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return def;
}

bool BoolFlag(int argc, char** argv, const char* name) {
  std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) {
      return true;
    }
  }
  return false;
}

struct Options {
  SimTarget target;
  uint64_t seed = 1;
  std::string json_path;
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
  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
      return 1;
    }
    out << cp.ToJson();
    std::printf("wrote %s\n", opt.json_path.c_str());
  }
  return 0;
}

int AnalyzeOne(const std::string& title, const CompiledBenchmark& bench,
               const Options& opt) {
  SimReplayResult result = core::ReplayCompiledOnSimTarget(bench, opt.target);
  return PrintPager(title, bench, result, opt);
}

// --all on the parallel backend: trace every Magritte workload, compile them
// on the host thread pool (--jobs), then replay the whole suite as one
// sharded simulation — one shard per workload — and analyze each shard.
int AnalyzeSuiteParallel(const Options& opt) {
  const std::vector<MagritteSpec>& specs = workloads::MagritteSuite();
  std::vector<TracedRun> runs;
  for (const MagritteSpec& spec : specs) {
    SourceConfig source;
    source.storage = storage::MakeNamedConfig("ssd");
    source.platform = "osx";
    source.seed = opt.seed;
    runs.push_back(workloads::TraceMagritte(spec, source));
  }
  core::CompileOptions copt;
  copt.method = core::ReplayMethod::kArtc;
  std::vector<core::CompileJob> jobs;
  for (const TracedRun& run : runs) {
    jobs.push_back(core::CompileJob{&run.trace, &run.snapshot, copt});
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
  std::printf("suite: %zu workloads on %zu shards, %zu host workers\n",
              benches.size(), suite.shards, suite.workers);
  return rc;
}

CompiledBenchmark CompileMagritte(const MagritteSpec& spec, uint64_t seed) {
  // Magritte traces come from the suite's canonical source environment.
  SourceConfig source;
  source.storage = storage::MakeNamedConfig("ssd");
  source.platform = "osx";
  source.seed = seed;
  TracedRun run = workloads::TraceMagritte(spec, source);
  core::CompileOptions copt;
  copt.method = core::ReplayMethod::kArtc;
  return core::Compile(std::move(run.trace), run.snapshot, copt);
}

// The micro workloads the figure benches replay (EXPERIMENTS.md points the
// Fig. 5(d) attribution walkthrough here): traced on --source storage,
// analyzed on --storage.
CompiledBenchmark CompileMicro(const std::string& name,
                               const std::string& source_storage) {
  SourceConfig source;
  source.storage = storage::MakeNamedConfig(source_storage);
  TracedRun run = [&] {
    if (name == "seq_readers") {
      workloads::CompetingSequentialReaders w({});
      return workloads::TraceWorkload(w, source);
    }
    if (name == "random_readers") {
      workloads::RandomReaders w({});
      return workloads::TraceWorkload(w, source);
    }
    std::fprintf(stderr,
                 "unknown --micro=%s (expected seq_readers or random_readers)\n",
                 name.c_str());
    std::exit(2);
  }();
  core::CompileOptions copt;
  copt.method = core::ReplayMethod::kArtc;
  return core::Compile(std::move(run.trace), run.snapshot, copt);
}

int Main(int argc, char** argv) {
  Options opt;
  opt.seed = FlagValue(argc, argv, "seed", 1);
  opt.target.seed = opt.seed;
  opt.target.storage =
      storage::MakeNamedConfig(StringFlag(argc, argv, "storage", "hdd"));
  opt.target.fs_profile = StringFlag(argc, argv, "fs", "ext4");
  if (BoolFlag(argc, argv, "pacing")) {
    opt.target.replay.pacing = core::PacingMode::kNatural;
  }
  const std::string backend = StringFlag(argc, argv, "backend", "");
  if (!backend.empty() &&
      !sim::ParseSimBackendName(backend, &opt.target.sim_backend)) {
    obs::LogError("artc_critpath", "unknown --backend value",
                  {{"backend", backend},
                   {"expected", "fibers or parallel"}});
    return 2;
  }
  // Host worker threads for compilation and the parallel backend
  // (0 = ARTC_JOBS / core count).
  opt.target.jobs = FlagValue(argc, argv, "jobs", 0);
  opt.json_path = StringFlag(argc, argv, "json", "");

  const std::string micro = StringFlag(argc, argv, "micro", "");
  if (!micro.empty()) {
    const std::string src = StringFlag(argc, argv, "source", "ssd");
    return AnalyzeOne(micro + " (traced on " + src + ")",
                      CompileMicro(micro, src), opt);
  }
  const std::string bench_path = StringFlag(argc, argv, "bench", "");
  if (!bench_path.empty()) {
    CompiledBenchmark bench = core::ReadBenchmarkFile(bench_path);
    return AnalyzeOne(bench_path, bench, opt);
  }
  if (BoolFlag(argc, argv, "all")) {
    Options per = opt;
    per.json_path.clear();  // one pager per workload; JSON is single-run only
    if (per.target.sim_backend == sim::SimBackend::kParallel) {
      return AnalyzeSuiteParallel(per);
    }
    int rc = 0;
    for (const MagritteSpec& spec : workloads::MagritteSuite()) {
      rc |= AnalyzeOne(spec.FullName(), CompileMagritte(spec, opt.seed), per);
    }
    return rc;
  }
  const std::string workload =
      StringFlag(argc, argv, "workload", "iphoto_import");
  const MagritteSpec& spec = workloads::FindMagritteSpec(workload);
  return AnalyzeOne(spec.FullName(), CompileMagritte(spec, opt.seed), opt);
}

}  // namespace
}  // namespace artc

int main(int argc, char** argv) {
  artc::bench::HarnessObsSession obs_session(argc, argv);
  return artc::Main(argc, argv);
}
