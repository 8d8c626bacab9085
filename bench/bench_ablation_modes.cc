// Ablation: what each ROOT rule contributes. For a racy desktop-app trace
// (semantic stress) and a readrandom trace (timing stress), toggle the
// Table-2 rule modes and measure dependency-edge counts, replay failures,
// timing error, and concurrency. This quantifies the over-/under-constraint
// trade-off of Sec. 3.2: weaker rules admit orderings the program never
// allowed (failures), stronger ones forbid orderings it did (timing error).
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/obs/obs.h"
#include "src/workloads/magritte.h"
#include "src/workloads/minikv.h"

namespace artc {
namespace {

using bench::PctError;
using bench::PrintHeader;
using core::CompiledBenchmark;
using core::CompileOptions;
using core::ReplayMethod;
using core::ReplayModes;
using core::SimReplayResult;
using core::SimTarget;
using workloads::SourceConfig;
using workloads::TracedRun;

struct Ablation {
  const char* name;
  ReplayModes modes;
};

std::vector<Ablation> Ablations() {
  std::vector<Ablation> out;
  out.push_back({"full ARTC (defaults)", ReplayModes{}});
  ReplayModes m = ReplayModes{};
  m.file_seq = false;
  out.push_back({"- file_seq", m});
  m = ReplayModes{};
  m.path_stage_name = false;
  out.push_back({"- path stage+name", m});
  m = ReplayModes{};
  m.fd_stage = false;
  out.push_back({"- fd_stage", m});
  m = ReplayModes{};
  m.file_seq = false;
  m.path_stage_name = false;
  m.fd_stage = false;
  m.aio_stage = false;
  out.push_back({"no rules (= UC)", m});
  m = ReplayModes{};
  m.fd_seq = true;
  out.push_back({"+ fd_seq (stronger)", m});
  return out;
}

void RunAblation(const char* title, const TracedRun& run, const SimTarget& target,
                 TimeNs original_on_target) {
  PrintHeader(title);
  std::printf("%-22s %10s %10s %10s %12s\n", "modes", "edges", "failures", "conc",
              "timing-err");
  for (const Ablation& ab : Ablations()) {
    CompileOptions copt;
    copt.modes = ab.modes;
    CompiledBenchmark bench = core::Compile(run.trace, run.snapshot, copt);
    uint64_t edges =
        bench.edge_stats.TotalEdges() -
        bench.edge_stats.count_by_rule[static_cast<size_t>(core::RuleTag::kThreadSeq)];
    // Worst failures over a few scheduler seeds, like Table 3.
    uint64_t failures = 0;
    SimReplayResult last;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SimTarget t = target;
      t.seed = seed;
      last = core::ReplayCompiledOnSimTarget(bench, t);
      failures = std::max(failures, last.report.failed_events);
    }
    std::printf("%-22s %10llu %10llu %10.2f %+11.1f%%\n", ab.name,
                static_cast<unsigned long long>(edges),
                static_cast<unsigned long long>(failures),
                last.report.MeanConcurrency(),
                PctError(last.report.wall_time, original_on_target));
  }
}

}  // namespace

int Main() {
  // Semantic stress: the import workload's cross-thread fd hand-offs.
  {
    workloads::MagritteSpec spec = workloads::FindMagritteSpec("iphoto_import");
    spec.scale = 60;  // trimmed: ablation needs many replays
    SourceConfig src;
    src.storage = storage::MakeNamedConfig("ssd");
    src.platform = "osx";
    TracedRun run = workloads::TraceMagritte(spec, src);
    SimTarget target;
    target.storage = storage::MakeNamedConfig("ssd");
    target.drop_caches_after_init = false;
    RunAblation("Ablation A: semantic correctness (iphoto_import, SSD, AFAP)", run,
                target, run.elapsed);
  }
  // Timing stress: readrandom replayed on the same target; overconstraint
  // shows up as overestimated elapsed time.
  {
    workloads::KvReadRandom::Options opt;
    opt.threads = 8;
    opt.gets_per_thread = 300;
    opt.tables = 96;
    opt.keys_per_table = 4000;
    workloads::KvReadRandom w(opt);
    SourceConfig src;
    src.storage = storage::MakeNamedConfig("hdd");
    TracedRun run = TraceWorkload(w, src);
    SimTarget target;
    target.storage = storage::MakeNamedConfig("hdd");
    RunAblation("Ablation B: timing accuracy (kv-readrandom, HDD->HDD)", run, target,
                run.elapsed);
  }
  std::printf("\nReading: dropping rules sheds edges and gains concurrency but admits\n"
              "invalid orderings (failures rise toward UC); strengthening fd ordering\n"
              "to sequential adds edges without fixing anything — overconstraint.\n");
  return 0;
}

}  // namespace artc

int main(int argc, char** argv) {
  // Env wiring (ARTC_TRACE_OUT / ARTC_METRICS_PORT / ...); see
  // bench::HarnessObsSession.
  artc::bench::HarnessObsSession obs_session(argc, argv);
  return artc::Main();
}
