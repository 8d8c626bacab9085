// artc_synth: generates large synthetic traces (web-server, parallel-build,
// mail-spool, or lock-server shaped) straight into an ARTCT file — or, with
// --text, into a text bundle. Generation streams, so --events 10000000 runs
// in constant memory; this is how the CI pipeline-smoke job's streaming
// ingest step and the streaming-RSS acceptance check mint their inputs. The lockserver scenario
// emits first-class sync events (mutex_lock/unlock on a contended shard
// pool, barrier_wait phases), exercising the sync ordering rules at scale.
//
// Usage:
//   artc_synth --out trace.artct
//              [--scenario webserver|build|mailspool|lockserver]
//              [--threads N] [--events N] [--seed N] [--files N] [--text]
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/obs/log.h"
#include "src/obs/obs.h"
#include "src/trace/trace_io.h"
#include "src/util/flags.h"
#include "src/workloads/synthetic_gen.h"

int main(int argc, char** argv) {
  std::string out_path;
  std::string scenario = "webserver";
  bool text = false;
  artc::workloads::SynthOptions opt;
  artc::util::FlagSet flags;
  flags.String("out", &out_path);
  flags.Choice("scenario", &scenario, artc::workloads::kSynthScenarioNames);
  flags.Unsigned("threads", &opt.threads);
  flags.Unsigned("events", &opt.events);
  flags.Unsigned("seed", &opt.seed);
  flags.Unsigned("files", &opt.files);
  flags.Switch("text", &text);
  artc::bench::HarnessObsSession obs_session(argc, argv, &flags);
  if (out_path.empty()) {
    flags.Fail("needs --out");
  }
  if (opt.threads == 0) {
    flags.Fail("--threads must be at least 1");
  }
  artc::workloads::SynthScenarioFromName(scenario, &opt.scenario);

  uint64_t n;
  if (text) {
    artc::trace::TraceBundle bundle =
        artc::workloads::GenerateSyntheticBundle(opt);
    artc::trace::WriteTraceBundleFile(bundle, out_path);
    n = bundle.trace.events.size();
  } else {
    std::string error;
    if (!artc::workloads::GenerateSyntheticArtct(opt, out_path, &error)) {
      artc::obs::LogError("artc_synth", "synthetic trace generation failed",
                          {{"file", out_path}, {"detail", error}});
      return 1;
    }
    n = opt.events;
  }
  std::printf("%s: %llu %s events on %u threads (seed %llu) -> %s\n",
              artc::workloads::SynthScenarioName(opt.scenario),
              static_cast<unsigned long long>(n), text ? "text" : "artct",
              opt.threads, static_cast<unsigned long long>(opt.seed),
              out_path.c_str());
  return 0;
}
