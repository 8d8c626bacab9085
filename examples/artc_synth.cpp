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
#include <cstdlib>
#include <string>

#include "bench/bench_common.h"
#include "src/obs/log.h"
#include "src/obs/obs.h"
#include "src/trace/trace_io.h"
#include "src/workloads/synthetic_gen.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: artc_synth --out FILE "
               "[--scenario webserver|build|mailspool|lockserver]\n"
               "                  [--threads N] [--events N] [--seed N]\n"
               "                  [--files N] [--text] [--metrics-port P]\n");
}

}  // namespace

int main(int argc, char** argv) {
  artc::bench::HarnessObsSession obs_session(argc, argv);
  std::string out_path;
  bool text = false;
  artc::workloads::SynthOptions opt;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--scenario") {
      if (!artc::workloads::SynthScenarioFromName(next(), &opt.scenario)) {
        Usage();
        return 2;
      }
    } else if (arg == "--threads") {
      opt.threads =
          static_cast<uint32_t>(std::strtoull(next().c_str(), nullptr, 10));
    } else if (arg == "--events") {
      opt.events = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--files") {
      opt.files =
          static_cast<uint32_t>(std::strtoull(next().c_str(), nullptr, 10));
    } else if (arg == "--text") {
      text = true;
    } else {
      Usage();
      return 2;
    }
  }
  if (out_path.empty()) {
    Usage();
    return 2;
  }

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
