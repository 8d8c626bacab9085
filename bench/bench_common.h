// Shared helpers for the table/figure reproduction harnesses.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "src/core/artc.h"
#include "src/obs/obs.h"
#include "src/storage/storage_stack.h"
#include "src/util/flags.h"
#include "src/util/time.h"
#include "src/workloads/magritte.h"
#include "src/workloads/micro.h"
#include "src/workloads/workload.h"

namespace artc::bench {

// RAII observability session for a harness main(): adds --metrics-port to
// the main's flags (none for a main without flags of its own), parses argv
// against them, exiting 2 on any error, then opens the usual env-wired obs
// session (ARTC_TRACE_OUT / ARTC_METRICS_OUT / ARTC_TIMESERIES_OUT /
// ARTC_METRICS_PORT / ARTC_METRICS_ADDR). `flags` then holds a pointer into
// this object, so it must not be parsed again once the session is gone.
class HarnessObsSession {
 public:
  HarnessObsSession(int argc, char** argv, util::FlagSet* flags = nullptr)
      : session_(ParseFlags(argc, argv, flags)) {}

 private:
  obs::SessionOptions ParseFlags(int argc, char** argv, util::FlagSet* flags) {
    util::FlagSet none;
    if (flags == nullptr) {
      flags = &none;
    }
    flags->Unsigned("metrics-port", &metrics_port_);
    std::string error;
    if (!flags->Parse(argc, argv, &error)) {
      flags->Fail(error);
    }
    obs::SessionOptions opts;
    if (metrics_port_) {
      opts.metrics_port = *metrics_port_;
    }
    return opts;
  }

  std::optional<uint16_t> metrics_port_;
  obs::ScopedObsSession session_;
};

// Traces a Magritte workload on the suite's canonical source environment.
inline workloads::TracedRun TraceMagritteOnSuiteSource(
    const workloads::MagritteSpec& spec, uint64_t seed = 1) {
  workloads::SourceConfig source;
  source.storage = storage::MakeNamedConfig("ssd");
  source.platform = "osx";
  source.seed = seed;
  return workloads::TraceMagritte(spec, source);
}

// The Magritte workload `name`; fails through `flags`, listing the suite,
// when there is none.
inline const workloads::MagritteSpec& MagritteSpecOrFail(
    const util::FlagSet& flags, const std::string& name) {
  if (const workloads::MagritteSpec* spec = workloads::LookupMagritteSpec(name)) {
    return *spec;
  }
  std::string names;
  for (const workloads::MagritteSpec& spec : workloads::MagritteSuite()) {
    names += (names.empty() ? "" : ", ") + spec.FullName();
  }
  flags.Fail("unknown Magritte workload '" + name + "' (expected " + names + ")");
}

// What a CLI's --workload / --micro / --source / --seed flags select.
struct WorkloadSource {
  std::string workload = "iphoto_import";  // a Magritte workload
  std::string micro;           // if set, this micro workload instead ...
  std::string source = "ssd";  // ... traced on this storage config
  uint64_t seed = 1;

  static constexpr const char* kMicroNames[] = {"seq_readers", "random_readers"};

  void AddFlags(util::FlagSet* flags) {
    flags->String("workload", &workload);
    flags->Choice("micro", &micro, kMicroNames);
    flags->Choice("source", &source, storage::kNamedConfigNames);
    flags->Unsigned("seed", &seed);
  }
};

// Traces the selected workload, with `workload_name` set to the name the
// flags gave it: Magritte workloads on their canonical ssd/osx source, the
// micro workloads the figure benches replay on --source storage. An unknown
// Magritte name fails through `flags`.
inline workloads::TracedRun TraceWorkloadSource(const WorkloadSource& ws,
                                                const util::FlagSet& flags) {
  if (ws.micro.empty()) {
    return TraceMagritteOnSuiteSource(MagritteSpecOrFail(flags, ws.workload),
                                      ws.seed);
  }
  workloads::SourceConfig source;
  source.storage = storage::MakeNamedConfig(ws.source);
  source.seed = ws.seed;
  workloads::TracedRun run;
  if (ws.micro == "seq_readers") {
    workloads::CompetingSequentialReaders w({});
    run = workloads::TraceWorkload(w, source);
  } else {
    workloads::RandomReaders w({});
    run = workloads::TraceWorkload(w, source);
  }
  run.workload_name = ws.micro;
  return run;
}

// Writes a JSON report to `path` and says so on stdout; false, with a
// diagnostic, when the file cannot be written.
inline bool WriteReport(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << json;
  std::printf("wrote %s\n", path.c_str());
  return true;
}

// Percentage error of a replay time against the original program's time,
// signed: positive = replay was slower (overestimated elapsed time).
inline double PctError(TimeNs replay, TimeNs original) {
  return 100.0 * (static_cast<double>(replay) - static_cast<double>(original)) /
         static_cast<double>(original);
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

// Replays a traced run with the given method on the given target. AFAP by
// default: the evaluation workloads are I/O-bound (per-op compute is
// microseconds), and predelay cannot distinguish compute from
// thread-coordination idleness (e.g., a coordinator joining its workers),
// which would dominate when replaying a slow source on a fast target.
inline core::SimReplayResult ReplayWithMethod(const workloads::TracedRun& run,
                                              core::ReplayMethod method,
                                              core::SimTarget target,
                                              core::PacingMode pacing =
                                                  core::PacingMode::kAfap) {
  core::CompileOptions copt;
  copt.method = method;
  target.replay.pacing = pacing;
  return core::ReplayOnSimTarget(run.trace, run.snapshot, copt, target);
}

}  // namespace artc::bench

#endif  // BENCH_BENCH_COMMON_H_
