// Synthetic large-trace generators for the streaming-ingest path: three
// I/O-shaped workload families (web-server access logging, parallel build,
// maildir-style mail spool) that emit traces *procedurally* — no simulated
// file system, no materialized trace — so a 10M+-action ARTCT file can be
// produced in seconds and O(threads) memory. This is how the pipeline-smoke
// CI job and the RSS acceptance test obtain multi-million-action inputs
// without shipping multi-GB fixtures.
//
// Unlike the workloads built on the replay VFS (magritte, minikv, micro),
// these generators fabricate the event stream directly: each thread runs a
// tiny request-script state machine with its own RNG and monotonic clock,
// and a k-way merge emits the union in issue (enter-time) order with dense
// indices — exactly the invariants the compiler expects of a real capture.
// Per-thread namespaces (worker-private logs, object files, spool dirs) and
// a shared read-only corpus keep the traces replayable while still
// exercising cross-thread path/parent ordering rules.
#ifndef SRC_WORKLOADS_SYNTHETIC_GEN_H_
#define SRC_WORKLOADS_SYNTHETIC_GEN_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/trace/event.h"
#include "src/trace/snapshot.h"
#include "src/trace/trace_io.h"

namespace artc::workloads {

enum class SynthScenario {
  kWebServer,      // workers serve docs from a shared corpus, append logs
  kParallelBuild,  // workers compile shared sources into private objects
  kMailSpool,      // workers deliver via tmp-write/fsync/rename (maildir)
  kLockServer,     // workers fight over a mutex-guarded shard pool and
                   // rendezvous at a barrier between phases (sync events)
};

// Scenario names in enum order (the CLI --scenario vocabulary).
inline constexpr const char* kSynthScenarioNames[] = {"webserver", "build",
                                                      "mailspool", "lockserver"};

const char* SynthScenarioName(SynthScenario s);
bool SynthScenarioFromName(const std::string& name, SynthScenario* out);

struct SynthOptions {
  SynthScenario scenario = SynthScenario::kWebServer;
  uint32_t threads = 8;
  // Total events to emit (the stream cuts cleanly mid-request at exactly
  // this count; a trailing open without its close is a normal capture
  // artifact the compiler already handles).
  uint64_t events = 1'000'000;
  uint64_t seed = 1;
  // Shared corpus size: documents (web server) or source files (build).
  uint32_t files = 256;
};

// The initial tree the generated trace replays against.
trace::FsSnapshot SynthSnapshot(const SynthOptions& opt);

// Streams the trace in issue order with dense indices to `sink`; returns
// the event count (== opt.events unless opt.events is 0). Memory stays
// O(threads) regardless of length.
uint64_t GenerateSynthetic(const SynthOptions& opt,
                           const std::function<void(const trace::TraceEvent&)>& sink);

// Convenience: generate straight into an ARTCT file (the writer itself is
// streaming, so this is the constant-memory path end to end). Returns false
// with *error set on I/O failure.
bool GenerateSyntheticArtct(const SynthOptions& opt, const std::string& path,
                            std::string* error);

// In-memory convenience for tests and small traces.
trace::TraceBundle GenerateSyntheticBundle(const SynthOptions& opt);

}  // namespace artc::workloads

#endif  // SRC_WORKLOADS_SYNTHETIC_GEN_H_
