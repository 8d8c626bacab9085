// Observability front door: process-global MetricsRegistry + Tracer, a
// runtime on/off switch, the environment wiring every CLI main gets through
// ScopedObsSession (the environment is telemetry's only configuration), and
// the instrumentation macros the rest of the stack uses.
//
// Two switches, two costs:
//  - Runtime (obs::Enable / ARTC_TRACE_OUT env): instrumentation sites pay
//    one relaxed atomic load and a predicted-not-taken branch when disabled.
//  - Compile time (CMake -DARTC_OBS=OFF, which defines ARTC_OBS_DISABLED):
//    every macro guard becomes `if constexpr (false)`, so instrumented hot
//    paths generate zero code. The obs library itself still builds, so
//    explicit users (tests, tools) keep working.
#ifndef SRC_OBS_OBS_H_
#define SRC_OBS_OBS_H_

#include <atomic>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/tracer.h"

namespace artc::obs {

// Process-global instances. Instrumentation sites reach them through the
// macros below; exporters call them directly.
MetricsRegistry& DefaultRegistry();
Tracer& DefaultTracer();

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

void Enable();
void Disable();

// Reads the post-mortem half of the telemetry environment: ARTC_TRACE_OUT /
// ARTC_METRICS_OUT (artifact paths, enabling observability when either is
// set) and, through InitLogFromEnv, ARTC_LOG_LEVEL / ARTC_LOG_OUT /
// ARTC_LOG_RATE. Returns true if observability ended up enabled. The live
// exporters' variables are read by StartTelemetry.
bool InitFromEnv();

// Configured output paths ("" if unset). A trace path with no metrics path
// derives metrics.json next to the trace file.
const std::string& TraceOutPath();
const std::string& MetricsOutPath();

// Writes trace.json / metrics.json to the configured paths (no-op for unset
// paths). Returns false if any configured write failed.
bool FlushOutputs();

// Starts the live exporters the environment asks for, enabling
// observability if anything starts:
//   ARTC_METRICS_PORT          serve /metrics (and the sampler) on this port;
//                              0 = ephemeral, the bound port is logged and
//                              available via ActiveMetricsServer()->port()
//   ARTC_METRICS_ADDR          endpoint bind address (default 127.0.0.1: the
//                              endpoint is unauthenticated, so serving beyond
//                              the host is opt-in, e.g. "0.0.0.0")
//   ARTC_TIMESERIES_OUT        sampler JSONL sink path
//   ARTC_TIMESERIES_PERIOD_MS  sampler period (default 1000)
// A numeric value that is not a plain decimal in range is reported once and
// treated as unset (EnvDecimal). Does nothing while exporters are running.
void StartTelemetry();

// Shuts the exporters down. The sampler takes a final partial-window tick
// first, so even a run shorter than the sampling period exports at least one
// JSONL sample. A Stop with nothing running does nothing.
void StopTelemetry();

// The live exporters, when running (nullptr otherwise). Owned by the obs
// session; do not delete.
class TimeSeriesSampler;
class MetricsHttpServer;
TimeSeriesSampler* ActiveSampler();
MetricsHttpServer* ActiveMetricsServer();

// Folds derived sources into the registry so they appear in scrapes: today
// the Tracer's ring-buffer drop count (counter tracer.dropped_records),
// which would otherwise be silent loss. Called automatically on every
// sampler tick, /metrics scrape, and FlushOutputs.
void SyncDerivedMetrics();

// RAII wiring for a harness main(): InitFromEnv + StartTelemetry on entry;
// StopTelemetry + FlushOutputs on exit.
class ScopedObsSession {
 public:
  ScopedObsSession();
  ~ScopedObsSession();
  ScopedObsSession(const ScopedObsSession&) = delete;
  ScopedObsSession& operator=(const ScopedObsSession&) = delete;
};

}  // namespace artc::obs

// ---- Instrumentation macros ----
//
// ARTC_OBS_IF_ENABLED { ... }        guard for hand-written emission blocks
// ARTC_OBS_SPAN(cat, name)           RAII host-clock span (pipeline stages)
// ARTC_OBS_COUNT(name, delta)        counter add
// ARTC_OBS_GAUGE_ADD(name, delta)    gauge add (may be negative)
// ARTC_OBS_OBSERVE(name, value)      histogram sample
//
// Metric names must be string literals (ids are cached in function-local
// statics at each site).

#define ARTC_OBS_CONCAT_INNER(a, b) a##b
#define ARTC_OBS_CONCAT(a, b) ARTC_OBS_CONCAT_INNER(a, b)

#ifdef ARTC_OBS_DISABLED

#define ARTC_OBS_IF_ENABLED if constexpr (false)
#define ARTC_OBS_SPAN(cat, name) ((void)0)

#else  // ARTC_OBS_DISABLED

#define ARTC_OBS_IF_ENABLED if (artc::obs::Enabled())

// The guard object is cheap but not free, so the span macro keeps the
// enabled check outside the guard via an immediately-sized optional-like
// pattern: construct only when enabled.
namespace artc::obs::internal {
class OptionalSpan {
 public:
  OptionalSpan(const char* cat, const char* name) {
    if (artc::obs::Enabled()) {
      tracer_ = &artc::obs::DefaultTracer();
      cat_ = cat;
      name_ = name;
      start_ = tracer_->HostNowNs();
    }
  }
  ~OptionalSpan() {
    if (tracer_ != nullptr) {
      tracer_->CompleteSpan(artc::obs::ClockDomain::kHost,
                            tracer_->CurrentHostTrack(), cat_, name_, start_,
                            tracer_->HostNowNs() - start_);
    }
  }
  OptionalSpan(const OptionalSpan&) = delete;
  OptionalSpan& operator=(const OptionalSpan&) = delete;

 private:
  artc::obs::Tracer* tracer_ = nullptr;
  const char* cat_ = nullptr;
  const char* name_ = nullptr;
  int64_t start_ = 0;
};
}  // namespace artc::obs::internal

#define ARTC_OBS_SPAN(cat, name) \
  artc::obs::internal::OptionalSpan ARTC_OBS_CONCAT(artc_obs_span_, __LINE__)(cat, name)

#endif  // ARTC_OBS_DISABLED

#define ARTC_OBS_COUNT(name, delta)                                         \
  do {                                                                      \
    ARTC_OBS_IF_ENABLED {                                                   \
      static const artc::obs::MetricId artc_obs_mid =                       \
          artc::obs::DefaultRegistry().Counter(name);                       \
      artc::obs::DefaultRegistry().Add(artc_obs_mid,                        \
                                       static_cast<int64_t>(delta));        \
    }                                                                       \
  } while (0)

#define ARTC_OBS_GAUGE_ADD(name, delta)                                     \
  do {                                                                      \
    ARTC_OBS_IF_ENABLED {                                                   \
      static const artc::obs::MetricId artc_obs_mid =                       \
          artc::obs::DefaultRegistry().Gauge(name);                         \
      artc::obs::DefaultRegistry().Add(artc_obs_mid,                        \
                                       static_cast<int64_t>(delta));        \
    }                                                                       \
  } while (0)

#define ARTC_OBS_OBSERVE(name, value)                                       \
  do {                                                                      \
    ARTC_OBS_IF_ENABLED {                                                   \
      static const artc::obs::MetricId artc_obs_mid =                       \
          artc::obs::DefaultRegistry().Histogram(name);                     \
      artc::obs::DefaultRegistry().Observe(artc_obs_mid,                    \
                                           static_cast<uint64_t>(value));   \
    }                                                                       \
  } while (0)

#endif  // SRC_OBS_OBS_H_
