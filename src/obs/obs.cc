#include "src/obs/obs.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>

#include "src/obs/http_server.h"
#include "src/obs/log.h"
#include "src/obs/sampler.h"

namespace artc::obs {
namespace internal {

std::atomic<bool> g_enabled{false};

}  // namespace internal

namespace {

std::string& TraceOutStorage() {
  static std::string* path = new std::string();
  return *path;
}

std::string& MetricsOutStorage() {
  static std::string* path = new std::string();
  return *path;
}

// Live-exporter state, guarded by TelemetryMu(). Leaked like the registry:
// a scrape may race static teardown otherwise.
struct Telemetry {
  std::unique_ptr<TimeSeriesSampler> sampler;
  std::unique_ptr<MetricsHttpServer> server;
};

std::mutex& TelemetryMu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

Telemetry& TelemetryState() {
  static Telemetry* state = new Telemetry();
  return *state;
}

}  // namespace

MetricsRegistry& DefaultRegistry() {
  // Leaked singletons: instrumentation sites cache MetricIds in function-
  // local statics and may fire from detached threads during teardown, so the
  // registry must outlive every static destructor.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Tracer& DefaultTracer() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Enable() {
  DefaultRegistry();
  DefaultTracer();
  internal::g_enabled.store(true, std::memory_order_relaxed);
}

void Disable() { internal::g_enabled.store(false, std::memory_order_relaxed); }

bool InitFromEnv() {
  InitLogFromEnv();
  const char* trace_out = std::getenv("ARTC_TRACE_OUT");
  const char* metrics_out = std::getenv("ARTC_METRICS_OUT");
  if (trace_out != nullptr && trace_out[0] != '\0') {
    TraceOutStorage() = trace_out;
  }
  if (metrics_out != nullptr && metrics_out[0] != '\0') {
    MetricsOutStorage() = metrics_out;
  }
  if (!TraceOutPath().empty() || !MetricsOutPath().empty()) {
    Enable();
  }
  return Enabled();
}

const std::string& TraceOutPath() { return TraceOutStorage(); }

const std::string& MetricsOutPath() { return MetricsOutStorage(); }

void SyncDerivedMetrics() {
  // Tracer ring drops: exported as a counter by adding the delta since the
  // last sync (counter cells are additive, shard-local).
  static std::mutex* mu = new std::mutex();
  static uint64_t last_dropped = 0;
  std::lock_guard<std::mutex> lk(*mu);
  const uint64_t dropped = DefaultTracer().dropped_records();
  if (dropped > last_dropped) {
    static const MetricId id = DefaultRegistry().Counter("tracer.dropped_records");
    DefaultRegistry().Add(id, static_cast<int64_t>(dropped - last_dropped));
    last_dropped = dropped;
  } else if (dropped < last_dropped) {
    last_dropped = dropped;  // Tracer::Clear() rewound the rings
  }
}

void StartTelemetry() {
  std::lock_guard<std::mutex> lk(TelemetryMu());
  Telemetry& t = TelemetryState();
  if (t.sampler != nullptr || t.server != nullptr) {
    return;  // already running
  }

  const std::optional<uint64_t> port = EnvDecimal("ARTC_METRICS_PORT", 65535);
  std::string bind_addr;
  if (const char* env_addr = std::getenv("ARTC_METRICS_ADDR")) {
    bind_addr = env_addr;
  }
  std::string ts_path;
  if (const char* env_ts = std::getenv("ARTC_TIMESERIES_OUT")) {
    ts_path = env_ts;
  }
  int64_t period_ms = 1000;
  if (const std::optional<uint64_t> env_period =
          EnvDecimal("ARTC_TIMESERIES_PERIOD_MS", INT64_MAX);
      env_period && *env_period > 0) {
    period_ms = static_cast<int64_t>(*env_period);
  }

  const bool want_sampler = !ts_path.empty() || port.has_value();
  const bool want_server = port.has_value();
  if (!want_sampler && !want_server) {
    return;
  }
  Enable();

  if (want_sampler) {
    SamplerOptions sopt;
    sopt.period_ms = period_ms;
    sopt.jsonl_path = ts_path;
    t.sampler = std::make_unique<TimeSeriesSampler>(&DefaultRegistry(), sopt);
    t.sampler->SetPreSampleHook([] { SyncDerivedMetrics(); });
    std::string error;
    if (!t.sampler->Start(&error)) {
      LogError("obs", "timeseries sampler failed to start", {{"error", error}});
      t.sampler.reset();
    } else {
      LogInfo("obs", "timeseries sampler started",
              {{"period_ms", period_ms},
               {"sink", ts_path.empty() ? "(ring only)" : ts_path.c_str()}});
    }
  }
  if (want_server) {
    HttpServerOptions hopt;
    hopt.port = static_cast<uint16_t>(*port);
    if (!bind_addr.empty()) {
      hopt.bind_addr = bind_addr;
    }
    t.server = std::make_unique<MetricsHttpServer>(&DefaultRegistry(),
                                                   t.sampler.get(), hopt);
    t.server->SetPreScrapeHook([] { SyncDerivedMetrics(); });
    std::string error;
    if (!t.server->Start(&error)) {
      LogError("obs", "metrics endpoint failed to start",
               {{"port", *port}, {"error", error}});
      t.server.reset();
    } else {
      LogInfo("obs", "metrics endpoint listening",
              {{"addr", hopt.bind_addr.c_str()},
               {"port", static_cast<int64_t>(t.server->port())},
               {"path", "/metrics"}});
    }
  }
}

void StopTelemetry() {
  std::lock_guard<std::mutex> lk(TelemetryMu());
  Telemetry& t = TelemetryState();
  // Server first: scrapes reference the sampler's ring.
  if (t.server != nullptr) {
    t.server->Stop();
    t.server.reset();
  }
  if (t.sampler != nullptr) {
    // Stop() takes one final partial-window sample before closing the JSONL
    // sink, so even a run shorter than the sampling period exports >= 1 tick.
    t.sampler->Stop();
    t.sampler.reset();
  }
}

TimeSeriesSampler* ActiveSampler() {
  std::lock_guard<std::mutex> lk(TelemetryMu());
  return TelemetryState().sampler.get();
}

MetricsHttpServer* ActiveMetricsServer() {
  std::lock_guard<std::mutex> lk(TelemetryMu());
  return TelemetryState().server.get();
}

ScopedObsSession::ScopedObsSession() {
  InitFromEnv();
  StartTelemetry();
}

ScopedObsSession::~ScopedObsSession() {
  StopTelemetry();
  FlushOutputs();
}

bool FlushOutputs() {
  SyncDerivedMetrics();
  bool ok = true;
  const std::string& trace_path = TraceOutPath();
  std::string metrics_path = MetricsOutPath();
  if (metrics_path.empty() && !trace_path.empty()) {
    // "Alongside": derive metrics.json next to the trace file.
    size_t slash = trace_path.find_last_of('/');
    metrics_path = slash == std::string::npos
                       ? "metrics.json"
                       : trace_path.substr(0, slash + 1) + "metrics.json";
  }
  if (!trace_path.empty()) {
    const uint64_t dropped = DefaultTracer().dropped_records();
    if (dropped > 0) {
      LogWarn("obs", "trace ring overwrote records; oldest events lost",
              {{"dropped", dropped}});
    }
    ok = DefaultTracer().WriteChromeJson(trace_path) && ok;
  }
  if (!metrics_path.empty() && Enabled()) {
    std::FILE* f = std::fopen(metrics_path.c_str(), "w");
    if (f == nullptr) {
      ok = false;
    } else {
      const std::string json = DefaultRegistry().SnapshotJson();
      ok = std::fwrite(json.data(), 1, json.size(), f) == json.size() && ok;
      ok = std::fclose(f) == 0 && ok;
    }
  }
  return ok;
}

}  // namespace artc::obs
