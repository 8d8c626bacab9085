// Tests for the live telemetry plane: Prometheus text exposition
// conformance, the /metrics HTTP endpoint (including scrape-under-load),
// the time-series sampler's ring/JSONL plumbing, and the sampler JSON line
// shape. The pure delta/rate math and the log line format are covered in
// obs_test.cc; this file owns everything that crosses a thread or a socket.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/http_server.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/sampler.h"

namespace artc::obs {
namespace {

// Minimal HTTP/1.0-style GET against 127.0.0.1:port. Returns the full
// response (head + body), or "" on connect failure.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) {
      close(fd);
      return "";
    }
    off += static_cast<size_t>(n);
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return resp;
}

std::string BodyOf(const std::string& response) {
  const size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? "" : response.substr(sep + 4);
}

TEST(SanitizeMetricName, MapsDotsAndIllegalCharsToUnderscore) {
  EXPECT_EQ(SanitizeMetricName("sim.run_queue_depth"),
            "artc_sim_run_queue_depth");
  EXPECT_EQ(SanitizeMetricName("page-cache.hit blocks"),
            "artc_page_cache_hit_blocks");
  EXPECT_EQ(SanitizeMetricName("a:b"), "artc_a:b");  // colon is legal
  EXPECT_EQ(SanitizeMetricName(""), "artc_unnamed");
  EXPECT_EQ(SanitizeMetricName("1weird"), "artc_1weird");  // prefix guards
}

TEST(PrometheusText, CounterGetsTotalSuffixAndHeaders) {
  MetricsRegistry reg;
  reg.Add(reg.Counter("sim.windows"), 42);
  const std::string text = reg.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("# HELP artc_sim_windows_total counter metric "
                      "sim.windows\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE artc_sim_windows_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("artc_sim_windows_total 42\n"), std::string::npos);
}

TEST(PrometheusText, GaugeExportsVerbatim) {
  MetricsRegistry reg;
  reg.Add(reg.Gauge("pool.active"), 3);
  reg.Add(reg.Gauge("pool.active"), -1);
  const std::string text = reg.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("# TYPE artc_pool_active gauge\n"), std::string::npos);
  EXPECT_NE(text.find("artc_pool_active 2\n"), std::string::npos);
  EXPECT_EQ(text.find("artc_pool_active_total"), std::string::npos);
}

TEST(PrometheusText, HistogramBucketsAreCumulative) {
  MetricsRegistry reg;
  MetricId h = reg.Histogram("lat");
  // log2 buckets: 1 -> le="1", 3 twice -> le="3", 100 -> le="127".
  reg.Observe(h, 1);
  reg.Observe(h, 3);
  reg.Observe(h, 3);
  reg.Observe(h, 100);
  const std::string text = reg.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("# TYPE artc_lat histogram\n"), std::string::npos);
  EXPECT_NE(text.find("artc_lat_bucket{le=\"1\"} 1\n"), std::string::npos);
  // Cumulative: the le="3" bucket includes the le="1" sample.
  EXPECT_NE(text.find("artc_lat_bucket{le=\"3\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("artc_lat_bucket{le=\"127\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("artc_lat_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("artc_lat_sum 107\n"), std::string::npos);
  EXPECT_NE(text.find("artc_lat_count 4\n"), std::string::npos);
}

// Every non-comment line must be `name value` or `name{labels} value` with
// a legal metric name — the shape the CI python validator enforces on the
// live endpoint.
TEST(PrometheusText, EveryLineIsWellFormed) {
  MetricsRegistry reg;
  reg.Add(reg.Counter("c.one"), 1);
  reg.Add(reg.Gauge("g.two"), -7);
  reg.Observe(reg.Histogram("h.three"), 9);
  const std::string text = reg.Snapshot().ToPrometheusText();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      continue;
    }
    // name[{labels}] SP value
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    std::string name = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    const size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
      name.resize(brace);
    }
    EXPECT_EQ(name.rfind("artc_", 0), size_t{0}) << line;
    for (char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':')
          << line;
    }
    EXPECT_FALSE(value.empty()) << line;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << line;
  }
}

TEST(MetricsHttpServer, ServesMetricsHealthzAnd404) {
  MetricsRegistry reg;
  reg.Add(reg.Counter("srv.hits"), 5);
  MetricsHttpServer server(&reg, nullptr, HttpServerOptions{/*port=*/0});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(BodyOf(metrics).find("artc_srv_hits_total 5\n"),
            std::string::npos);

  const std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(BodyOf(health), "ok\n");

  EXPECT_NE(HttpGet(server.port(), "/nope").find("404"), std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/timeseries").find("404"),
            std::string::npos);  // no sampler attached

  server.Stop();
  EXPECT_GE(server.requests_served(), 4u);
}

// Regression: Stop() used to hold the server mutex across the accept-thread
// join while HandleConnection locked the same mutex to copy the pre-scrape
// hook — a scrape in flight during shutdown deadlocked the process.
TEST(MetricsHttpServer, StopCompletesWhileScrapeInFlight) {
  MetricsRegistry reg;
  reg.Add(reg.Counter("x.count"), 1);
  MetricsHttpServer server(&reg, nullptr, HttpServerOptions{/*port=*/0});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::atomic<bool> in_hook{false};
  server.SetPreScrapeHook([&] {
    in_hook.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  const uint16_t port = server.port();
  std::thread scraper([&] { HttpGet(port, "/metrics"); });
  // A second client parks in the listen backlog while the first is mid-hook,
  // covering the accept→hook-copy window Stop() used to race.
  std::thread parked([&] { HttpGet(port, "/metrics"); });
  while (!in_hook.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();  // hangs forever on regression; the CI timeout catches it
  scraper.join();
  parked.join();
}

TEST(MetricsHttpServer, InvalidBindAddressFailsStart) {
  MetricsRegistry reg;
  HttpServerOptions opts;
  opts.bind_addr = "not-an-ip";
  MetricsHttpServer server(&reg, nullptr, opts);
  std::string error;
  EXPECT_FALSE(server.Start(&error));
  EXPECT_NE(error.find("invalid bind address"), std::string::npos) << error;
}

// A client that sends part of a request head and hangs up must get no
// response — the server used to parse the truncated head and answer 400.
TEST(MetricsHttpServer, PartialHeadThenEofGetsNoResponse) {
  MetricsRegistry reg;
  MetricsHttpServer server(&reg, nullptr, HttpServerOptions{/*port=*/0});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char partial[] = "GET /metrics";  // no terminator, ever
  ASSERT_EQ(send(fd, partial, sizeof(partial) - 1, 0),
            static_cast<ssize_t>(sizeof(partial) - 1));
  shutdown(fd, SHUT_WR);  // EOF with an incomplete head
  std::string resp;
  char buf[512];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  EXPECT_TRUE(resp.empty()) << resp;
  server.Stop();
}

TEST(MetricsHttpServer, ScrapesStayConsistentUnderConcurrentWriters) {
  MetricsRegistry reg;
  MetricId hot = reg.Counter("load.ops");
  MetricsHttpServer server(&reg, nullptr, HttpServerOptions{/*port=*/0});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        reg.Add(hot, 1);
      }
    });
  }
  int64_t last = -1;
  for (int i = 0; i < 10; ++i) {
    const std::string body = BodyOf(HttpGet(server.port(), "/metrics"));
    const size_t at = body.find("artc_load_ops_total ");
    ASSERT_NE(at, std::string::npos);
    const int64_t v = std::strtoll(body.c_str() + at + 20, nullptr, 10);
    // Counter monotonicity must survive shard merging mid-write.
    EXPECT_GE(v, last);
    last = v;
  }
  stop.store(true);
  for (auto& th : writers) {
    th.join();
  }
  server.Stop();
  EXPECT_GE(last, 0);
}

TEST(TimeSeriesSampler, RingIsBoundedAndSequenced) {
  MetricsRegistry reg;
  MetricId c = reg.Counter("tick.count");
  SamplerOptions opts;
  opts.ring_capacity = 4;
  TimeSeriesSampler sampler(&reg, opts);
  for (int i = 0; i < 10; ++i) {
    reg.Add(c, 3);
    sampler.SampleOnce();
  }
  const std::vector<TimeSeriesSample> ring = sampler.Ring();
  ASSERT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.front().seq, 6u);
  EXPECT_EQ(ring.back().seq, 9u);
  EXPECT_EQ(ring.back().counters.at("tick.count"), 30);
  EXPECT_EQ(ring.back().deltas.at("tick.count"), 3);
  EXPECT_EQ(sampler.samples_taken(), 10u);
}

TEST(TimeSeriesSampler, PreSampleHookRunsBeforeEverySnapshot) {
  MetricsRegistry reg;
  MetricId c = reg.Counter("hook.count");
  SamplerOptions opts;
  TimeSeriesSampler sampler(&reg, opts);
  sampler.SetPreSampleHook([&] { reg.Add(c, 1); });
  TimeSeriesSample s1 = sampler.SampleOnce();
  TimeSeriesSample s2 = sampler.SampleOnce();
  EXPECT_EQ(s1.counters.at("hook.count"), 1);
  EXPECT_EQ(s2.counters.at("hook.count"), 2);
}

TEST(TimeSeriesSampler, JsonLineShape) {
  MetricsRegistry reg;
  reg.Add(reg.Counter("a.count"), 7);
  reg.Add(reg.Gauge("b.gauge"), -2);
  reg.Observe(reg.Histogram("c.hist"), 5);
  TimeSeriesSampler sampler(&reg, SamplerOptions{});
  const std::string line = sampler.SampleOnce().ToJsonLine();
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '\n');
  EXPECT_NE(line.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(line.find("\"ts_ms\":"), std::string::npos);
  EXPECT_NE(line.find("\"host_ns\":"), std::string::npos);
  EXPECT_NE(line.find("\"dt_s\":"), std::string::npos);
  EXPECT_NE(line.find("\"a.count\":7"), std::string::npos);
  EXPECT_NE(line.find("\"b.gauge\":-2"), std::string::npos);
  EXPECT_NE(line.find("\"c.hist\""), std::string::npos);
  // Exactly one line.
  EXPECT_EQ(line.find('\n'), line.size() - 1);
}

// Regression: histogram entries were rendered into a fixed 128-byte buffer,
// so a long metric name truncated mid-entry and broke the JSON.
TEST(TimeSeriesSampler, LongHistogramNameSurvivesJsonLine) {
  MetricsRegistry reg;
  const std::string long_name =
      "sim.shard.127.pipeline.window_barrier_wait_duration_ns." +
      std::string(80, 'x');
  reg.Observe(reg.Histogram(long_name), 5);
  TimeSeriesSampler sampler(&reg, SamplerOptions{});
  const std::string line = sampler.SampleOnce().ToJsonLine();
  EXPECT_NE(line.find("\"" + long_name + "\":{\"count\":1,\"sum\":5"),
            std::string::npos)
      << line;
  ASSERT_GE(line.size(), 3u);
  EXPECT_EQ(line.substr(line.size() - 3), "}}\n");
}

TEST(TimeSeriesSampler, StreamsJsonlToSinkWhileRunning) {
  char path[] = "/tmp/artc_sampler_test_XXXXXX";
  const int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  close(fd);

  MetricsRegistry reg;
  MetricId c = reg.Counter("live.count");
  SamplerOptions opts;
  opts.period_ms = 5;
  opts.jsonl_path = path;
  {
    TimeSeriesSampler sampler(&reg, opts);
    std::string error;
    ASSERT_TRUE(sampler.Start(&error)) << error;
    for (int i = 0; i < 20; ++i) {
      reg.Add(c, 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    sampler.Stop();
    EXPECT_GE(sampler.samples_taken(), 1u);  // final Stop() tick at minimum
  }

  std::FILE* f = std::fopen(path, "r");
  ASSERT_NE(f, nullptr);
  char buf[16384];
  size_t lines = 0;
  bool saw_counter = false;
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    lines++;
    ASSERT_EQ(buf[0], '{');
    const size_t len = std::strlen(buf);
    ASSERT_GE(len, 3u);
    EXPECT_EQ(buf[len - 1], '\n');
    EXPECT_EQ(buf[len - 2], '}');
    if (std::strstr(buf, "\"live.count\"") != nullptr) {
      saw_counter = true;
    }
  }
  std::fclose(f);
  EXPECT_GE(lines, 1u);
  EXPECT_TRUE(saw_counter);
  std::remove(path);
}

TEST(MetricsHttpServer, TimeseriesEndpointServesRing) {
  MetricsRegistry reg;
  MetricId c = reg.Counter("ts.count");
  TimeSeriesSampler sampler(&reg, SamplerOptions{});
  reg.Add(c, 1);
  sampler.SampleOnce();
  reg.Add(c, 1);
  sampler.SampleOnce();

  MetricsHttpServer server(&reg, &sampler, HttpServerOptions{/*port=*/0});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const std::string resp = HttpGet(server.port(), "/timeseries");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("application/x-ndjson"), std::string::npos);
  const std::string body = BodyOf(resp);
  EXPECT_NE(body.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(body.find("\"seq\":1"), std::string::npos);
  EXPECT_NE(body.find("\"ts.count\":2"), std::string::npos);
  server.Stop();
}

// Sets an environment variable for one scope, restoring the old value (or
// its absence) on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      old_ = old;
    }
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      setenv(name_, old_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

// A telemetry session far shorter than the sampling period still exports at
// least one JSONL sample: StopTelemetry's final partial-window tick runs
// before the sink closes. (Regression: short-lived harness runs used to
// leave an empty timeseries file.)
TEST(Telemetry, ShortSessionFlushesFinalPartialWindow) {
  char path[] = "/tmp/artc_telemetry_test_XXXXXX";
  const int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  close(fd);

  {
    ScopedEnv out("ARTC_TIMESERIES_OUT", path);
    ScopedEnv period("ARTC_TIMESERIES_PERIOD_MS", "60000");  // far longer than the session
    StartTelemetry();
  }
  ASSERT_NE(ActiveSampler(), nullptr);
  DefaultRegistry().Add(DefaultRegistry().Counter("telemetry_test.count"), 7);
  StopTelemetry();
  EXPECT_EQ(ActiveSampler(), nullptr);
  // A Stop with nothing running does nothing.
  StopTelemetry();
  EXPECT_EQ(ActiveSampler(), nullptr);

  std::FILE* f = std::fopen(path, "r");
  ASSERT_NE(f, nullptr);
  char buf[16384];
  size_t lines = 0;
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    ASSERT_EQ(buf[0], '{');
    lines++;
  }
  std::fclose(f);
  EXPECT_GE(lines, 1u);
  std::remove(path);
}

// ARTC_METRICS_PORT=abc is reported and treated as unset: no endpoint opens
// (reading it as port 0 would open an ephemeral one) and observability stays
// off.
TEST(Telemetry, MalformedPortStartsNothing) {
  Disable();
  ScopedEnv port("ARTC_METRICS_PORT", "abc");
  {
    ScopedObsSession session;
    EXPECT_EQ(ActiveMetricsServer(), nullptr);
    EXPECT_EQ(ActiveSampler(), nullptr);
    EXPECT_FALSE(Enabled());
  }
  EXPECT_EQ(ActiveMetricsServer(), nullptr);
}

}  // namespace
}  // namespace artc::obs
