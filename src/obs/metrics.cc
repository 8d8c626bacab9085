#include "src/obs/metrics.h"

#include <bit>
#include <cstdio>
#include <unordered_map>

namespace artc::obs {
namespace {

std::atomic<uint64_t> g_next_registry_id{1};

// Per-thread shard cache. The single-entry fast path covers the common case
// (one registry hot per thread); the map handles threads that touch several
// registries (tests). Keys are process-unique registry ids, never reused, so
// entries for destroyed registries are dead weight but never dereferenced.
struct TlsShardCache {
  uint64_t reg_id = 0;
  void* shard = nullptr;
  std::unordered_map<uint64_t, void*> fallback;
};
thread_local TlsShardCache g_tls_shards;

}  // namespace

MetricsRegistry::Shard::~Shard() {
  for (auto& c : chunks) {
    delete[] c.load(std::memory_order_relaxed);
  }
}

std::atomic<int64_t>* MetricsRegistry::Shard::Cell(uint32_t index) {
  const uint32_t chunk = index / kCellsPerChunk;
  std::atomic<int64_t>* base = chunks[chunk].load(std::memory_order_acquire);
  if (base == nullptr) {
    auto* fresh = new std::atomic<int64_t>[kCellsPerChunk];
    for (uint32_t i = 0; i < kCellsPerChunk; ++i) {
      fresh[i].store(0, std::memory_order_relaxed);
    }
    if (chunks[chunk].compare_exchange_strong(base, fresh,
                                              std::memory_order_acq_rel)) {
      base = fresh;
    } else {
      delete[] fresh;  // another thread won the race (snapshot growth)
    }
  }
  return base + (index % kCellsPerChunk);
}

MetricsRegistry::MetricsRegistry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard* MetricsRegistry::RegisterShard() const {
  std::lock_guard<std::mutex> lk(mu_);
  shards_.push_back(std::make_unique<Shard>());
  return shards_.back().get();
}

MetricsRegistry::Shard* MetricsRegistry::LocalShard() const {
  TlsShardCache& tls = g_tls_shards;
  if (tls.reg_id == id_) {
    return static_cast<Shard*>(tls.shard);
  }
  void*& slot = tls.fallback[id_];
  if (slot == nullptr) {
    slot = RegisterShard();
  }
  tls.reg_id = id_;
  tls.shard = slot;
  return static_cast<Shard*>(slot);
}

MetricId MetricsRegistry::Register(std::string_view name, MetricKind kind,
                                   uint32_t cells) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    return it->second;  // same kind assumed; names are namespaced by caller
  }
  MetricId id;
  id.cell = next_cell_;
  id.kind = kind;
  next_cell_ += cells;
  by_name_.emplace(std::string(name), id);
  metrics_.push_back(Metric{std::string(name), id});
  return id;
}

MetricId MetricsRegistry::Counter(std::string_view name) {
  return Register(name, MetricKind::kCounter, 1);
}

MetricId MetricsRegistry::Gauge(std::string_view name) {
  return Register(name, MetricKind::kGauge, 1);
}

MetricId MetricsRegistry::Histogram(std::string_view name) {
  return Register(name, MetricKind::kHistogram, kHistogramBuckets + 1);
}

void MetricsRegistry::Set(MetricId id, int64_t value) {
  std::lock_guard<std::mutex> lk(mu_);
  gauge_base_[id.cell] = value - SumCell(id.cell);
}

void MetricsRegistry::Observe(MetricId id, uint64_t value) {
  // Bucket 0 <- 0; bucket b <- [2^(b-1), 2^b - 1], i.e. the value's bit
  // width, clamped to the last bucket.
  uint32_t bucket = value == 0 ? 0 : static_cast<uint32_t>(std::bit_width(value));
  if (bucket >= kHistogramBuckets) {
    bucket = kHistogramBuckets - 1;
  }
  Shard* shard = LocalShard();
  shard->Cell(id.cell + bucket)->fetch_add(1, std::memory_order_relaxed);
  shard->Cell(id.cell + kHistogramBuckets)
      ->fetch_add(static_cast<int64_t>(value), std::memory_order_relaxed);
}

int64_t MetricsRegistry::SumCell(uint32_t cell) const {
  int64_t total = 0;
  const uint32_t chunk = cell / kCellsPerChunk;
  const uint32_t offset = cell % kCellsPerChunk;
  for (const auto& shard : shards_) {
    std::atomic<int64_t>* base = shard->chunks[chunk].load(std::memory_order_acquire);
    if (base != nullptr) {
      total += base[offset].load(std::memory_order_relaxed);
    }
  }
  return total;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  MetricsSnapshot snap;
  for (const Metric& m : metrics_) {
    switch (m.id.kind) {
      case MetricKind::kCounter:
        snap.counters[m.name] = SumCell(m.id.cell);
        break;
      case MetricKind::kGauge: {
        const auto base = gauge_base_.find(m.id.cell);
        snap.gauges[m.name] =
            SumCell(m.id.cell) + (base == gauge_base_.end() ? 0 : base->second);
        break;
      }
      case MetricKind::kHistogram: {
        HistogramSnapshot h;
        for (uint32_t b = 0; b < kHistogramBuckets; ++b) {
          int64_t c = SumCell(m.id.cell + b);
          if (c > 0) {
            uint64_t upper = b == 0 ? 0 : (uint64_t{1} << b) - 1;
            h.buckets.emplace_back(upper, static_cast<uint64_t>(c));
            h.count += static_cast<uint64_t>(c);
          }
        }
        h.sum = SumCell(m.id.cell + kHistogramBuckets);
        snap.histograms[m.name] = std::move(h);
        break;
      }
    }
  }
  return snap;
}

size_t MetricsRegistry::ShardCount() const {
  std::lock_guard<std::mutex> lk(mu_);
  return shards_.size();
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  char buf[128];
  bool first = true;
  for (const auto& [name, v] : counters) {
    std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": %lld", first ? "" : ",",
                  name.c_str(), static_cast<long long>(v));
    out += buf;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": %lld", first ? "" : ",",
                  name.c_str(), static_cast<long long>(v));
    out += buf;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n    \"%s\": {\"count\": %llu, \"sum\": %lld, \"buckets\": [",
                  first ? "" : ",", name.c_str(),
                  static_cast<unsigned long long>(h.count),
                  static_cast<long long>(h.sum));
    out += buf;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s{\"le\": %llu, \"count\": %llu}",
                    i == 0 ? "" : ", ",
                    static_cast<unsigned long long>(h.buckets[i].first),
                    static_cast<unsigned long long>(h.buckets[i].second));
      out += buf;
    }
    out += "]}";
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace artc::obs
