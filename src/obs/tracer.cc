#include "src/obs/tracer.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "src/util/strings.h"

namespace artc::obs {
namespace {

std::atomic<uint64_t> g_next_tracer_id{1};

struct TlsRingCache {
  uint64_t tracer_id = 0;
  void* ring = nullptr;
  std::unordered_map<uint64_t, void*> fallback;
};
thread_local TlsRingCache g_tls_rings;

bool IsPowerOfTwo(size_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

Tracer::Tracer(size_t ring_capacity)
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(IsPowerOfTwo(ring_capacity) ? ring_capacity : size_t{1} << 16),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

int64_t Tracer::HostNowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Ring* Tracer::RegisterRing() {
  std::lock_guard<std::mutex> lk(mu_);
  rings_.push_back(std::make_unique<Ring>(capacity_));
  rings_.back()->track = static_cast<uint32_t>(rings_.size() - 1);
  return rings_.back().get();
}

Tracer::Ring* Tracer::LocalRing() {
  TlsRingCache& tls = g_tls_rings;
  if (tls.tracer_id == id_) {
    return static_cast<Ring*>(tls.ring);
  }
  void*& slot = tls.fallback[id_];
  if (slot == nullptr) {
    slot = RegisterRing();
  }
  tls.tracer_id = id_;
  tls.ring = slot;
  return static_cast<Ring*>(slot);
}

uint32_t Tracer::CurrentHostTrack() { return LocalRing()->track; }

void Tracer::Emit(const TraceRecord& rec) {
  Ring* r = LocalRing();
  r->buf[r->head & (capacity_ - 1)] = rec;
  r->head++;
}

void Tracer::CompleteSpan(ClockDomain clock, uint32_t track, const char* cat,
                          const char* name, int64_t ts_ns, int64_t dur_ns,
                          const char* arg_name, int64_t arg_value) {
  TraceRecord rec;
  rec.name = name;
  rec.cat = cat;
  rec.ts_ns = ts_ns;
  rec.dur_ns = dur_ns;
  rec.track = track;
  rec.clock = clock;
  rec.phase = 'X';
  rec.arg_name = arg_name;
  rec.arg_value = arg_value;
  Emit(rec);
}

void Tracer::Instant(ClockDomain clock, uint32_t track, const char* cat,
                     const char* name, int64_t ts_ns) {
  TraceRecord rec;
  rec.name = name;
  rec.cat = cat;
  rec.ts_ns = ts_ns;
  rec.track = track;
  rec.clock = clock;
  rec.phase = 'i';
  Emit(rec);
}

void Tracer::FlowStart(ClockDomain clock, uint32_t track, const char* cat,
                       const char* name, int64_t ts_ns, uint64_t flow_id) {
  TraceRecord rec;
  rec.name = name;
  rec.cat = cat;
  rec.ts_ns = ts_ns;
  rec.track = track;
  rec.clock = clock;
  rec.phase = 's';
  rec.flow_id = flow_id;
  Emit(rec);
}

void Tracer::FlowEnd(ClockDomain clock, uint32_t track, const char* cat,
                     const char* name, int64_t ts_ns, uint64_t flow_id) {
  TraceRecord rec;
  rec.name = name;
  rec.cat = cat;
  rec.ts_ns = ts_ns;
  rec.track = track;
  rec.clock = clock;
  rec.phase = 'f';
  rec.flow_id = flow_id;
  Emit(rec);
}

void Tracer::SetTrackName(ClockDomain clock, uint32_t track,
                          const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  track_names_[{static_cast<uint8_t>(clock), track}] = name;
}

std::vector<TraceRecord> Tracer::Records() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TraceRecord> out;
  for (const auto& ring : rings_) {
    const uint64_t n = std::min<uint64_t>(ring->head, capacity_);
    const uint64_t first = ring->head - n;
    for (uint64_t i = first; i < ring->head; ++i) {
      out.push_back(ring->buf[i & (capacity_ - 1)]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     if (a.clock != b.clock) {
                       return a.clock < b.clock;
                     }
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

uint64_t Tracer::dropped_records() const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t dropped = 0;
  for (const auto& ring : rings_) {
    if (ring->head > capacity_) {
      dropped += ring->head - capacity_;
    }
  }
  return dropped;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& ring : rings_) {
    ring->head = 0;
  }
}

std::string Tracer::ToChromeJson() const {
  std::vector<TraceRecord> records = Records();
  std::string out = "{\"traceEvents\":[\n";
  char buf[256];
  bool first = true;
  // Process metadata: one "process" per clock domain.
  for (int pid = 0; pid < 2; ++pid) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",\n", pid, pid == 0 ? "host" : "virtual");
    out += buf;
    first = false;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [key, name] : track_names_) {
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                    "\"tid\":%u,\"args\":{\"name\":\"",
                    static_cast<unsigned>(key.first),
                    static_cast<unsigned>(key.second));
      out += buf;
      AppendJsonEscaped(&out, name);
      out += "\"}}";
    }
  }
  for (const TraceRecord& r : records) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                  "\"ts\":%.3f,\"pid\":%u,\"tid\":%u",
                  r.name != nullptr ? r.name : "?",
                  r.cat != nullptr ? r.cat : "?", r.phase,
                  static_cast<double>(r.ts_ns) / 1000.0,
                  static_cast<unsigned>(r.clock), r.track);
    out += buf;
    if (r.phase == 'X') {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                    static_cast<double>(r.dur_ns) / 1000.0);
      out += buf;
    }
    if (r.phase == 's' || r.phase == 'f') {
      std::snprintf(buf, sizeof(buf), ",\"id\":\"0x%llx\"",
                    static_cast<unsigned long long>(r.flow_id));
      out += buf;
      if (r.phase == 'f') {
        out += ",\"bp\":\"e\"";  // bind to the enclosing slice
      }
    }
    if (r.phase == 'i') {
      out += ",\"s\":\"t\"";  // thread-scoped instant
    }
    if (r.arg_name != nullptr) {
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"%s\":%lld}", r.arg_name,
                    static_cast<long long>(r.arg_value));
      out += buf;
    }
    out += "}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = ToChromeJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace artc::obs
