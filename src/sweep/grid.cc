#include "src/sweep/grid.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/storage/storage_stack.h"
#include "src/util/check.h"
#include "src/util/strings.h"
#include "src/vfs/vfs.h"

namespace artc::sweep {
namespace {

// Vocabularies of the axes whose layers have no lookup of their own. Storage
// configs and fs profiles are checked against their layers' name tables.
const char* const kMethods[] = {"artc", "single", "temporal", "unconstrained"};
const char* const kIoScheds[] = {"base", "noop", "cfq-1ms", "cfq-100ms"};
const char* const kPacings[] = {"afap", "natural"};

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) {
      comma = s.size();
    }
    std::string item = Trim(s.substr(pos, comma - pos));
    if (!item.empty()) {
      out.push_back(item);
    }
    pos = comma + 1;
  }
  return out;
}

bool ParseInt64(const std::string& s, int64_t* out) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  *out = std::strtoll(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

bool ParseUint64(const std::string& s, uint64_t* out) {
  if (s.empty() || s[0] == '-') {
    return false;
  }
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

std::string CellConfig::Echo() const {
  return StrFormat(
      "trace=%s,method=%s,fs=%s,storage=%s,iosched=%s,cache_mb=%lld,"
      "schedule=%s,seed=%llu,backend=%s,pacing=%s",
      trace_name.c_str(), method.c_str(), fs.c_str(), storage.c_str(),
      iosched.c_str(), static_cast<long long>(cache_mb), schedule.c_str(),
      static_cast<unsigned long long>(seed), backend.c_str(), pacing.c_str());
}

std::string CellConfig::Id() const {
  return StrFormat("%016llx",
                   static_cast<unsigned long long>(Fnv1a64(Echo())));
}

core::SimTarget CellConfig::MakeTarget() const {
  core::SimTarget t;
  t.storage = storage::MakeNamedConfig(storage);
  if (iosched == "noop") {
    t.storage.scheduler = storage::SchedulerKind::kNoop;
  } else if (iosched == "cfq-1ms") {
    t.storage.scheduler = storage::SchedulerKind::kCfq;
    t.storage.cfq.slice_sync = Ms(1);
  } else if (iosched == "cfq-100ms") {
    t.storage.scheduler = storage::SchedulerKind::kCfq;
    t.storage.cfq.slice_sync = Ms(100);
  }
  if (cache_mb >= 0) {
    // 4096-byte blocks: 1 MB = 256 blocks.
    t.storage.cache.capacity_blocks = static_cast<uint64_t>(cache_mb) * 256;
  }
  t.fs_profile = fs;
  t.seed = seed;
  sim::ScheduleSpec spec;
  ARTC_CHECK_MSG(sim::ParseScheduleSpec(schedule, &spec),
                 "unvalidated schedule '%s'", schedule.c_str());
  t.schedule = spec;
  sim::SimBackend be;
  ARTC_CHECK_MSG(sim::ParseSimBackendName(backend, &be),
                 "unvalidated backend '%s'", backend.c_str());
  t.sim_backend = be;
  t.replay.pacing =
      pacing == "natural" ? core::PacingMode::kNatural : core::PacingMode::kAfap;
  return t;
}

core::CompileOptions CellConfig::MakeCompileOptions() const {
  core::CompileOptions copt;
  copt.method = core::ReplayMethodFromName(method);
  return copt;
}

void SweepGrid::Normalize() {
  const CellConfig d;
  if (method.empty()) method = {d.method};
  if (fs.empty()) fs = {d.fs};
  if (storage.empty()) storage = {d.storage};
  if (iosched.empty()) iosched = {d.iosched};
  if (cache_mb.empty()) cache_mb = {d.cache_mb};
  if (schedule.empty()) schedule = {d.schedule};
  if (seed.empty()) seed = {d.seed};
  if (backend.empty()) backend = {d.backend};
  if (pacing.empty()) pacing = {d.pacing};
}

bool SweepGrid::Validate(std::string* error) const {
  auto fail = [error](std::string msg) {
    if (error != nullptr) {
      *error = std::move(msg);
    }
    return false;
  };
  for (const std::string& v : method) {
    if (!IsOneOf(v, kMethods)) {
      return fail(StrFormat("unknown method '%s' (expected %s)", v.c_str(),
                            JoinNames(kMethods).c_str()));
    }
  }
  for (const std::string& v : fs) {
    if (!vfs::FindFsProfile(v)) {
      return fail(StrFormat("unknown fs '%s' (expected %s)", v.c_str(),
                            JoinNames(vfs::kFsProfileNames).c_str()));
    }
  }
  for (const std::string& v : storage) {
    if (!storage::FindNamedConfig(v)) {
      return fail(StrFormat("unknown storage '%s' (expected %s)", v.c_str(),
                            JoinNames(storage::kNamedConfigNames).c_str()));
    }
  }
  for (const std::string& v : iosched) {
    if (!IsOneOf(v, kIoScheds)) {
      return fail(StrFormat("unknown iosched '%s' (expected %s)", v.c_str(),
                            JoinNames(kIoScheds).c_str()));
    }
  }
  for (int64_t v : cache_mb) {
    if (v < -1 || v == 0) {
      return fail(StrFormat(
          "bad cache_mb %lld (expected -1 for the config default, or > 0)",
          static_cast<long long>(v)));
    }
  }
  for (const std::string& v : schedule) {
    sim::ScheduleSpec spec;
    if (!sim::ParseScheduleSpec(v, &spec)) {
      return fail(StrFormat(
          "bad schedule '%s' (expected default, random:<seed>, or "
          "pct:<seed>[/<points>])",
          v.c_str()));
    }
  }
  for (const std::string& v : backend) {
    sim::SimBackend be;
    if (!sim::ParseSimBackendName(v, &be)) {
      return fail(StrFormat(
          "unknown backend '%s' (expected fibers or parallel)",
          v.c_str()));
    }
  }
  for (const std::string& v : pacing) {
    if (!IsOneOf(v, kPacings)) {
      return fail(StrFormat("unknown pacing '%s' (expected %s)", v.c_str(),
                            JoinNames(kPacings).c_str()));
    }
  }
  return true;
}

size_t SweepGrid::CellCount() const {
  return method.size() * fs.size() * storage.size() * iosched.size() *
         cache_mb.size() * schedule.size() * seed.size() * backend.size() *
         pacing.size();
}

bool SweepGrid::Expand(const std::string& trace_name,
                       std::vector<CellConfig>* out, std::string* error) {
  out->clear();
  Normalize();
  if (!Validate(error)) {
    return false;
  }
  out->reserve(CellCount());
  for (const std::string& m : method) {
    for (const std::string& f : fs) {
      for (const std::string& st : storage) {
        for (const std::string& io : iosched) {
          for (int64_t cm : cache_mb) {
            for (const std::string& sch : schedule) {
              for (uint64_t sd : seed) {
                for (const std::string& be : backend) {
                  for (const std::string& pc : pacing) {
                    CellConfig c;
                    c.trace_name = trace_name;
                    c.method = m;
                    c.fs = f;
                    c.storage = st;
                    c.iosched = io;
                    c.cache_mb = cm;
                    c.schedule = sch;
                    c.seed = sd;
                    c.backend = be;
                    c.pacing = pc;
                    out->push_back(std::move(c));
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return true;
}

bool ParseGridText(const std::string& text, SweepGrid* out,
                   std::string* error) {
  auto fail = [error](std::string msg) {
    if (error != nullptr) {
      *error = std::move(msg);
    }
    return false;
  };
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    std::string line = raw;
    size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = Trim(line);
    if (line.empty()) {
      continue;
    }
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return fail(StrFormat("grid line %d: expected 'axis = v1, v2, ...'",
                            lineno));
    }
    const std::string key = Trim(line.substr(0, eq));
    std::vector<std::string> values = SplitCsv(line.substr(eq + 1));
    if (values.empty()) {
      return fail(StrFormat("grid line %d: axis '%s' has no values", lineno,
                            key.c_str()));
    }
    if (key == "method") {
      out->method = values;
    } else if (key == "fs") {
      out->fs = values;
    } else if (key == "storage") {
      out->storage = values;
    } else if (key == "iosched") {
      out->iosched = values;
    } else if (key == "cache_mb") {
      out->cache_mb.clear();
      for (const std::string& v : values) {
        int64_t n = 0;
        if (!ParseInt64(v, &n)) {
          return fail(StrFormat("grid line %d: bad cache_mb value '%s'",
                                lineno, v.c_str()));
        }
        out->cache_mb.push_back(n);
      }
    } else if (key == "schedule") {
      out->schedule = values;
    } else if (key == "seed") {
      out->seed.clear();
      for (const std::string& v : values) {
        uint64_t n = 0;
        if (!ParseUint64(v, &n)) {
          return fail(StrFormat("grid line %d: bad seed value '%s'", lineno,
                                v.c_str()));
        }
        out->seed.push_back(n);
      }
    } else if (key == "backend") {
      out->backend = values;
    } else if (key == "pacing") {
      out->pacing = values;
    } else {
      return fail(StrFormat("grid line %d: unknown axis '%s'", lineno,
                            key.c_str()));
    }
  }
  return true;
}

bool ParseGridFile(const std::string& path, SweepGrid* out,
                   std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    if (error != nullptr) {
      *error = StrFormat("cannot read grid file '%s'", path.c_str());
    }
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseGridText(buf.str(), out, error);
}

const std::vector<std::string>& GridAxisNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "method",   "fs",   "storage", "iosched", "cache_mb",
      "schedule", "seed", "backend", "pacing"};
  return *names;
}

std::string CellAxisValue(const CellConfig& cell, const std::string& axis) {
  if (axis == "method") return cell.method;
  if (axis == "fs") return cell.fs;
  if (axis == "storage") return cell.storage;
  if (axis == "iosched") return cell.iosched;
  if (axis == "cache_mb") {
    return StrFormat("%lld", static_cast<long long>(cell.cache_mb));
  }
  if (axis == "schedule") return cell.schedule;
  if (axis == "seed") {
    return StrFormat("%llu", static_cast<unsigned long long>(cell.seed));
  }
  if (axis == "backend") return cell.backend;
  if (axis == "pacing") return cell.pacing;
  ARTC_CHECK_MSG(false, "unknown grid axis '%s'", axis.c_str());
  return "";
}

}  // namespace artc::sweep
