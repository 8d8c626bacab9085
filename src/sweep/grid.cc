#include "src/sweep/grid.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "src/sweep/workload_table.h"
#include "src/util/check.h"
#include "src/util/strings.h"
#include "src/vfs/vfs.h"

namespace artc::sweep {
namespace {

const char* const kPacings[] = {"afap", "natural"};
constexpr uint64_t kMaxCfqSliceMs = 1000;

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

// The trimmed, non-empty fields of `s`.
std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  for (std::string_view field : SplitString(s, sep)) {
    if (std::string item = Trim(std::string(field)); !item.empty()) {
      out.push_back(std::move(item));
    }
  }
  return out;
}

// A plain decimal that fills `s` and fits T.
template <typename T>
bool ParseNumber(const std::string& s, T* out) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return !s.empty() && ec == std::errc() && ptr == end;
}

bool Fail(std::string* error, std::string msg) {
  if (error != nullptr) {
    *error = std::move(msg);
  }
  return false;
}

// N for "cfq-<N>ms" with 1 <= N <= kMaxCfqSliceMs and no leading zero;
// 0 for anything else.
uint64_t CfqSliceMs(const std::string& v) {
  uint64_t ms = 0;
  const bool ok = v.size() > 6 && StartsWith(v, "cfq-") && EndsWith(v, "ms") &&
                  v[4] != '0' && ParseNumber(v.substr(4, v.size() - 6), &ms);
  return ok && ms <= kMaxCfqSliceMs ? ms : 0;
}

}  // namespace

namespace {

// Reads a `source` value into the stack fields of *stack.
bool ParseSource(const std::string& text, CellConfig* stack, std::string* error) {
  const std::vector<std::string> parts = Split(text, ':');
  std::string why = "empty";
  bool ok = !parts.empty() && SetCellAxis(stack, "storage", parts[0], &why);
  for (size_t i = 1; ok && i < parts.size(); ++i) {
    const size_t eq = parts[i].find('=');
    const std::string key = parts[i].substr(0, eq);
    ok = (key == "fs" || key == "iosched" || key == "cache_mb")
             ? SetCellAxis(stack, key, eq == std::string::npos ? "" : parts[i].substr(eq + 1),
                           &why)
             : Fail(&why, "unknown override '" + parts[i] + "'");
  }
  return ok || Fail(error, StrFormat("bad source '%s': %s (expected "
                                     "storage[:fs=F][:iosched=S][:cache_mb=N])",
                                     text.c_str(), why.c_str()));
}

}  // namespace

std::string CellConfig::StackName() const {
  const CellConfig d;
  std::string out = storage;
  for (const char* axis : {"fs", "iosched", "cache_mb"}) {
    const std::string value = CellAxisValue(*this, axis);
    if (value != CellAxisValue(d, axis)) {
      out += StrFormat(":%s=%s", axis, value.c_str());
    }
  }
  return out;
}

CellConfig CellConfig::SourceStack() const {
  CellConfig stack;
  ARTC_CHECK_MSG(ParseSource(source, &stack, nullptr), "unvalidated source '%s'",
                 source.c_str());
  stack.seed = seed;
  return stack;
}

workloads::SourceConfig CellConfig::MakeSourceConfig() const {
  workloads::SourceConfig config;
  config.storage = storage::MakeNamedConfig(storage);
  if (iosched == "noop") {
    config.storage.scheduler = storage::SchedulerKind::kNoop;
  } else if (const uint64_t ms = CfqSliceMs(iosched)) {
    config.storage.scheduler = storage::SchedulerKind::kCfq;
    config.storage.cfq.slice_sync = Ms(static_cast<int64_t>(ms));
  }
  if (cache_mb >= 0) {
    // 4096-byte blocks: 1 MB = 256 blocks.
    config.storage.cache.capacity_blocks = static_cast<uint64_t>(cache_mb) * 256;
  }
  config.fs_profile = fs;
  config.seed = seed;
  return config;
}

std::string CellConfig::Echo() const {
  std::string out;
  for (const std::string& axis : GridAxisNames()) {
    out += (out.empty() ? "" : ",") + axis + "=" + CellAxisValue(*this, axis);
  }
  return out;
}

std::string CellConfig::Id() const {
  return StrFormat("%016llx",
                   static_cast<unsigned long long>(Fnv1a64(Echo())));
}

std::string CellConfig::TraceKey() const {
  return StrFormat("%s/%u/%s/%llu", workload.c_str(), threads, source.c_str(),
                   static_cast<unsigned long long>(seed));
}

std::string CellConfig::OriginalKey() const {
  return StrFormat("%s/%u/%s/%llu", workload.c_str(), threads, StackName().c_str(),
                   static_cast<unsigned long long>(seed));
}

core::SimTarget CellConfig::MakeTarget() const {
  core::SimTarget t;
  const workloads::SourceConfig stack = MakeSourceConfig();
  t.storage = stack.storage;
  t.fs_profile = fs;
  t.seed = seed;
  sim::ScheduleSpec spec;
  ARTC_CHECK_MSG(sim::ParseScheduleSpec(schedule, &spec),
                 "unvalidated schedule '%s'", schedule.c_str());
  t.schedule = spec;
  t.replay.pacing =
      pacing == "natural" ? core::PacingMode::kNatural : core::PacingMode::kAfap;
  return t;
}

namespace {

// The values a grid gives an axis: its own, or the single default.
std::vector<std::string> AxisValues(const SweepGrid& grid, const std::string& axis) {
  auto it = grid.axes.find(axis);
  if (it == grid.axes.end() || it->second.empty()) {
    return {CellAxisValue(CellConfig{}, axis)};
  }
  return it->second;
}

}  // namespace

size_t SweepGrid::CellCount() const {
  size_t count = 1;
  for (const std::string& axis : GridAxisNames()) {
    count *= AxisValues(*this, axis).size();
  }
  return count;
}

bool SweepGrid::Expand(std::vector<CellConfig>* out, std::string* error) const {
  out->clear();
  for (const auto& [axis, values] : axes) {
    if (std::find(GridAxisNames().begin(), GridAxisNames().end(), axis) ==
        GridAxisNames().end()) {
      return Fail(error, StrFormat("unknown axis '%s'", axis.c_str()));
    }
  }
  const std::vector<std::string>& names = GridAxisNames();
  std::vector<std::vector<std::string>> values;
  for (const std::string& axis : names) {
    values.push_back(AxisValues(*this, axis));
  }
  const size_t count = CellCount();
  out->reserve(count);
  for (size_t n = 0; n < count; ++n) {
    // Odometer over the axes, the last one turning fastest.
    CellConfig c;
    size_t rest = n;
    for (size_t a = names.size(); a-- > 0;) {
      if (!SetCellAxis(&c, names[a], values[a][rest % values[a].size()], error)) {
        out->clear();
        return false;
      }
      rest /= values[a].size();
    }
    const std::optional<NamedWorkload> w = NamedWorkload::Find(c.workload);
    if (c.threads != 0 && !w->TakesThreads()) {
      out->clear();
      return Fail(error, StrFormat("workload '%s' has no thread count, so threads "
                                   "must be 0 (random_readers, seq_readers, "
                                   "kv_fillsync and kv_readrandom take one)",
                                   c.workload.c_str()));
    }
    out->push_back(std::move(c));
  }
  return true;
}

bool ExpandGrids(std::vector<SweepGrid> grids, std::vector<CellConfig>* out,
                 std::string* error) {
  out->clear();
  std::set<std::string> seen;
  for (size_t g = 0; g < grids.size(); ++g) {
    std::vector<CellConfig> cells;
    std::string why;
    if (!grids[g].Expand(&cells, &why)) {
      out->clear();
      return Fail(error, grids.size() == 1
                             ? why
                             : StrFormat("cross product %zu: %s", g + 1, why.c_str()));
    }
    for (CellConfig& cell : cells) {
      if (!seen.insert(cell.Echo()).second) {
        out->clear();
        return Fail(error, StrFormat("cross product %zu repeats the cell %s",
                                     g + 1, cell.Echo().c_str()));
      }
      out->push_back(std::move(cell));
    }
  }
  return true;
}

bool ParseGridText(const std::string& text, std::vector<SweepGrid>* out,
                   std::string* error) {
  std::vector<SweepGrid> grids(1);
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = Trim(raw.substr(0, raw.find('#')));
    if (line.empty()) {
      continue;
    }
    if (line == "---") {
      grids.push_back(grids.back());
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Fail(error, StrFormat("grid line %d: expected 'axis = v1, v2, ...' "
                                   "or '---'",
                                   lineno));
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::vector<std::string> values = Split(line.substr(eq + 1), ',');
    if (values.empty()) {
      return Fail(error, StrFormat("grid line %d: axis '%s' has no values", lineno,
                                   key.c_str()));
    }
    CellConfig scratch;
    std::string why;
    for (const std::string& v : values) {
      if (!SetCellAxis(&scratch, key, v, &why)) {
        return Fail(error, StrFormat("grid line %d: %s", lineno, why.c_str()));
      }
    }
    grids.back().axes[key] = values;
  }
  *out = std::move(grids);
  return true;
}

bool ParseGridFile(const std::string& path, std::vector<SweepGrid>* out,
                   std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    return Fail(error, StrFormat("cannot read grid file '%s'", path.c_str()));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseGridText(buf.str(), out, error);
}

const std::vector<std::string>& GridAxisNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "workload", "threads", "source",   "method", "fs",    "storage",
      "iosched",  "cache_mb", "schedule", "seed",   "pacing"};
  return *names;
}

std::string CellAxisValue(const CellConfig& cell, const std::string& axis) {
  if (axis == "workload") return cell.workload;
  if (axis == "threads") return StrFormat("%u", cell.threads);
  if (axis == "source") return cell.source;
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
  if (axis == "pacing") return cell.pacing;
  ARTC_CHECK_MSG(false, "unknown grid axis '%s'", axis.c_str());
  return "";
}

bool SetCellAxis(CellConfig* cell, const std::string& axis,
                 const std::string& value, std::string* error) {
  auto bad_number = [&] {
    return Fail(error, StrFormat("bad %s value '%s'", axis.c_str(), value.c_str()));
  };
  if (axis == "workload") {
    cell->workload = value;
    return NamedWorkload::Find(value) ||
           Fail(error, StrFormat("unknown workload '%s' (expected %s)", value.c_str(),
                                 NamedWorkload::Names().c_str()));
  }
  if (axis == "threads") {
    if (!ParseNumber(value, &cell->threads)) {
      return bad_number();
    }
    return cell->threads <= kMaxWorkloadThreads ||
           Fail(error, StrFormat("bad threads %u (expected 0 for the workload's "
                                 "own count, or 1 to %u)",
                                 cell->threads, kMaxWorkloadThreads));
  }
  if (axis == "source") {
    CellConfig stack;
    if (!ParseSource(value, &stack, error)) {
      return false;
    }
    cell->source = stack.StackName();
    return true;
  }
  if (axis == "method") {
    cell->method = value;
    return core::FindReplayMethod(value) ||
           Fail(error, StrFormat("unknown method '%s' (expected %s)", value.c_str(),
                                 JoinNames(core::kReplayMethodNames).c_str()));
  }
  if (axis == "fs") {
    cell->fs = value;
    return vfs::FindFsProfile(value) ||
           Fail(error, StrFormat("unknown fs '%s' (expected %s)", value.c_str(),
                                 JoinNames(vfs::kFsProfileNames).c_str()));
  }
  if (axis == "storage") {
    cell->storage = value;
    return storage::FindNamedConfig(value) ||
           Fail(error, StrFormat("unknown storage '%s' (expected %s)", value.c_str(),
                                 JoinNames(storage::kNamedConfigNames).c_str()));
  }
  if (axis == "iosched") {
    cell->iosched = value;
    return value == "base" || value == "noop" || CfqSliceMs(value) > 0 ||
           Fail(error, StrFormat("unknown iosched '%s' (expected base, noop or "
                                 "cfq-<N>ms with N from 1 to %llu)",
                                 value.c_str(),
                                 static_cast<unsigned long long>(kMaxCfqSliceMs)));
  }
  if (axis == "cache_mb") {
    if (!ParseNumber(value, &cell->cache_mb)) {
      return bad_number();
    }
    return cell->cache_mb == -1 || cell->cache_mb > 0 ||
           Fail(error, StrFormat("bad cache_mb %lld (expected -1 for the config "
                                 "default, or > 0)",
                                 static_cast<long long>(cell->cache_mb)));
  }
  if (axis == "schedule") {
    sim::ScheduleSpec spec;
    cell->schedule = value;
    return sim::ParseScheduleSpec(value, &spec) ||
           Fail(error, StrFormat("bad schedule '%s' (expected default, "
                                 "random:<seed>, or pct:<seed>[/<points>])",
                                 value.c_str()));
  }
  if (axis == "seed") {
    return ParseNumber(value, &cell->seed) || bad_number();
  }
  if (axis == "pacing") {
    cell->pacing = value;
    return IsOneOf(value, kPacings) ||
           Fail(error, StrFormat("unknown pacing '%s' (expected %s)", value.c_str(),
                                 JoinNames(kPacings).c_str()));
  }
  return Fail(error, StrFormat("unknown axis '%s'", axis.c_str()));
}

}  // namespace artc::sweep
