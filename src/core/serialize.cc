#include "src/core/serialize.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "src/util/check.h"

namespace artc::core {
namespace {

constexpr char kMagic[8] = {'A', 'R', 'T', 'C', 'B', '0', '0', '6'};

// Minimal length-prefixed binary writer/reader. All integers little-endian
// native (the file is a local build artifact, not an interchange format).
class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}
  void Bytes(const void* p, size_t n) { out_.write(static_cast<const char*>(p),
                                                   static_cast<std::streamsize>(n)); }
  template <typename T>
  void Pod(T v) {
    Bytes(&v, sizeof(T));
  }
  void Str(const std::string& s) {
    Pod<uint32_t>(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

 private:
  std::ostream& out_;
};

class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}
  void Bytes(void* p, size_t n) {
    in_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    ARTC_CHECK_MSG(in_.good(), "truncated benchmark file");
  }
  template <typename T>
  T Pod() {
    T v;
    Bytes(&v, sizeof(T));
    return v;
  }
  std::string Str() {
    uint32_t n = Pod<uint32_t>();
    ARTC_CHECK_MSG(n < (64u << 20), "implausible string length in benchmark file");
    std::string s(n, '\0');
    if (n > 0) {
      Bytes(s.data(), n);
    }
    return s;
  }

 private:
  std::istream& in_;
};

void WriteEvent(Writer& w, const trace::TraceEvent& ev) {
  w.Pod<uint64_t>(ev.index);
  w.Pod<uint32_t>(ev.tid);
  w.Pod<uint16_t>(static_cast<uint16_t>(ev.call));
  w.Pod<int64_t>(ev.enter);
  w.Pod<int64_t>(ev.ret_time);
  w.Pod<int64_t>(ev.ret);
  w.Str(ev.path);
  w.Str(ev.path2);
  w.Pod<int32_t>(ev.fd);
  w.Pod<int32_t>(ev.fd2);
  w.Pod<int64_t>(ev.offset);
  w.Pod<uint64_t>(ev.size);
  w.Pod<uint32_t>(ev.flags);
  w.Pod<uint32_t>(ev.mode);
  w.Pod<int32_t>(ev.whence);
  w.Str(ev.name);
  w.Pod<uint64_t>(ev.aio_id);
  w.Pod<uint64_t>(ev.sync_id);
}

trace::TraceEvent ReadEvent(Reader& r) {
  trace::TraceEvent ev;
  ev.index = r.Pod<uint64_t>();
  ev.tid = r.Pod<uint32_t>();
  uint16_t call = r.Pod<uint16_t>();
  ARTC_CHECK_MSG(call < trace::kSysCount, "bad call id in benchmark file");
  ev.call = static_cast<trace::Sys>(call);
  ev.enter = r.Pod<int64_t>();
  ev.ret_time = r.Pod<int64_t>();
  ev.ret = r.Pod<int64_t>();
  ev.path = r.Str();
  ev.path2 = r.Str();
  ev.fd = r.Pod<int32_t>();
  ev.fd2 = r.Pod<int32_t>();
  ev.offset = r.Pod<int64_t>();
  ev.size = r.Pod<uint64_t>();
  ev.flags = r.Pod<uint32_t>();
  ev.mode = r.Pod<uint32_t>();
  ev.whence = r.Pod<int32_t>();
  ev.name = r.Str();
  ev.aio_id = r.Pod<uint64_t>();
  ev.sync_id = r.Pod<uint64_t>();
  return ev;
}

}  // namespace

void WriteBenchmark(const CompiledBenchmark& bench, std::ostream& out) {
  Writer w(out);
  w.Bytes(kMagic, sizeof(kMagic));
  w.Pod<uint8_t>(static_cast<uint8_t>(bench.method));
  w.Pod<uint8_t>(bench.modes.file_seq);
  w.Pod<uint8_t>(bench.modes.path_stage_name);
  w.Pod<uint8_t>(bench.modes.fd_stage);
  w.Pod<uint8_t>(bench.modes.fd_seq);
  w.Pod<uint8_t>(bench.modes.aio_stage);
  w.Pod<uint8_t>(bench.modes.sync_rules);
  w.Pod<uint32_t>(bench.fd_slot_count);
  w.Pod<uint32_t>(bench.aio_slot_count);
  w.Pod<uint64_t>(bench.model_warnings);

  w.Pod<uint64_t>(bench.actions.size());
  for (size_t i = 0; i < bench.actions.size(); ++i) {
    const CompiledAction& a = bench.actions[i];
    WriteEvent(w, bench.events[i]);
    w.Pod<uint32_t>(a.thread_index);
    w.Pod<int32_t>(a.fd_use_slot);
    w.Pod<int32_t>(a.fd_def_slot);
    w.Pod<int32_t>(a.aio_use_slot);
    w.Pod<int32_t>(a.aio_def_slot);
    w.Pod<int64_t>(a.predelay);
  }

  // Dependency CSR: offsets then the arena.
  w.Pod<uint64_t>(bench.dep_arena.size());
  for (size_t i = 0; i < bench.actions.size(); ++i) {
    w.Pod<uint32_t>(bench.dep_offsets[i + 1]);
  }
  for (const Dep& d : bench.dep_arena) {
    w.Pod<uint32_t>(d.event);
    w.Pod<uint8_t>(static_cast<uint8_t>(d.kind));
    w.Pod<uint8_t>(static_cast<uint8_t>(d.rule));
    w.Pod<uint32_t>(d.res);
  }
  w.Pod<uint32_t>(static_cast<uint32_t>(bench.dep_resource_names.size()));
  for (const std::string& name : bench.dep_resource_names) {
    w.Str(name);
  }

  w.Pod<uint32_t>(static_cast<uint32_t>(bench.thread_ids.size()));
  for (uint32_t tid : bench.thread_ids) {
    w.Pod<uint32_t>(tid);
  }

  w.Pod<uint32_t>(static_cast<uint32_t>(bench.snapshot.entries.size()));
  for (const trace::SnapshotEntry& e : bench.snapshot.entries) {
    w.Pod<uint8_t>(static_cast<uint8_t>(e.type));
    w.Str(e.path);
    w.Pod<uint64_t>(e.size);
    w.Str(e.symlink_target);
    w.Str(e.special_kind);
    w.Pod<uint32_t>(static_cast<uint32_t>(e.xattr_names.size()));
    for (const std::string& x : e.xattr_names) {
      w.Str(x);
    }
  }

  for (size_t i = 0; i < bench.edge_stats.count_by_rule.size(); ++i) {
    w.Pod<uint64_t>(bench.edge_stats.count_by_rule[i]);
    w.Pod<double>(bench.edge_stats.total_length_ns[i]);
    w.Pod<uint64_t>(bench.edge_stats.pruned_by_rule[i]);
  }
}

CompiledBenchmark ReadBenchmark(std::istream& in) {
  Reader r(in);
  char magic[8];
  r.Bytes(magic, sizeof(magic));
  ARTC_CHECK_MSG(std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
                 "not an ARTC benchmark file (bad magic)");
  CompiledBenchmark bench;
  bench.method = static_cast<ReplayMethod>(r.Pod<uint8_t>());
  bench.modes.file_seq = r.Pod<uint8_t>() != 0;
  bench.modes.path_stage_name = r.Pod<uint8_t>() != 0;
  bench.modes.fd_stage = r.Pod<uint8_t>() != 0;
  bench.modes.fd_seq = r.Pod<uint8_t>() != 0;
  bench.modes.aio_stage = r.Pod<uint8_t>() != 0;
  bench.modes.sync_rules = r.Pod<uint8_t>() != 0;
  bench.fd_slot_count = r.Pod<uint32_t>();
  bench.aio_slot_count = r.Pod<uint32_t>();
  bench.model_warnings = r.Pod<uint64_t>();

  uint64_t n_actions = r.Pod<uint64_t>();
  ARTC_CHECK_MSG(n_actions < (1ULL << 32), "implausible action count");
  bench.actions.reserve(n_actions);
  bench.events.reserve(n_actions);
  for (uint64_t i = 0; i < n_actions; ++i) {
    bench.events.push_back(ReadEvent(r));
    CompiledAction a;
    a.thread_index = r.Pod<uint32_t>();
    a.fd_use_slot = r.Pod<int32_t>();
    a.fd_def_slot = r.Pod<int32_t>();
    a.aio_use_slot = r.Pod<int32_t>();
    a.aio_def_slot = r.Pod<int32_t>();
    a.predelay = r.Pod<int64_t>();
    bench.actions.push_back(a);
  }

  uint64_t n_deps = r.Pod<uint64_t>();
  ARTC_CHECK_MSG(n_deps < (1ULL << 32), "implausible dep count");
  bench.dep_offsets.assign(n_actions + 1, 0);
  for (uint64_t i = 0; i < n_actions; ++i) {
    uint32_t off = r.Pod<uint32_t>();
    ARTC_CHECK(off >= bench.dep_offsets[i] && off <= n_deps);
    bench.dep_offsets[i + 1] = off;
  }
  ARTC_CHECK(bench.dep_offsets[n_actions] == n_deps);
  bench.dep_arena.reserve(n_deps);
  for (uint64_t d = 0; d < n_deps; ++d) {
    Dep dep;
    dep.event = r.Pod<uint32_t>();
    dep.kind = static_cast<DepKind>(r.Pod<uint8_t>());
    dep.rule = static_cast<RuleTag>(r.Pod<uint8_t>());
    dep.res = r.Pod<uint32_t>();
    bench.dep_arena.push_back(dep);
  }
  // Every dep must point backward from its owning action.
  for (uint64_t i = 0; i < n_actions; ++i) {
    for (const Dep& dep : bench.DepsFor(static_cast<uint32_t>(i))) {
      ARTC_CHECK(dep.event < i);
    }
  }
  uint32_t n_res_names = r.Pod<uint32_t>();
  ARTC_CHECK_MSG(n_res_names < (1u << 28), "implausible resource-name count");
  bench.dep_resource_names.reserve(n_res_names);
  for (uint32_t i = 0; i < n_res_names; ++i) {
    bench.dep_resource_names.push_back(r.Str());
  }

  uint32_t n_threads = r.Pod<uint32_t>();
  bench.thread_ids.reserve(n_threads);
  bench.thread_actions.resize(n_threads);
  for (uint32_t i = 0; i < n_threads; ++i) {
    bench.thread_ids.push_back(r.Pod<uint32_t>());
  }
  for (uint32_t i = 0; i < n_actions; ++i) {
    ARTC_CHECK(bench.actions[i].thread_index < n_threads);
    bench.thread_actions[bench.actions[i].thread_index].push_back(i);
  }

  uint32_t n_entries = r.Pod<uint32_t>();
  bench.snapshot.entries.reserve(n_entries);
  for (uint32_t i = 0; i < n_entries; ++i) {
    trace::SnapshotEntry e;
    e.type = static_cast<trace::SnapshotEntryType>(r.Pod<uint8_t>());
    e.path = r.Str();
    e.size = r.Pod<uint64_t>();
    e.symlink_target = r.Str();
    e.special_kind = r.Str();
    uint32_t nx = r.Pod<uint32_t>();
    for (uint32_t x = 0; x < nx; ++x) {
      e.xattr_names.push_back(r.Str());
    }
    bench.snapshot.entries.push_back(std::move(e));
  }

  for (size_t i = 0; i < bench.edge_stats.count_by_rule.size(); ++i) {
    bench.edge_stats.count_by_rule[i] = r.Pod<uint64_t>();
    bench.edge_stats.total_length_ns[i] = r.Pod<double>();
    bench.edge_stats.pruned_by_rule[i] = r.Pod<uint64_t>();
  }
  return bench;
}

void WriteBenchmarkFile(const CompiledBenchmark& bench, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  ARTC_CHECK_MSG(out.good(), "cannot write benchmark file %s", path.c_str());
  WriteBenchmark(bench, out);
}

CompiledBenchmark ReadBenchmarkFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ARTC_CHECK_MSG(in.good(), "cannot read benchmark file %s", path.c_str());
  return ReadBenchmark(in);
}

}  // namespace artc::core
