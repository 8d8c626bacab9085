#include "src/core/compile_stream.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/core/dep_builder.h"
#include "src/obs/obs.h"
#include "src/util/check.h"

namespace artc::core {
namespace {

// Canonical FNV-1a over the compiled stream. Both pipelines fold the exact
// same byte sequence, so the digest compares them with one integer.
struct Fnv1a {
  uint64_t h = 1469598103934665603ull;

  void Bytes(const void* p, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void I64(int64_t v) { Bytes(&v, sizeof v); }
  void U32(uint32_t v) { Bytes(&v, sizeof v); }
  void I32(int32_t v) { Bytes(&v, sizeof v); }
  void U8(uint8_t v) { Bytes(&v, sizeof v); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
};

void DigestEvent(Fnv1a& f, const trace::TraceEvent& ev) {
  f.U64(ev.index);
  f.U32(ev.tid);
  f.U32(static_cast<uint32_t>(ev.call));
  f.I64(ev.enter);
  f.I64(ev.ret_time);
  f.I64(ev.ret);
  f.Str(ev.path);
  f.Str(ev.path2);
  f.I32(ev.fd);
  f.I32(ev.fd2);
  f.I64(ev.offset);
  f.U64(ev.size);
  f.U32(ev.flags);
  f.U32(ev.mode);
  f.I32(ev.whence);
  f.Str(ev.name);
  f.U64(ev.aio_id);
}

void DigestAction(Fnv1a& f, const CompiledAction& a, const Dep* deps,
                  size_t dep_count) {
  f.U32(a.thread_index);
  f.I32(a.fd_use_slot);
  f.I32(a.fd_def_slot);
  f.I32(a.aio_use_slot);
  f.I32(a.aio_def_slot);
  f.I64(a.predelay);
  f.U64(dep_count);
  for (size_t j = 0; j < dep_count; ++j) {
    f.U32(deps[j].event);
    f.U8(static_cast<uint8_t>(deps[j].kind));
    f.U8(static_cast<uint8_t>(deps[j].rule));
    f.U32(deps[j].res);
  }
}

// The benchmark-wide tables; `tables` need only hold those, not the
// per-event arrays.
void DigestTrailer(Fnv1a& f, uint64_t n, const CompiledBenchmark& tables) {
  f.U64(n);
  f.U64(tables.thread_ids.size());
  for (uint32_t tid : tables.thread_ids) {
    f.U32(tid);
  }
  f.U32(tables.fd_slot_count);
  f.U32(tables.aio_slot_count);
  for (uint64_t c : tables.edge_stats.count_by_rule) {
    f.U64(c);
  }
  for (double d : tables.edge_stats.total_length_ns) {
    f.F64(d);
  }
  for (uint64_t c : tables.edge_stats.pruned_by_rule) {
    f.U64(c);
  }
  f.U64(tables.model_warnings);
  f.U64(tables.dep_resource_names.size());
  for (const std::string& s : tables.dep_resource_names) {
    f.Str(s);
  }
}

}  // namespace

uint64_t DigestBenchmark(const CompiledBenchmark& bench) {
  Fnv1a f;
  for (uint32_t i = 0; i < bench.actions.size(); ++i) {
    DigestEvent(f, bench.events[i]);
    const DepSpan deps = bench.DepsFor(i);
    DigestAction(f, bench.actions[i], deps.first, deps.size());
  }
  DigestTrailer(f, bench.actions.size(), bench);
  return f.h;
}

bool StreamCompilable(ReplayMethod method) {
  return method != ReplayMethod::kTemporal;
}

struct CompileStream::Impl {
  Impl(const trace::FsSnapshot& snapshot, const CompileOptions& options)
      : annotator(snapshot, [] {
          fsmodel::AnnotateOptions a;
          a.materialize_labels = false;
          return a;
        }()),
        step(options, annotator.resources(), annotator.path_names().get(),
             &tables) {
    ARTC_CHECK_MSG(StreamCompilable(options.method),
                   "CompileStream cannot compile the temporal method");
  }

  fsmodel::Annotator annotator;
  CompiledBenchmark tables;  // the step's benchmark-wide tables only
  internal::CompileStep step;
  std::vector<fsmodel::Touch> touches;  // per-event scratch
  Fnv1a digest;
  bool finished = false;

  void Push(const trace::TraceEvent& ev) {
    ARTC_CHECK_MSG(!finished, "Push after Finish");
    ARTC_CHECK_MSG(ev.index == Events(),
                   "events must arrive dense and in order");
    touches.clear();
    annotator.AnnotateEvent(ev, &touches);
    const CompiledAction a = step.Push(ev, touches);
    const std::vector<Dep>& deps = step.deps();
    DigestEvent(digest, ev);
    DigestAction(digest, a, deps.data(), deps.size());
  }

  uint64_t Finish() {
    ARTC_CHECK_MSG(!finished, "Finish called twice");
    finished = true;
    tables.model_warnings = annotator.warnings();
    DigestTrailer(digest, Events(), tables);
    return digest.h;
  }

  uint64_t Events() const { return step.meta().size(); }

  uint64_t StateBytes() const {
    uint64_t bytes = step.state_bytes();
    bytes += annotator.resources().capacity() * sizeof(fsmodel::ResourceInfo);
    if (annotator.path_names()) {
      bytes += annotator.path_names()->payload_bytes();
    }
    return bytes;
  }
};

CompileStream::CompileStream(const trace::FsSnapshot& snapshot,
                             const CompileOptions& options)
    : impl_(std::make_unique<Impl>(snapshot, options)) {}

CompileStream::~CompileStream() = default;

void CompileStream::Push(const trace::TraceEvent& ev) { impl_->Push(ev); }

uint64_t CompileStream::Finish() { return impl_->Finish(); }

uint64_t CompileStream::events_seen() const { return impl_->Events(); }

uint64_t CompileStream::state_bytes() const { return impl_->StateBytes(); }

uint64_t CompileStream::interner_bytes() const {
  return impl_->annotator.path_names()->payload_bytes();
}

bool CompileStreamFile(const std::string& path,
                       const trace::StreamReaderOptions& reader_options,
                       const CompileOptions& options,
                       CompileStreamFileResult* result,
                       trace::ParseDiag* diag) {
  ARTC_OBS_SPAN("compiler", "compile_stream_file");
  auto reader = trace::StreamReader::Open(path, reader_options, diag);
  if (reader == nullptr) {
    return false;
  }
  CompileStream stream(reader->snapshot(), options);
  CompileStreamFileResult res;
  std::vector<trace::TraceEvent> window;
  // Gauge cells are additive, so point-in-time sizes export as deltas
  // against the previous window's value.
  int64_t last_state = 0;
  int64_t last_interner = 0;
  while (true) {
    if (!reader->Next(&window, diag)) {
      return false;
    }
    if (window.empty()) {
      break;
    }
    for (const trace::TraceEvent& ev : window) {
      stream.Push(ev);
    }
    ++res.windows;
    res.peak_state_bytes = std::max(res.peak_state_bytes, stream.state_bytes());
    ARTC_OBS_IF_ENABLED {
      const int64_t state = static_cast<int64_t>(stream.state_bytes());
      const int64_t interner = static_cast<int64_t>(stream.interner_bytes());
      ARTC_OBS_GAUGE_ADD("stream.state_bytes", state - last_state);
      ARTC_OBS_GAUGE_ADD("stream.interner_bytes", interner - last_interner);
      last_state = state;
      last_interner = interner;
    }
  }
  res.events = stream.events_seen();
  res.digest = stream.Finish();
  if (result != nullptr) {
    *result = res;
  }
  return true;
}

}  // namespace artc::core
