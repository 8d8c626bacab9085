#include "src/core/compiler.h"

#include <utility>
#include <vector>

#include "src/core/dep_builder.h"
#include "src/obs/obs.h"
#include "src/util/check.h"

namespace artc::core {
namespace {

using internal::CompileStep;
using internal::RefinePredelay;

// Appends the next action's deps to the CSR arena.
void AppendDeps(const std::vector<Dep>& deps, CompiledBenchmark* out) {
  out->dep_arena.insert(out->dep_arena.end(), deps.begin(), deps.end());
  out->dep_offsets.push_back(static_cast<uint32_t>(out->dep_arena.size()));
}

// Temporal-method emission. Issue ordering alone does not guarantee that
// the open defining a cross-thread descriptor has *completed* (and
// therefore filled the remap slot) before a use on another thread executes.
// Fold in the minimal infrastructure deps so the temporal baseline is
// runnable, as in the paper. These are not counted as ordering edges. Each
// fd/aio slot is one generation, so it has exactly one defining event.
// Finding it needs the whole trace's slot wiring, so this is a second pass
// over the step's output, which has no deps yet; it also refines predelay
// against the new deps.
void EmitTemporalDeps(CompileStep& step, CompiledBenchmark* out) {
  std::vector<uint32_t> fd_def(out->fd_slot_count, kNoEvent);
  std::vector<uint32_t> aio_def(out->aio_slot_count, kNoEvent);
  for (uint32_t i = 0; i < out->actions.size(); ++i) {
    const CompiledAction& a = out->actions[i];
    if (a.fd_def_slot >= 0) {
      fd_def[static_cast<size_t>(a.fd_def_slot)] = i;
    }
    if (a.aio_def_slot >= 0) {
      aio_def[static_cast<size_t>(a.aio_def_slot)] = i;
    }
  }
  internal::DepBuilder& builder = step.builder();
  out->dep_offsets.resize(1);  // the step emitted no deps: rebuild the CSR
  for (uint32_t i = 0; i < out->events.size(); ++i) {
    builder.BeginEvent(i, 4);
    if (i > 0) {
      builder.AddDep(i - 1, DepKind::kIssue, RuleTag::kTemporal);
    }
    CompiledAction& a = out->actions[i];
    if (a.fd_use_slot >= 0) {
      builder.AddInfraDep(fd_def[static_cast<size_t>(a.fd_use_slot)]);
    }
    if (a.aio_use_slot >= 0) {
      builder.AddInfraDep(aio_def[static_cast<size_t>(a.aio_use_slot)]);
    }
    const std::vector<Dep>& deps = builder.deps();
    a.predelay =
        RefinePredelay(out->events[i].enter, a.predelay, deps, step.meta());
    AppendDeps(deps, out);
  }
}

}  // namespace

uint64_t EdgeStats::TotalEdges() const {
  uint64_t n = 0;
  for (uint64_t c : count_by_rule) {
    n += c;
  }
  return n;
}

uint64_t EdgeStats::TotalPruned() const {
  uint64_t n = 0;
  for (uint64_t c : pruned_by_rule) {
    n += c;
  }
  return n;
}

double EdgeStats::MeanLengthNs() const {
  uint64_t n = 0;
  double total = 0;
  for (size_t i = 0; i < count_by_rule.size(); ++i) {
    n += count_by_rule[i];
    total += total_length_ns[i];
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

CompiledBenchmark Compile(trace::Trace t, const trace::FsSnapshot& snapshot,
                          const CompileOptions& options) {
  // Labels exist for debugging and fsmodel tests; the compiler never reads
  // them, so skip materializing one string per resource.
  fsmodel::AnnotateOptions ann_opts;
  ann_opts.materialize_labels = false;
  const fsmodel::AnnotatedTrace ann =
      fsmodel::AnnotateTrace(t, snapshot, ann_opts);
  return Compile(std::move(t), snapshot, ann, options);
}

CompiledBenchmark Compile(trace::Trace t, const trace::FsSnapshot& snapshot,
                          const fsmodel::AnnotatedTrace& ann,
                          const CompileOptions& options) {
  ARTC_OBS_SPAN("compiler", "compile");
  ARTC_CHECK(ann.touches.size() == t.events.size());
  CompiledBenchmark bench;
  bench.method = options.method;
  bench.modes = options.modes;
  bench.snapshot = snapshot;
  bench.events = std::move(t.events);
  bench.model_warnings = ann.warnings;

  CompileStep step(options, ann.resources, ann.path_names.get(), &bench);
  const uint32_t n = static_cast<uint32_t>(bench.events.size());
  step.Reserve(n);
  bench.actions.reserve(n);
  bench.dep_offsets.reserve(n + 1);
  bench.dep_offsets.push_back(0);
  // The single-threaded method's one thread exists before any event.
  bench.thread_actions.resize(bench.thread_ids.size());
  for (uint32_t i = 0; i < n; ++i) {
    const CompiledAction& a =
        bench.actions.emplace_back(step.Push(bench.events[i], ann.touches[i]));
    if (a.thread_index == bench.thread_actions.size()) {
      bench.thread_actions.emplace_back();
    }
    bench.thread_actions[a.thread_index].push_back(i);
    AppendDeps(step.deps(), &bench);
  }
  if (options.method == ReplayMethod::kTemporal) {
    EmitTemporalDeps(step, &bench);
  }
  return bench;
}

}  // namespace artc::core
