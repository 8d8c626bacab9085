// Workload harness: runs multithreaded application models on the simulated
// kernel, optionally tracing them at the syscall boundary. A traced run
// yields exactly what the ARTC compiler needs (trace + initial snapshot)
// plus the original program's elapsed virtual time on that source target —
// the baseline every replay-accuracy experiment compares against.
#ifndef SRC_WORKLOADS_WORKLOAD_H_
#define SRC_WORKLOADS_WORKLOAD_H_

#include <functional>
#include <string>
#include <vector>

#include "src/sim/simulation.h"
#include "src/storage/storage_stack.h"
#include "src/trace/event.h"
#include "src/trace/snapshot.h"
#include "src/vfs/vfs.h"

namespace artc::workloads {

// Execution context handed to an application model's Run() phase.
struct AppContext {
  sim::Simulation* sim = nullptr;
  vfs::Vfs* fs = nullptr;

  // Spawns an application thread; returns its id for Join.
  sim::SimThreadId Spawn(const std::string& name, std::function<void()> body) {
    return sim->Spawn(name, std::move(body));
  }
  void Join(sim::SimThreadId tid) { sim->Join(tid); }
  void Compute(TimeNs t) { sim->Sleep(t); }  // model CPU work
  TimeNs Now() const { return sim->Now(); }
  Rng& rng() { return sim->rng(); }
};

// An application model. Setup() builds the pre-existing file tree (not
// traced); Run() is the traced phase.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string Name() const = 0;
  virtual void Setup(vfs::Vfs& fs) = 0;
  virtual void Run(AppContext& ctx) = 0;
};

// The storage/fs/OS environment a workload executes on.
struct SourceConfig {
  storage::StorageConfig storage = storage::MakeNamedConfig("hdd");
  std::string fs_profile = "ext4";
  std::string platform = "linux";
  uint64_t seed = 1;
};

struct TracedRun {
  trace::Trace trace;
  trace::FsSnapshot snapshot;   // tree state when tracing started
  TimeNs elapsed = 0;           // virtual time of the traced phase
  std::string workload_name;
};

// Runs the workload on the given source environment with tracing enabled.
TracedRun TraceWorkload(Workload& w, const SourceConfig& config);

// Runs the workload without tracing and returns its elapsed virtual time —
// "the original program on the target system".
TimeNs MeasureWorkload(Workload& w, const SourceConfig& config);

}  // namespace artc::workloads

#endif  // SRC_WORKLOADS_WORKLOAD_H_
