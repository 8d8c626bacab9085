// The named workloads a sweep grid's `workload` axis and artc_critpath's
// --workload/--micro flags select: the 34 Magritte programs, plus the
// microbenchmark and minikv programs of the paper's Figs 5-7, each at the
// size its figure uses.
#ifndef SRC_SWEEP_WORKLOAD_TABLE_H_
#define SRC_SWEEP_WORKLOAD_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/util/time.h"
#include "src/workloads/magritte.h"
#include "src/workloads/workload.h"

namespace artc::sweep {

// The programs besides the Magritte suite, whose names come from
// workloads::MagritteSuite().
inline constexpr const char* kMicroWorkloadNames[] = {
    "random_readers", "seq_readers", "cache_warm_readers", "kv_fillsync",
    "kv_readrandom"};

// The most threads a `threads` value may ask a program for.
inline constexpr uint32_t kMaxWorkloadThreads = 64;

class NamedWorkload {
 public:
  // The workload called `name`, or nullopt.
  static std::optional<NamedWorkload> Find(const std::string& name);
  // Every name, comma-separated, for diagnostics.
  static std::string Names();

  const std::string& name() const { return name_; }

  // Whether the program has a thread count a nonzero `threads` sets.
  bool TakesThreads() const;

  // Runs the program on `source` (its platform set to the program's: osx
  // for Magritte, linux otherwise) with tracing on. `threads` 0 keeps the
  // program's own count. The run's workload_name is name().
  workloads::TracedRun Trace(uint32_t threads, workloads::SourceConfig source) const;

  // The original program's elapsed virtual time on `target`, platform set
  // as for Trace.
  TimeNs Measure(uint32_t threads, workloads::SourceConfig target) const;

 private:
  std::unique_ptr<workloads::Workload> Make(uint32_t threads) const;
  const char* Platform() const { return magritte_ != nullptr ? "osx" : "linux"; }

  std::string name_;
  const workloads::MagritteSpec* magritte_ = nullptr;
};

}  // namespace artc::sweep

#endif  // SRC_SWEEP_WORKLOAD_TABLE_H_
