#include "src/sweep/workload_table.h"

#include "src/util/strings.h"
#include "src/workloads/micro.h"
#include "src/workloads/minikv.h"

namespace artc::sweep {

std::optional<NamedWorkload> NamedWorkload::Find(const std::string& name) {
  NamedWorkload w;
  w.name_ = name;
  if (IsOneOf(name, kMicroWorkloadNames)) {
    return w;
  }
  w.magritte_ = workloads::LookupMagritteSpec(name);
  if (w.magritte_ == nullptr) {
    return std::nullopt;
  }
  return w;
}

std::string NamedWorkload::Names() {
  std::string names = JoinNames(kMicroWorkloadNames);
  for (const workloads::MagritteSpec& spec : workloads::MagritteSuite()) {
    names += ", " + spec.FullName();
  }
  return names;
}

bool NamedWorkload::TakesThreads() const {
  return name_ == "random_readers" || name_ == "seq_readers" ||
         name_ == "kv_fillsync" || name_ == "kv_readrandom";
}

std::unique_ptr<workloads::Workload> NamedWorkload::Make(uint32_t threads) const {
  if (magritte_ != nullptr) {
    return workloads::MakeMagritteWorkload(*magritte_);
  }
  if (name_ == "random_readers") {
    workloads::RandomReaders::Options opt;
    opt.threads = threads > 0 ? threads : opt.threads;
    return std::make_unique<workloads::RandomReaders>(opt);
  }
  if (name_ == "seq_readers") {
    workloads::CompetingSequentialReaders::Options opt;
    opt.threads = threads > 0 ? threads : opt.threads;
    return std::make_unique<workloads::CompetingSequentialReaders>(opt);
  }
  if (name_ == "cache_warm_readers") {
    return std::make_unique<workloads::CacheWarmReaders>(
        workloads::CacheWarmReaders::Options{});
  }
  if (name_ == "kv_fillsync") {
    workloads::KvFillSync::Options opt;
    opt.threads = threads > 0 ? threads : 8;
    opt.puts_per_thread = 120;
    return std::make_unique<workloads::KvFillSync>(opt);
  }
  // kv_readrandom. Hundreds of small tables, like a real LevelDB directory:
  // cross-thread same-file collisions (file_seq stalls) stay rare, as in
  // the paper.
  workloads::KvReadRandom::Options opt;
  opt.threads = threads > 0 ? threads : 8;
  opt.gets_per_thread = 400;
  opt.tables = 256;
  opt.keys_per_table = 3000;
  return std::make_unique<workloads::KvReadRandom>(opt);
}

workloads::TracedRun NamedWorkload::Trace(uint32_t threads,
                                          workloads::SourceConfig source) const {
  source.platform = Platform();
  workloads::TracedRun run =
      magritte_ != nullptr ? workloads::TraceMagritte(*magritte_, source)
                           : workloads::TraceWorkload(*Make(threads), source);
  run.workload_name = name_;
  return run;
}

TimeNs NamedWorkload::Measure(uint32_t threads, workloads::SourceConfig target) const {
  target.platform = Platform();
  return workloads::MeasureWorkload(*Make(threads), target);
}

}  // namespace artc::sweep
