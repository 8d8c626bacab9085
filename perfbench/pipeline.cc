// Pipeline benchmark harness. One pass runs the whole ARTC path a user runs:
// trace file on disk -> fsmodel::AnnotateTrace -> core::Compile -> replay on
// the simulated target -> obs::AnalyzeSimReplay -> ReplayReport::Summary.
// Every call into a module's public API is timed from here, so the library
// carries no benchmark-only instrumentation.
//
//   perfbench_pipeline setup WORKLOAD SEED DIR
//       Generates the workload's input files into DIR (plus the original
//       program's virtual run time on each replay target, where the workload
//       has an original program) and prints {"setup_s": ...}.
//   perfbench_pipeline run WORKLOAD SEED DIR SECONDS TRACE_OUT
//       One untimed checked pass, then timed passes for SECONDS. TRACE_OUT
//       "-" measures with tracing off; a path adds the traced passes, the
//       layer probes, and writes a Perfetto-loadable trace there. Prints one JSON
//       object with raw results; run.py turns it into the benchmark's report.
//
// Workloads (see README.md for why each exists):
//   rr16-hdd       random readers, 16 threads x 6500 reads, text bundle, hdd
//   web1m-ssd      synthetic web server, 1M events, ARTCT, ssd
//   lock200k-hdd   synthetic lock server, 200k events, ARTCT, hdd
//   magritte34-x4  the 34 Magritte traces as text .trace + .snap, replayed as
//                  a kParallel suite on hdd, ssd, raid0 and smallcache
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <sys/resource.h>
#include <sys/stat.h>
#include <utility>
#include <vector>

#include "src/check/oracle.h"
#include "src/check/refmodel.h"
#include "src/core/artc.h"
#include "src/core/compile_stream.h"
#include "src/core/compiler.h"
#include "src/fsmodel/resource_model.h"
#include "src/obs/critpath.h"
#include "src/obs/obs.h"
#include "src/sim/simulation.h"
#include "src/storage/storage_stack.h"
#include "src/trace/snapshot.h"
#include "src/trace/stream_reader.h"
#include "src/trace/trace_io.h"
#include "src/util/thread_pool.h"
#include "src/vfs/vfs.h"
#include "src/workloads/magritte.h"
#include "src/workloads/micro.h"
#include "src/workloads/synthetic_gen.h"
#include "src/workloads/workload.h"

namespace artc::perfbench {
namespace {

// Host threads the benchmark may use: the pool for parallel ingest and the
// suite's compile/critpath phases, and the kParallel replay workers.
constexpr size_t kHostThreads = 4;

// Passes with tracing on in a traced run: enough for a median overhead.
constexpr int kTracedPasses = 3;

enum class Shape { kSingle, kSuite };

struct WorkloadDef {
  const char* name;
  Shape shape;
  // Single-trace workloads: the input file inside the work directory.
  const char* trace_file;
  std::vector<std::string> targets;
  // Whether setup measures an original program on each target (otherwise
  // the trace's own timeline is the original run).
  bool has_program;
};

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> kDefs = {
      {"rr16-hdd", Shape::kSingle, "trace.txt", {"hdd"}, true},
      {"web1m-ssd", Shape::kSingle, "trace.artct", {"ssd"}, false},
      {"lock200k-hdd", Shape::kSingle, "trace.artct", {"hdd"}, false},
      {"magritte34-x4", Shape::kSuite, nullptr, {"hdd", "ssd", "raid0", "smallcache"},
       true},
  };
  return kDefs;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

int64_t NowNs() { return obs::DefaultTracer().HostNowNs(); }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_pipeline: %s\n", msg.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Setup: generate inputs, measure original programs.
// ---------------------------------------------------------------------------

workloads::SynthOptions SynthFor(const WorkloadDef& w, uint64_t seed) {
  workloads::SynthOptions opt;
  opt.seed = seed;
  opt.threads = 8;
  if (std::strcmp(w.name, "web1m-ssd") == 0) {
    opt.scenario = workloads::SynthScenario::kWebServer;
    opt.events = 1'000'000;
  } else {
    opt.scenario = workloads::SynthScenario::kLockServer;
    opt.events = 200'000;
  }
  return opt;
}

workloads::RandomReaders::Options Rr16Options() {
  workloads::RandomReaders::Options opt;
  opt.threads = 16;
  opt.reads_per_thread = 6500;
  return opt;
}

workloads::SourceConfig TargetSource(const std::string& target, uint64_t seed) {
  workloads::SourceConfig cfg;
  cfg.storage = storage::MakeNamedConfig(target);
  cfg.seed = seed;
  return cfg;
}

std::string MagritteBase(const std::string& dir, size_t i) {
  return dir + "/magritte/" + workloads::MagritteSuite()[i].FullName();
}

// originals.txt: "<unit> <target index> <virtual ns>" per line.
void WriteOriginals(const std::string& path,
                    const std::vector<std::vector<TimeNs>>& by_unit) {
  std::ofstream out(path);
  for (size_t u = 0; u < by_unit.size(); ++u) {
    for (size_t t = 0; t < by_unit[u].size(); ++t) {
      out << u << ' ' << t << ' ' << by_unit[u][t] << '\n';
    }
  }
  if (!out.good()) {
    Die("cannot write " + path);
  }
}

int Setup(const WorkloadDef& w, uint64_t seed, const std::string& dir) {
  const int64_t start = NowNs();
  ::mkdir(dir.c_str(), 0755);
  if (std::strcmp(w.name, "rr16-hdd") == 0) {
    workloads::RandomReaders traced_program(Rr16Options());
    workloads::TracedRun run =
        workloads::TraceWorkload(traced_program, TargetSource("hdd", seed));
    trace::WriteTraceBundleFile({std::move(run.trace), std::move(run.snapshot)},
                                dir + "/" + w.trace_file);
    workloads::RandomReaders original(Rr16Options());
    WriteOriginals(dir + "/originals.txt",
                   {{workloads::MeasureWorkload(original, TargetSource("hdd", seed))}});
  } else if (w.shape == Shape::kSingle) {
    std::string error;
    if (!workloads::GenerateSyntheticArtct(SynthFor(w, seed), dir + "/" + w.trace_file,
                                           &error)) {
      Die("synthetic generation failed: " + error);
    }
  } else {
    ::mkdir((dir + "/magritte").c_str(), 0755);
    const std::vector<workloads::MagritteSpec>& suite = workloads::MagritteSuite();
    std::vector<std::vector<TimeNs>> originals(suite.size(),
                                               std::vector<TimeNs>(w.targets.size()));
    util::ThreadPool pool(kHostThreads);
    // One task per (trace, original-on-target) so the 4 workers stay busy.
    const size_t per_spec = 1 + w.targets.size();
    util::ParallelFor(pool, suite.size() * per_spec, [&](size_t task) {
      const size_t i = task / per_spec;
      const size_t k = task % per_spec;
      if (k == 0) {
        // The iBench traces came from Mac OS X on an SSD.
        workloads::SourceConfig source;
        source.storage = storage::MakeNamedConfig("ssd");
        source.platform = "osx";
        source.seed = seed;
        workloads::TracedRun run = workloads::TraceMagritte(suite[i], source);
        trace::WriteTraceFile(run.trace, MagritteBase(dir, i) + ".trace");
        trace::WriteSnapshotFile(run.snapshot, MagritteBase(dir, i) + ".snap");
      } else {
        std::unique_ptr<workloads::Workload> program =
            workloads::MakeMagritteWorkload(suite[i]);
        originals[i][k - 1] =
            workloads::MeasureWorkload(*program, TargetSource(w.targets[k - 1], seed));
      }
    });
    WriteOriginals(dir + "/originals.txt", originals);
  }
  std::printf("{\"setup_s\": %.6f}\n", static_cast<double>(NowNs() - start) / 1e9);
  return 0;
}

// ---------------------------------------------------------------------------
// One pipeline pass.
// ---------------------------------------------------------------------------

struct HostSpan {
  const char* name;
  int64_t start;
  int64_t dur;
};

struct Replayed {
  size_t unit = 0;    // index into PassResult::benches
  size_t target = 0;  // index into WorkloadDef::targets
  core::SimReplayResult result;
};

struct PassResult {
  // Host ns per stage; total runs from the first load to the last summary.
  int64_t load_ns = 0, annotate_ns = 0, compile_ns = 0, replay_ns = 0;
  int64_t critpath_ns = 0, summary_ns = 0, total_ns = 0;
  std::vector<HostSpan> spans;

  uint64_t events = 0;  // loaded trace events
  uint64_t warnings = 0;
  uint64_t report_bytes = 0;  // Summary() output, so the call is not dead

  std::vector<core::CompiledBenchmark> benches;
  std::vector<Replayed> replays;
  size_t windows = 0;
  size_t workers = 1;
};

class StageClock {
 public:
  explicit StageClock(std::vector<HostSpan>* spans) : spans_(spans) {}
  template <typename F>
  int64_t Time(const char* name, F&& fn) {
    const int64_t start = NowNs();
    fn();
    const int64_t dur = NowNs() - start;
    spans_->push_back({name, start, dur});
    return dur;
  }

 private:
  std::vector<HostSpan>* spans_;
};

struct Input {
  std::string trace_path;
  std::string snapshot_path;  // empty: the snapshot rides in the trace file
};

std::vector<Input> InputsFor(const WorkloadDef& w, const std::string& dir) {
  std::vector<Input> inputs;
  if (w.shape == Shape::kSingle) {
    inputs.push_back({dir + "/" + w.trace_file, ""});
  } else {
    for (size_t i = 0; i < workloads::MagritteSuite().size(); ++i) {
      inputs.push_back({MagritteBase(dir, i) + ".trace", MagritteBase(dir, i) + ".snap"});
    }
  }
  return inputs;
}

core::SimTarget MakeTarget(const WorkloadDef& w, const std::string& name, uint64_t seed) {
  core::SimTarget target;
  target.storage = storage::MakeNamedConfig(name);
  target.seed = seed;
  if (w.shape == Shape::kSuite) {
    target.sim_backend = sim::SimBackend::kParallel;
    target.jobs = kHostThreads;
  }
  return target;
}

PassResult RunPass(const WorkloadDef& w, const std::vector<Input>& inputs, uint64_t seed,
                   util::ThreadPool& pool) {
  PassResult pass;
  StageClock clock(&pass.spans);
  const size_t n = inputs.size();
  std::vector<trace::TraceBundle> bundles(n);
  std::vector<fsmodel::AnnotatedTrace> annotated(n);
  pass.benches.resize(n);
  fsmodel::AnnotateOptions aopt;
  aopt.materialize_labels = false;  // what the compiler itself asks for
  const int64_t start = NowNs();

  pass.load_ns = clock.Time("trace.load", [&] {
    trace::ParallelReadOptions ropt;
    ropt.pool = &pool;
    for (size_t i = 0; i < n; ++i) {
      trace::ParallelReadResult read;
      trace::ParseDiag diag;
      if (!trace::ParallelReadTraceFile(inputs[i].trace_path, ropt, &read, &diag)) {
        Die("cannot load " + inputs[i].trace_path + ": " + diag.Format());
      }
      bundles[i] = std::move(read.bundle);
      if (!inputs[i].snapshot_path.empty()) {
        bundles[i].snapshot = trace::ReadSnapshotFile(inputs[i].snapshot_path);
      }
    }
  });
  for (const trace::TraceBundle& b : bundles) {
    pass.events += b.trace.events.size();
  }

  pass.annotate_ns = clock.Time("fsmodel.annotate", [&] {
    auto annotate = [&](size_t i) {
      annotated[i] = fsmodel::AnnotateTrace(bundles[i].trace, bundles[i].snapshot, aopt);
    };
    if (n == 1) {
      annotate(0);
    } else {
      util::ParallelFor(pool, n, annotate);
    }
  });
  for (const fsmodel::AnnotatedTrace& a : annotated) {
    pass.warnings += a.warnings;
  }

  pass.compile_ns = clock.Time("core.compile", [&] {
    auto compile = [&](size_t i) {
      pass.benches[i] = core::Compile(std::move(bundles[i].trace), bundles[i].snapshot,
                                      annotated[i], core::CompileOptions{});
      annotated[i] = fsmodel::AnnotatedTrace{};
    };
    if (n == 1) {
      compile(0);
    } else {
      util::ParallelFor(pool, n, compile);
    }
  });

  pass.replay_ns = clock.Time("core.replay", [&] {
    for (size_t t = 0; t < w.targets.size(); ++t) {
      const core::SimTarget target = MakeTarget(w, w.targets[t], seed);
      if (w.shape == Shape::kSingle) {
        pass.replays.push_back(
            {0, t, core::ReplayCompiledOnSimTarget(pass.benches[0], target)});
        continue;
      }
      std::vector<const core::CompiledBenchmark*> suite;
      for (const core::CompiledBenchmark& b : pass.benches) {
        suite.push_back(&b);
      }
      core::SuiteReplayResult res = core::ReplaySuiteOnSimTarget(suite, target);
      pass.windows += res.windows;
      pass.workers = std::max(pass.workers, res.workers);
      for (size_t u = 0; u < res.runs.size(); ++u) {
        pass.replays.push_back({u, t, std::move(res.runs[u])});
      }
    }
  });

  pass.critpath_ns = clock.Time("critpath.analyze", [&] {
    std::vector<TimeNs> ends(pass.replays.size());
    auto analyze = [&](size_t r) {
      const Replayed& rep = pass.replays[r];
      ends[r] = obs::AnalyzeSimReplay(pass.benches[rep.unit], rep.result).end_time;
    };
    if (pass.replays.size() == 1) {
      analyze(0);
    } else {
      util::ParallelFor(pool, pass.replays.size(), analyze);
    }
  });

  pass.summary_ns = clock.Time("report.summary", [&] {
    for (const Replayed& rep : pass.replays) {
      pass.report_bytes += rep.result.report.Summary().size();
    }
  });
  pass.total_ns = NowNs() - start;
  pass.spans.push_back({"pipeline.pass", start, pass.total_ns});
  return pass;
}

// ---------------------------------------------------------------------------
// Derived numbers, fingerprint, oracle.
// ---------------------------------------------------------------------------

struct PassStats {
  uint64_t actions = 0;
  uint64_t failed = 0;
  uint64_t edges_emitted = 0;
  uint64_t edges_kept = 0;
  uint64_t switches = 0;
  TimeNs dep_stall = 0;
  TimeNs thread_time = 0;
  storage::StorageCounters storage;
  uint64_t snapshot_entries = 0;
  uint64_t max_threads = 0;
  uint64_t events = 0;
  uint64_t warnings = 0;
  size_t windows = 0;
  size_t workers = 1;
  std::string fingerprint;
};

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

PassStats Summarize(const PassResult& pass) {
  PassStats s;
  s.events = pass.events;
  s.warnings = pass.warnings;
  s.windows = pass.windows;
  s.workers = pass.workers;
  uint64_t digest = 14695981039346656037ULL;
  for (const core::CompiledBenchmark& b : pass.benches) {
    s.edges_emitted += b.edge_stats.TotalEdges();
    s.edges_kept += b.dep_arena.size();
    s.snapshot_entries += b.snapshot.entries.size();
    s.max_threads = std::max<uint64_t>(s.max_threads, b.thread_actions.size());
    digest = Fnv(digest, core::DigestBenchmark(b));
  }
  uint64_t replay_hash = 14695981039346656037ULL;
  TimeNs end_sum = 0;
  for (const Replayed& rep : pass.replays) {
    const core::SimReplayResult& r = rep.result;
    s.actions += r.report.total_events;
    s.failed += r.report.failed_events;
    s.switches += r.sim_switches;
    s.dep_stall += r.report.total_dep_stall;
    s.thread_time += r.report.TotalThreadTime();
    s.storage.cache_hit_blocks += r.storage.cache_hit_blocks;
    s.storage.cache_miss_blocks += r.storage.cache_miss_blocks;
    s.storage.media_read_blocks += r.storage.media_read_blocks;
    s.storage.media_write_blocks += r.storage.media_write_blocks;
    s.storage.cfq_context_switches += r.storage.cfq_context_switches;
    s.storage.service_cache_ns += r.storage.service_cache_ns;
    s.storage.service_media_read_ns += r.storage.service_media_read_ns;
    s.storage.service_media_write_ns += r.storage.service_media_write_ns;
    s.storage.service_writeback_ns += r.storage.service_writeback_ns;
    end_sum += r.sim_end_time;
    for (uint64_t v : {static_cast<uint64_t>(r.sim_end_time), r.sim_switches,
                       static_cast<uint64_t>(r.report.wall_time), r.report.failed_events}) {
      replay_hash = Fnv(replay_hash, v);
    }
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "end_ns=%" PRId64 " switches=%" PRIu64 " kept_edges=%" PRIu64
                " failed=%" PRIu64 " digest=%016" PRIx64 " replays=%016" PRIx64,
                static_cast<int64_t>(end_sum), s.switches, s.edges_kept, s.failed, digest,
                replay_hash);
  s.fingerprint = buf;
  return s;
}

// Original program's virtual run time per (unit, target). Workloads without
// a program use the trace's own span: the generator's timeline is the run
// that was recorded.
std::vector<std::vector<TimeNs>> LoadOriginals(const WorkloadDef& w, const std::string& dir,
                                               const PassResult& pass) {
  std::vector<std::vector<TimeNs>> out(pass.benches.size(),
                                       std::vector<TimeNs>(w.targets.size(), 0));
  if (!w.has_program) {
    for (size_t u = 0; u < pass.benches.size(); ++u) {
      const std::vector<trace::TraceEvent>& ev = pass.benches[u].events;
      TimeNs lo = INT64_MAX;
      TimeNs hi = 0;
      for (const trace::TraceEvent& e : ev) {
        lo = std::min(lo, e.enter);
        hi = std::max(hi, e.ret_time);
      }
      std::fill(out[u].begin(), out[u].end(), ev.empty() ? 0 : hi - lo);
    }
    return out;
  }
  std::ifstream in(dir + "/originals.txt");
  size_t u = 0;
  size_t t = 0;
  TimeNs ns = 0;
  while (in >> u >> t >> ns) {
    if (u >= out.size() || t >= w.targets.size()) {
      Die("originals.txt does not match the workload");
    }
    out[u][t] = ns;
  }
  return out;
}

// Replay timing against the original run, averaged over replays: the mean
// relative error |replay - original| / original, and the accuracy
// original / (original + |replay - original|), which is 1 for an exact
// replay and, unlike the error, never 0 and steady when the error is tiny.
struct TimingError {
  double error_pct = 0;
  double accuracy = 0;
};

TimingError MeasureTiming(const PassResult& pass,
                          const std::vector<std::vector<TimeNs>>& originals) {
  TimingError t;
  for (const Replayed& rep : pass.replays) {
    const double orig = static_cast<double>(originals[rep.unit][rep.target]);
    if (orig <= 0) {
      Die("missing original run time");
    }
    const double err = std::abs(static_cast<double>(rep.result.report.wall_time) - orig);
    t.error_pct += 100.0 * err / orig;
    t.accuracy += orig / (orig + err);
  }
  const double n = static_cast<double>(pass.replays.size());
  t.error_pct /= n;
  t.accuracy /= n;
  return t;
}

struct OracleTotals {
  uint64_t hb_edges = 0;
  uint64_t hb_violations = 0;
  uint64_t unexecuted = 0;
  uint64_t ret_mismatches = 0;
  uint64_t replays = 0;
  std::string first_violation;
};

// The independent correctness check: the refmodel shares no code with
// fsmodel or the compiler, so its happens-before edges are a ground truth
// every replay must respect.
OracleTotals RunOracle(PassResult& pass) {
  OracleTotals o;
  for (size_t u = 0; u < pass.benches.size(); ++u) {
    core::CompiledBenchmark& bench = pass.benches[u];
    trace::TraceBundle bundle;
    bundle.trace.events = std::move(bench.events);
    bundle.snapshot = bench.snapshot;
    const check::RefModel model = check::BuildRefModel(bundle);
    o.hb_edges += model.edges.size();
    for (const Replayed& rep : pass.replays) {
      if (rep.unit != u) {
        continue;
      }
      const check::OracleFindings f =
          check::CheckSchedule(model, bundle.trace, rep.result.report);
      o.hb_violations += f.hb_violations;
      o.unexecuted += f.unexecuted;
      o.ret_mismatches += f.ret_mismatches;
      o.replays++;
      if ((f.hb_violations > 0 || f.unexecuted > 0) && o.first_violation.empty()) {
        o.first_violation = f.first_violation;
      }
    }
    bench.events = std::move(bundle.trace.events);
  }
  return o;
}

// ---------------------------------------------------------------------------
// Layer probes (traced run only).
// ---------------------------------------------------------------------------

// Host ns per simulated context switch: `threads` simulated threads each
// sleeping `rounds` times, so every Sleep is one Spawn/Sleep round trip
// through the scheduler.
double SwitchProbeNs(uint64_t threads, uint64_t seed) {
  const uint64_t rounds = std::max<uint64_t>(1, 200'000 / std::max<uint64_t>(1, threads));
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    sim::Simulation sim(seed);
    for (uint64_t t = 0; t < threads; ++t) {
      sim.Spawn("probe", [&sim, rounds] {
        for (uint64_t r = 0; r < rounds; ++r) {
          sim.Sleep(1);
        }
      });
    }
    const int64_t start = NowNs();
    sim.Run();
    const int64_t dur = NowNs() - start;
    samples.push_back(static_cast<double>(dur) /
                      static_cast<double>(std::max<uint64_t>(1, sim.switch_count())));
  }
  return Median(samples);
}

// Host ns to restore every snapshot of the workload once, each into a fresh
// vfs on the workload's first target, timing only Vfs::RestoreSnapshot.
double RestoreProbeNs(const WorkloadDef& w, const PassResult& pass, uint64_t seed) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    int64_t total = 0;
    for (const core::CompiledBenchmark& bench : pass.benches) {
      sim::Simulation sim(seed);
      storage::StorageStack stack(&sim, storage::MakeNamedConfig(w.targets[0]));
      vfs::Vfs fs(&sim, &stack, vfs::MakeFsProfile("ext4"),
                  vfs::MakePlatformProfile("linux"));
      sim.Spawn("restore", [&] {
        const int64_t start = NowNs();
        fs.RestoreSnapshot(bench.snapshot);
        total += NowNs() - start;
      });
      sim.Run();
    }
    samples.push_back(static_cast<double>(total));
  }
  return Median(samples);
}

// ---------------------------------------------------------------------------
// Traced pass output.
// ---------------------------------------------------------------------------

// Counter families the library already records; their per-pass deltas go
// into the trace as Chrome 'C' events.
bool TracedCounter(const std::string& name) {
  for (const char* prefix : {"sim.", "page_cache.", "hdd.", "cfq.", "storage.",
                             "threadpool.", "parse.", "replay.", "stream."}) {
    if (name.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

struct TracedPass {
  uint64_t id = 0;
  std::vector<HostSpan> spans;
};

// Writes the tracer's records plus the benchmark's spans (one `pass`
// argument per pass) and the counter deltas, stamped at `counters_ts_ns`.
bool WriteTrace(const std::string& path, const std::vector<TracedPass>& passes,
                const std::map<std::string, int64_t>& counters, int64_t counters_ts_ns) {
  obs::Tracer& tracer = obs::DefaultTracer();
  // Emitted after the passes so replay records cannot overwrite them in the
  // host thread's ring.
  const uint32_t track = tracer.CurrentHostTrack();
  tracer.SetTrackName(obs::ClockDomain::kHost, track, "perfbench");
  for (const TracedPass& p : passes) {
    for (const HostSpan& s : p.spans) {
      tracer.CompleteSpan(obs::ClockDomain::kHost, track, "perfbench", s.name, s.start,
                          s.dur, "pass", static_cast<int64_t>(p.id));
    }
  }
  std::string json = tracer.ToChromeJson();
  const size_t tail = json.rfind("\n]");
  if (tail == std::string::npos) {
    return false;
  }
  std::string extra;
  const double ts_us = static_cast<double>(counters_ts_ns) / 1e3;
  for (const auto& [name, value] : counters) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":%.3f,"
                  "\"pid\":0,\"tid\":%u,\"args\":{\"value\":%" PRId64 "}}",
                  name.c_str(), ts_us, track, value);
    extra += buf;
  }
  json.insert(tail, extra);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

// ---------------------------------------------------------------------------
// Peak RSS of the timed passes only: clear_refs "5" resets the kernel's
// high-water mark, so setup and the checked pass do not count. Best effort:
// where the reset is unavailable the mark also covers the checked pass.
// ---------------------------------------------------------------------------

void ResetPeakRss() {
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------

class JsonObject {
 public:
  void Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Int(const char* key, uint64_t v) { Raw(key, std::to_string(v)); }
  void Str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
      }
      quoted += (c == '\n') ? ' ' : c;
    }
    Raw(key, quoted + "\"");
  }
  void Raw(const char* key, const std::string& v) {
    body_ += body_.empty() ? "" : ", ";
    body_ += "\"" + std::string(key) + "\": " + v;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

int Run(const WorkloadDef& w, uint64_t seed, const std::string& dir, double seconds,
        const std::string& trace_out) {
  const bool traced = trace_out != "-";
  const std::vector<Input> inputs = InputsFor(w, dir);
  util::ThreadPool pool(kHostThreads);

  // Checked pass: untimed; warms caches and lazy set-up, and supplies the
  // fingerprint every timed pass must reproduce plus the oracle verdict.
  PassResult checked = RunPass(w, inputs, seed, pool);
  const PassStats stats = Summarize(checked);
  const TimingError timing = MeasureTiming(checked, LoadOriginals(w, dir, checked));
  const OracleTotals oracle = RunOracle(checked);
  double switch_probe_ns = 0;
  double restore_ns = 0;
  if (traced) {
    switch_probe_ns = SwitchProbeNs(stats.max_threads, seed);
    restore_ns = RestoreProbeNs(w, checked, seed);
  }
  checked = PassResult{};

  bool fingerprints_match = true;
  std::vector<double> total, load, annotate, compile, replay, critpath, summary;
  std::vector<double> replay_rate;
  ResetPeakRss();
  const int64_t loop_start = NowNs();
  while (total.size() < 3 ||
         static_cast<double>(NowNs() - loop_start) < seconds * 1e9) {
    PassResult pass = RunPass(w, inputs, seed, pool);
    total.push_back(static_cast<double>(pass.total_ns));
    load.push_back(static_cast<double>(pass.load_ns));
    annotate.push_back(static_cast<double>(pass.annotate_ns));
    compile.push_back(static_cast<double>(pass.compile_ns));
    replay.push_back(static_cast<double>(pass.replay_ns));
    critpath.push_back(static_cast<double>(pass.critpath_ns));
    summary.push_back(static_cast<double>(pass.summary_ns));
    replay_rate.push_back(static_cast<double>(stats.actions) /
                          (static_cast<double>(pass.replay_ns) / 1e9));
    if (Summarize(pass).fingerprint != stats.fingerprint) {
      fingerprints_match = false;
    }
  }
  const double peak_rss_mib = PeakRssMib();

  // Traced passes: their median against the untraced median is the tracing
  // overhead. The library's records and the counter deltas in the trace are
  // the last traced pass's: the tracer is cleared before each pass, and its
  // per-thread rings keep only the newest records, so large replays lose
  // their oldest ones (counted in trace_dropped_records).
  std::vector<double> traced_total;
  std::vector<TracedPass> traced_passes;
  std::map<std::string, int64_t> counters;
  int64_t counters_ts_ns = 0;
  uint64_t dropped_records = 0;
  for (int i = 0; traced && i < kTracedPasses; ++i) {
    const obs::MetricsSnapshot before = obs::DefaultRegistry().Snapshot();
    obs::DefaultTracer().Clear();
    obs::Enable();
    PassResult pass = RunPass(w, inputs, seed, pool);
    obs::Disable();
    dropped_records = obs::DefaultTracer().dropped_records();
    traced_total.push_back(static_cast<double>(pass.total_ns));
    traced_passes.push_back({total.size() + 1 + i, std::move(pass.spans)});
    if (Summarize(pass).fingerprint != stats.fingerprint) {
      fingerprints_match = false;
    }
    if (i + 1 < kTracedPasses) {
      continue;
    }
    counters_ts_ns = NowNs();
    const obs::MetricsSnapshot after = obs::DefaultRegistry().Snapshot();
    auto record = [&](const std::string& name, int64_t delta) {
      if (delta != 0 && TracedCounter(name)) {
        counters[name] = delta;
      }
    };
    for (const auto& [name, value] : after.counters) {
      auto it = before.counters.find(name);
      record(name, value - (it == before.counters.end() ? 0 : it->second));
    }
    // Histograms (hdd.queue_depth, sim.run_queue_depth, ...) contribute their
    // sample count and sum.
    for (const auto& [name, h] : after.histograms) {
      auto it = before.histograms.find(name);
      const bool seen = it != before.histograms.end();
      record(name + ".count",
             static_cast<int64_t>(h.count - (seen ? it->second.count : 0)));
      record(name + ".sum", h.sum - (seen ? it->second.sum : 0));
    }
  }
  if (traced && !WriteTrace(trace_out, traced_passes, counters, counters_ts_ns)) {
    Die("cannot write " + trace_out);
  }

  const double med_total = Median(total);
  const double med_load = Median(load);
  const double med_replay = Median(replay);
  const double actions = static_cast<double>(stats.actions);

  JsonObject e2e;
  e2e.Num("pipeline_s", med_total / 1e9);
  e2e.Num("replay_actions_per_s", Median(replay_rate));
  e2e.Num("peak_rss_mib", peak_rss_mib);
  const double failed_op_share = static_cast<double>(oracle.ret_mismatches) / actions;
  e2e.Num("semantic_accuracy", 1.0 - failed_op_share);
  e2e.Num("timing_accuracy", timing.accuracy);

  JsonObject layer;
  layer.Num("trace.load_ns", med_load);
  layer.Num("trace.events_per_s", static_cast<double>(stats.events) / (med_load / 1e9));
  layer.Num("fsmodel.annotate_ns", Median(annotate));
  layer.Int("fsmodel.warnings", stats.warnings);
  layer.Num("core.compile_ns", Median(compile));
  layer.Int("core.edges_emitted", stats.edges_emitted);
  layer.Int("core.edges_kept", stats.edges_kept);
  layer.Num("core.edges_kept_ratio",
            stats.edges_emitted == 0 ? 0.0
                                     : static_cast<double>(stats.edges_kept) /
                                           static_cast<double>(stats.edges_emitted));
  layer.Num("core.replay_ns", med_replay);
  layer.Num("core.replay_ns_per_action", med_replay / actions);
  layer.Num("core.dep_stall_share",
            static_cast<double>(stats.dep_stall) /
                static_cast<double>(std::max<TimeNs>(1, stats.dep_stall + stats.thread_time)));
  layer.Int("sim.switches", stats.switches);
  layer.Num("sim.replay_ns_per_switch",
            med_replay / static_cast<double>(std::max<uint64_t>(1, stats.switches)));
  layer.Num("sim.switch_probe_ns", switch_probe_ns);
  layer.Int("sim.windows", stats.windows);
  layer.Int("sim.workers", stats.workers);
  layer.Num("vfs.restore_ns", restore_ns);
  layer.Int("vfs.snapshot_entries", stats.snapshot_entries);
  const storage::StorageCounters& sc = stats.storage;
  layer.Int("storage.cache_hit_blocks", sc.cache_hit_blocks);
  layer.Int("storage.cache_miss_blocks", sc.cache_miss_blocks);
  const uint64_t lookups = sc.cache_hit_blocks + sc.cache_miss_blocks;
  layer.Num("storage.cache_hit_ratio",
            lookups == 0 ? 0.0
                         : static_cast<double>(sc.cache_hit_blocks) /
                               static_cast<double>(lookups));
  layer.Int("storage.media_read_blocks", sc.media_read_blocks);
  layer.Int("storage.media_write_blocks", sc.media_write_blocks);
  layer.Int("storage.cfq_context_switches", sc.cfq_context_switches);
  layer.Int("storage.service_ns",
            static_cast<uint64_t>(sc.service_cache_ns + sc.service_media_read_ns +
                                  sc.service_media_write_ns + sc.service_writeback_ns));
  layer.Num("critpath.analyze_ns", Median(critpath));
  layer.Num("report.summary_ns", Median(summary));
  layer.Num("obs.trace_overhead_pct",
            traced ? 100.0 * (Median(traced_total) / med_total - 1.0) : 0.0);

  JsonObject o;
  o.Int("hb_edges", oracle.hb_edges);
  o.Int("hb_violations", oracle.hb_violations);
  o.Int("unexecuted", oracle.unexecuted);
  o.Int("ret_mismatches", oracle.ret_mismatches);
  o.Int("replays", oracle.replays);
  o.Str("first_violation", oracle.first_violation);

  JsonObject out;
  out.Str("workload", w.name);
  out.Int("seed", seed);
  out.Int("passes", total.size());
  std::string samples;
  for (double ns : total) {
    samples += (samples.empty() ? "" : ", ") + std::to_string(ns / 1e9);
  }
  out.Raw("pass_s", "[" + samples + "]");
  out.Int("failed_ops_per_pass", stats.failed);
  out.Num("failed_op_share", failed_op_share);
  out.Num("replay_error_pct", timing.error_pct);
  out.Str("fingerprint", stats.fingerprint);
  out.Raw("fingerprints_match", fingerprints_match ? "true" : "false");
  out.Int("trace_dropped_records", dropped_records);
  out.Raw("oracle", o.Done());
  out.Raw("end_to_end", e2e.Done());
  out.Raw("per_layer", layer.Done());
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

int Main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  const WorkloadDef* w = argc > 2 ? FindWorkload(argv[2]) : nullptr;
  if (w == nullptr || (cmd == "setup" && argc != 5) || (cmd == "run" && argc != 7) ||
      (cmd != "setup" && cmd != "run")) {
    std::fprintf(stderr,
                 "usage: perfbench_pipeline setup WORKLOAD SEED DIR\n"
                 "       perfbench_pipeline run WORKLOAD SEED DIR SECONDS TRACE_OUT|-\n"
                 "workloads: rr16-hdd web1m-ssd lock200k-hdd magritte34-x4\n");
    return 2;
  }
  const uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  if (cmd == "setup") {
    return Setup(*w, seed, argv[4]);
  }
  return Run(*w, seed, argv[4], std::strtod(argv[5], nullptr), argv[6]);
}

}  // namespace
}  // namespace artc::perfbench

int main(int argc, char** argv) { return artc::perfbench::Main(argc, argv); }
