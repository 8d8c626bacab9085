// Pacing-mode and initialization-mode coverage: natural predelay against the
// original run, delta init through the replay facade, and cache-state options.
#include <gtest/gtest.h>

#include "src/core/artc.h"
#include "src/workloads/micro.h"

namespace artc::core {
namespace {

using workloads::SourceConfig;
using workloads::TracedRun;

TracedRun ComputeHeavyTrace() {
  // Large compute gaps so pacing effects dominate device time.
  workloads::RandomReaders::Options opt;
  opt.threads = 1;
  opt.reads_per_thread = 40;
  opt.file_bytes = 8ULL << 20;
  opt.compute_per_read = Ms(2);
  workloads::RandomReaders w(opt);
  SourceConfig src;
  src.storage = storage::MakeNamedConfig("ssd");
  return TraceWorkload(w, src);
}

TEST(Pacing, NaturalPredelayTracksTheOriginal) {
  TracedRun run = ComputeHeavyTrace();
  CompiledBenchmark bench = Compile(run.trace, run.snapshot, {});

  auto wall_at = [&](PacingMode pacing) {
    SimTarget target;
    target.storage = storage::MakeNamedConfig("ssd");
    target.replay.pacing = pacing;
    return ReplayCompiledOnSimTarget(bench, target).report.wall_time;
  };

  TimeNs afap = wall_at(PacingMode::kAfap);
  TimeNs natural = wall_at(PacingMode::kNatural);
  EXPECT_LT(afap, natural);
  // Natural replay of a compute-heavy trace approximates the original.
  double err = std::abs(ToSeconds(natural) - ToSeconds(run.elapsed)) /
               ToSeconds(run.elapsed);
  EXPECT_LT(err, 0.1);
}

TEST(Init, DeltaInitThroughFacadeIsSemanticallyEquivalent) {
  TracedRun run = ComputeHeavyTrace();
  CompiledBenchmark bench = Compile(run.trace, run.snapshot, {});
  SimTarget full;
  full.storage = storage::MakeNamedConfig("ssd");
  SimTarget delta = full;
  delta.delta_init = true;
  SimReplayResult a = ReplayCompiledOnSimTarget(bench, full);
  SimReplayResult b = ReplayCompiledOnSimTarget(bench, delta);
  EXPECT_EQ(a.report.failed_events, 0u);
  EXPECT_EQ(b.report.failed_events, 0u);
  EXPECT_EQ(a.report.total_events, b.report.total_events);
}

TEST(Init, WarmCacheOptionSpeedsUpReplay) {
  // Without dropping caches after init, blocks written during initialization
  // stay resident — the Table-3 setup ("did not clear the system page cache
  // between initialization and execution"). Initialization itself does not
  // read data blocks, so warmth shows up via metadata blocks; at minimum the
  // option must not break anything.
  TracedRun run = ComputeHeavyTrace();
  CompiledBenchmark bench = Compile(run.trace, run.snapshot, {});
  SimTarget cold;
  cold.storage = storage::MakeNamedConfig("hdd");
  SimTarget warm = cold;
  warm.drop_caches_after_init = false;
  SimReplayResult a = ReplayCompiledOnSimTarget(bench, cold);
  SimReplayResult b = ReplayCompiledOnSimTarget(bench, warm);
  EXPECT_EQ(a.report.failed_events, 0u);
  EXPECT_EQ(b.report.failed_events, 0u);
  EXPECT_LE(b.report.wall_time, a.report.wall_time);
}

}  // namespace
}  // namespace artc::core
