#include "src/workloads/workload.h"

namespace artc::workloads {

namespace {

TracedRun RunInternal(Workload& w, const SourceConfig& config, bool tracing) {
  sim::Simulation sim(config.seed);
  storage::StorageStack stack(&sim, config.storage);
  vfs::Vfs fs(&sim, &stack, vfs::MakeFsProfile(config.fs_profile),
              vfs::MakePlatformProfile(config.platform));
  TracedRun out;
  out.workload_name = w.Name();
  sim.Spawn("workload-main", [&] {
    w.Setup(fs);
    if (tracing) {
      out.snapshot = fs.CaptureSnapshot();
    }
    stack.DropCaches();  // the run starts on a cold page cache
    vfs::TraceRecorder recorder(&out.trace);
    if (tracing) {
      fs.StartTracing(&recorder);
    }
    AppContext ctx{&sim, &fs};
    TimeNs t0 = sim.Now();
    w.Run(ctx);
    out.elapsed = sim.Now() - t0;
    fs.StopTracing();
    // The recorder appends at call return; consumers expect issue order.
    out.trace.SortByEnterTime();
  });
  sim.Run();
  return out;
}

}  // namespace

TracedRun TraceWorkload(Workload& w, const SourceConfig& config) {
  return RunInternal(w, config, /*tracing=*/true);
}

TimeNs MeasureWorkload(Workload& w, const SourceConfig& config) {
  return RunInternal(w, config, /*tracing=*/false).elapsed;
}

}  // namespace artc::workloads
