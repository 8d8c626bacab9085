// Tests for the extended core features: concurrent multi-trace replay and
// asynchronous-I/O replay.
#include <gtest/gtest.h>

#include "src/core/artc.h"
#include "src/workloads/magritte.h"

namespace artc::core {
namespace {

using workloads::SourceConfig;
using workloads::TracedRun;

TEST(MultiReplay, TwoMagritteTracesConcurrently) {
  // The paper's overlay use case: iPhoto browsing while iTunes plays.
  SourceConfig src;
  src.storage = storage::MakeNamedConfig("ssd");
  src.platform = "osx";
  workloads::MagritteSpec iphoto = workloads::FindMagritteSpec("iphoto_view");
  iphoto.scale = 40;  // trimmed for test speed
  workloads::MagritteSpec itunes = workloads::FindMagritteSpec("itunes_album");
  TracedRun run_a = workloads::TraceMagritte(iphoto, src);
  TracedRun run_b = workloads::TraceMagritte(itunes, src);

  CompiledBenchmark a = Compile(run_a.trace, run_a.snapshot, {});
  CompiledBenchmark b = Compile(run_b.trace, run_b.snapshot, {});

  // An SSD target: parallel channels let the two replays genuinely overlap
  // (on a single disk, interleaving two seek-heavy replays can legitimately
  // be slower than running them back to back).
  SimTarget target;
  target.storage = storage::MakeNamedConfig("ssd");
  MultiReplayResult multi = ReplayConcurrentlyOnSimTarget({&a, &b}, target);
  ASSERT_EQ(multi.reports.size(), 2u);
  EXPECT_EQ(multi.reports[0].total_events, a.actions.size());
  EXPECT_EQ(multi.reports[1].total_events, b.actions.size());
  // Tolerate only the injected xattr-gap failures.
  EXPECT_LE(multi.reports[0].failed_events, 8u) << multi.reports[0].Summary();
  EXPECT_LE(multi.reports[1].failed_events, 8u) << multi.reports[1].Summary();

  // Concurrent replay overlaps: combined wall < sum of sequential walls,
  // and at least as long as the longer of the two.
  SimReplayResult solo_a = ReplayCompiledOnSimTarget(a, target);
  SimReplayResult solo_b = ReplayCompiledOnSimTarget(b, target);
  EXPECT_LT(multi.wall_time, solo_a.report.wall_time + solo_b.report.wall_time);
  EXPECT_GE(multi.wall_time,
            std::max(solo_a.report.wall_time, solo_b.report.wall_time) * 9 / 10);
}

TEST(AioReplay, EndToEndOnSimBackend) {
  // Hand-written trace: submit two overlapping aio reads, poll one with
  // aio_error, reap both with aio_return. Exercises aio_stage ordering and
  // the helper-thread implementation in the sim backend.
  trace::Trace t;
  auto add = [&t](uint32_t tid, trace::Sys c, int64_t ret,
                  TimeNs at) -> trace::TraceEvent& {
    trace::TraceEvent ev;
    ev.index = t.events.size();
    ev.tid = tid;
    ev.call = c;
    ev.ret = ret;
    ev.enter = at;
    ev.ret_time = at + 500;
    t.events.push_back(ev);
    return t.events.back();
  };
  auto& o = add(1, trace::Sys::kOpen, 3, 0);
  o.path = "/big";
  o.flags = trace::kOpenRead;
  o.fd = 3;
  auto& a1 = add(1, trace::Sys::kAioRead, 0, 1000);
  a1.fd = 3;
  a1.aio_id = 0xA1;
  a1.size = 65536;
  a1.offset = 0;
  auto& a2 = add(1, trace::Sys::kAioRead, 0, 2000);
  a2.fd = 3;
  a2.aio_id = 0xA2;
  a2.size = 65536;
  a2.offset = 1 << 20;
  auto& e1 = add(1, trace::Sys::kAioError, 0, 3000);
  e1.aio_id = 0xA1;
  auto& r1 = add(1, trace::Sys::kAioReturn, 65536, 4000);
  r1.aio_id = 0xA1;
  auto& r2 = add(1, trace::Sys::kAioReturn, 65536, 5000);
  r2.aio_id = 0xA2;
  auto& c = add(1, trace::Sys::kClose, 0, 6000);
  c.fd = 3;

  trace::FsSnapshot snap;
  snap.AddFile("/big", 4ULL << 20);
  snap.Canonicalize();

  CompiledBenchmark bench = Compile(t, snap, {});
  EXPECT_EQ(bench.aio_slot_count, 2u);
  SimTarget target;
  target.storage = storage::MakeNamedConfig("ssd");
  SimReplayResult res = ReplayCompiledOnSimTarget(bench, target);
  EXPECT_EQ(res.report.failed_events, 0u) << res.report.Summary();
  // aio_return must report the read's byte count.
  EXPECT_EQ(res.report.outcomes[4].ret, 65536);
  EXPECT_EQ(res.report.outcomes[5].ret, 65536);
}

TEST(AioReplay, ReusedAiocbGetsFreshGeneration) {
  trace::Trace t;
  auto add = [&t](trace::Sys c, int64_t ret, TimeNs at) -> trace::TraceEvent& {
    trace::TraceEvent ev;
    ev.index = t.events.size();
    ev.tid = 1;
    ev.call = c;
    ev.ret = ret;
    ev.enter = at;
    ev.ret_time = at + 500;
    t.events.push_back(ev);
    return t.events.back();
  };
  auto& o = add(trace::Sys::kOpen, 3, 0);
  o.path = "/f";
  o.flags = trace::kOpenRead;
  o.fd = 3;
  for (int round = 0; round < 3; ++round) {
    auto& sub = add(trace::Sys::kAioRead, 0, 1000 + round * 2000);
    sub.fd = 3;
    sub.aio_id = 7;  // same control block reused
    sub.size = 4096;
    sub.offset = round * 4096;
    auto& ret = add(trace::Sys::kAioReturn, 4096, 2000 + round * 2000);
    ret.aio_id = 7;
  }
  trace::FsSnapshot snap;
  snap.AddFile("/f", 1 << 20);
  snap.Canonicalize();
  CompiledBenchmark bench = Compile(t, snap, {});
  EXPECT_EQ(bench.aio_slot_count, 3u);  // one slot per generation
  SimTarget target;
  target.storage = storage::MakeNamedConfig("ssd");
  SimReplayResult res = ReplayCompiledOnSimTarget(bench, target);
  EXPECT_EQ(res.report.failed_events, 0u) << res.report.Summary();
}

}  // namespace
}  // namespace artc::core
