// Differential tests for the streaming compiler: core::CompileStream must
// produce output bit-identical to the batch core::Compile — same actions,
// same pruned dep arena and offsets, same thread/slot tables, same edge
// stats, same canonical digest — on real Magritte traces, fuzz traces, and
// through the windowed file driver at several window sizes.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/generator.h"
#include "src/core/compile_stream.h"
#include "src/core/compiler.h"
#include "src/trace/binary_trace.h"
#include "src/trace/trace_io.h"
#include "src/workloads/magritte.h"
#include "src/workloads/micro.h"
#include "src/workloads/workload.h"

namespace artc {
namespace {

using core::CompiledBenchmark;
using core::CompileOptions;
using core::CompileStreamOptions;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Field-by-field equality of everything the replayer consumes. The one
// intentional exception is dep_arena_peak_bytes (an allocator observation,
// not an output), which the digest also excludes.
void ExpectBenchEqual(const CompiledBenchmark& a, const CompiledBenchmark& b) {
  ASSERT_EQ(a.actions.size(), b.actions.size());
  for (size_t i = 0; i < a.actions.size(); ++i) {
    EXPECT_EQ(a.actions[i].thread_index, b.actions[i].thread_index) << i;
    EXPECT_EQ(a.actions[i].fd_use_slot, b.actions[i].fd_use_slot) << i;
    EXPECT_EQ(a.actions[i].fd_def_slot, b.actions[i].fd_def_slot) << i;
    EXPECT_EQ(a.actions[i].aio_use_slot, b.actions[i].aio_use_slot) << i;
    EXPECT_EQ(a.actions[i].aio_def_slot, b.actions[i].aio_def_slot) << i;
    EXPECT_EQ(a.actions[i].predelay, b.actions[i].predelay) << i;
  }
  ASSERT_EQ(a.dep_offsets, b.dep_offsets);
  ASSERT_EQ(a.dep_arena.size(), b.dep_arena.size());
  for (size_t i = 0; i < a.dep_arena.size(); ++i) {
    EXPECT_EQ(a.dep_arena[i].event, b.dep_arena[i].event) << i;
    EXPECT_EQ(a.dep_arena[i].kind, b.dep_arena[i].kind) << i;
    EXPECT_EQ(a.dep_arena[i].rule, b.dep_arena[i].rule) << i;
    EXPECT_EQ(a.dep_arena[i].res, b.dep_arena[i].res) << i;
  }
  EXPECT_EQ(a.thread_ids, b.thread_ids);
  EXPECT_EQ(a.thread_actions, b.thread_actions);
  EXPECT_EQ(a.fd_slot_count, b.fd_slot_count);
  EXPECT_EQ(a.aio_slot_count, b.aio_slot_count);
  EXPECT_EQ(a.edge_stats.count_by_rule, b.edge_stats.count_by_rule);
  EXPECT_EQ(a.edge_stats.total_length_ns, b.edge_stats.total_length_ns);
  EXPECT_EQ(a.edge_stats.pruned_by_rule, b.edge_stats.pruned_by_rule);
  EXPECT_EQ(a.model_warnings, b.model_warnings);
  EXPECT_EQ(a.dep_resource_names, b.dep_resource_names);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].index, b.events[i].index) << i;
    EXPECT_EQ(a.events[i].call, b.events[i].call) << i;
    EXPECT_EQ(a.events[i].path, b.events[i].path) << i;
  }
}

void ExpectStreamMatchesBatch(const trace::Trace& t,
                              const trace::FsSnapshot& snapshot, bool prune) {
  CompileOptions copts;
  copts.prune_redundant_deps = prune;
  CompiledBenchmark batch = core::Compile(t, snapshot, copts);
  const uint64_t batch_digest = core::DigestBenchmark(batch);

  // Materialized stream: full structural equality plus digest equality.
  CompileStreamOptions sopts;
  sopts.compile = copts;
  sopts.materialize = true;
  core::CompileStream stream(snapshot, sopts);
  for (const trace::TraceEvent& ev : t.events) {
    stream.Push(ev);
  }
  CompiledBenchmark streamed;
  const uint64_t stream_digest = stream.Finish(&streamed);
  ExpectBenchEqual(batch, streamed);
  EXPECT_EQ(stream_digest, batch_digest);
  EXPECT_EQ(core::DigestBenchmark(streamed), batch_digest);

  // Digest-only stream: same digest without materializing anything.
  sopts.materialize = false;
  core::CompileStream lean(snapshot, sopts);
  for (const trace::TraceEvent& ev : t.events) {
    lean.Push(ev);
  }
  EXPECT_EQ(lean.Finish(nullptr), batch_digest);
}

TEST(CompileStream, MatchesBatchOnMagritteSuite) {
  workloads::SourceConfig src;
  src.storage = storage::MakeNamedConfig("ssd");
  src.platform = "osx";
  // keynote_createphoto is the trace the pruning tests use because the
  // pruner actually fires on it; iphoto_import brings model warnings
  // (xattr-initialization gaps).
  for (const char* name : {"keynote_createphoto", "iphoto_import"}) {
    workloads::TracedRun run =
        workloads::TraceMagritte(workloads::FindMagritteSpec(name), src);
    ExpectStreamMatchesBatch(run.trace, run.snapshot, /*prune=*/true);
    ExpectStreamMatchesBatch(run.trace, run.snapshot, /*prune=*/false);
  }
}

TEST(CompileStream, MatchesBatchOnFuzzTraces) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    check::GenOptions gen;
    gen.seed = 400 + seed;
    gen.threads = 2 + seed % 4;
    gen.ops_per_thread = 50;
    trace::TraceBundle b = check::GenerateTrace(gen);
    ExpectStreamMatchesBatch(b.trace, b.snapshot, /*prune=*/true);
  }
}

// Sync traces route through the annotator's SyncObjectModel (mutex
// generations, barrier fan-in/out, cond tokens, join edges) — the streaming
// compiler must reproduce the batch output for those rules bit-exactly too.
TEST(CompileStream, MatchesBatchOnSyncTraces) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    check::GenOptions gen;
    gen.seed = 7100 + seed;
    gen.threads = 2 + seed % 4;
    gen.ops_per_thread = 40;
    gen.sync = true;
    trace::TraceBundle b = check::GenerateTrace(gen);
    ExpectStreamMatchesBatch(b.trace, b.snapshot, /*prune=*/true);
    ExpectStreamMatchesBatch(b.trace, b.snapshot, /*prune=*/false);
  }
}

TEST(CompileStream, EmptyTrace) {
  trace::Trace t;
  trace::FsSnapshot snap;
  ExpectStreamMatchesBatch(t, snap, /*prune=*/true);
}

TEST(CompileStream, FileDriverDigestStableAcrossWindowSizes) {
  check::GenOptions gen;
  gen.seed = 99;
  gen.threads = 4;
  gen.ops_per_thread = 80;
  trace::TraceBundle b = check::GenerateTrace(gen);
  CompiledBenchmark batch = core::Compile(b.trace, b.snapshot, {});
  const uint64_t want = core::DigestBenchmark(batch);

  const std::string txt = TempPath("cstream_drv.trace");
  trace::WriteTraceBundleFile(b, txt);
  const std::string bin = TempPath("cstream_drv.artct");
  std::string error;
  ASSERT_TRUE(trace::WriteArtctFile(bin, b.trace, b.snapshot, &error,
                                    /*chunk_events=*/32));

  for (const std::string& path : {txt, bin}) {
    for (uint64_t window : {1ull, 17ull, 1000000ull}) {
      trace::StreamReaderOptions ropts;
      ropts.window_events = window;
      core::CompileStreamFileResult res;
      trace::ParseDiag diag;
      ASSERT_TRUE(core::CompileStreamFile(path, ropts, {}, &res, nullptr,
                                          &diag))
          << diag.Format();
      EXPECT_EQ(res.digest, want) << path << " window=" << window;
      EXPECT_EQ(res.events, b.trace.events.size());
      EXPECT_GT(res.peak_state_bytes, 0u);
    }
  }
  std::remove(txt.c_str());
  std::remove(bin.c_str());
}

// Same file-driver invariance for a sync-heavy trace: the text round trip
// carries sync= keys and the ARTCT round trip the v2 sync_id field, and
// every window size must land on the batch digest.
TEST(CompileStream, FileDriverSyncTraceDigestStable) {
  check::GenOptions gen;
  gen.seed = 7200;
  gen.threads = 4;
  gen.ops_per_thread = 40;
  gen.sync = true;
  trace::TraceBundle b = check::GenerateTrace(gen);
  CompiledBenchmark batch = core::Compile(b.trace, b.snapshot, {});
  const uint64_t want = core::DigestBenchmark(batch);

  const std::string txt = TempPath("cstream_sync.trace");
  trace::WriteTraceBundleFile(b, txt);
  const std::string bin = TempPath("cstream_sync.artct");
  std::string error;
  ASSERT_TRUE(trace::WriteArtctFile(bin, b.trace, b.snapshot, &error,
                                    /*chunk_events=*/32));

  for (const std::string& path : {txt, bin}) {
    for (uint64_t window : {1ull, 64ull}) {
      trace::StreamReaderOptions ropts;
      ropts.window_events = window;
      core::CompileStreamFileResult res;
      trace::ParseDiag diag;
      ASSERT_TRUE(core::CompileStreamFile(path, ropts, {}, &res, nullptr,
                                          &diag))
          << diag.Format();
      EXPECT_EQ(res.digest, want) << path << " window=" << window;
      EXPECT_EQ(res.events, b.trace.events.size());
    }
  }
  std::remove(txt.c_str());
  std::remove(bin.c_str());
}

// Golden for the 104k-action random-readers-16 trace (16 threads x 6500
// reads, default source): action, thread and edge counts with pruning on
// and off, and the windowed stream compile of its ARTCT file at a
// 65536-event window landing on the batch digest.
TEST(CompileStream, RandomReaders16Golden) {
  workloads::RandomReaders::Options opt;
  opt.threads = 16;
  opt.reads_per_thread = 6500;
  workloads::RandomReaders workload(opt);
  workloads::TracedRun traced = workloads::TraceWorkload(workload, {});

  CompiledBenchmark kept = core::Compile(traced.trace, traced.snapshot, {});
  CompileOptions unpruned_opts;
  unpruned_opts.prune_redundant_deps = false;
  CompiledBenchmark unpruned =
      core::Compile(traced.trace, traced.snapshot, unpruned_opts);
  EXPECT_EQ(kept.actions.size(), 104032u);
  EXPECT_EQ(kept.thread_actions.size(), 16u);
  EXPECT_EQ(kept.model_warnings, 0u);
  EXPECT_EQ(unpruned.dep_arena.size(), 15u);
  EXPECT_EQ(kept.dep_arena.size(), 15u);
  EXPECT_EQ(kept.edge_stats.TotalPruned(), 0u);
  EXPECT_EQ(kept.dep_arena.size() + kept.edge_stats.TotalPruned(),
            unpruned.dep_arena.size());

  const std::string bin = TempPath("cstream_rr16.artct");
  std::string error;
  ASSERT_TRUE(trace::WriteArtctFile(bin, traced.trace, traced.snapshot, &error))
      << error;
  trace::StreamReaderOptions ropts;
  ropts.window_events = 65536;
  core::CompileStreamFileResult res;
  trace::ParseDiag diag;
  ASSERT_TRUE(core::CompileStreamFile(bin, ropts, {}, &res, nullptr, &diag))
      << diag.Format();
  EXPECT_EQ(res.digest, core::DigestBenchmark(kept));
  std::remove(bin.c_str());
}

}  // namespace
}  // namespace artc
