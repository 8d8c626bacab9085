// Differential tests for the streaming compiler: core::CompileStream must
// land on the canonical digest of the batch core::Compile — actions, pruned
// deps, thread/slot tables, edge stats — on real Magritte traces, fuzz
// traces, and through the windowed file driver at several window sizes.
// Both compilers drive the same per-event step, so the digest checks the
// parts that differ: streaming annotation and the file driver.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <utility>
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

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

uint64_t StreamDigest(const trace::Trace& t, const trace::FsSnapshot& snapshot,
                      const CompileOptions& copts) {
  core::CompileStream stream(snapshot, copts);
  for (const trace::TraceEvent& ev : t.events) {
    stream.Push(ev);
  }
  return stream.Finish();
}

// ARTC with the given prune setting, plus the other methods the stream
// compiles (single and unconstrained emit no edges in the step).
void ExpectStreamMatchesBatch(const trace::Trace& t,
                              const trace::FsSnapshot& snapshot, bool prune) {
  for (core::ReplayMethod method :
       {core::ReplayMethod::kArtc, core::ReplayMethod::kSingleThreaded,
        core::ReplayMethod::kUnconstrained}) {
    CompileOptions copts;
    copts.method = method;
    copts.prune_redundant_deps = prune;
    EXPECT_EQ(StreamDigest(t, snapshot, copts),
              core::DigestBenchmark(core::Compile(t, snapshot, copts)))
        << core::ReplayMethodName(method) << " prune=" << prune;
  }
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
      ASSERT_TRUE(core::CompileStreamFile(path, ropts, {}, &res, &diag))
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
      ASSERT_TRUE(core::CompileStreamFile(path, ropts, {}, &res, &diag))
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
  ASSERT_TRUE(core::CompileStreamFile(bin, ropts, {}, &res, &diag))
      << diag.Format();
  EXPECT_EQ(res.digest, core::DigestBenchmark(kept));
  std::remove(bin.c_str());
}

// Golden for every replay method: the canonical digest and the replay
// thread count of the batch compile, on two Magritte traces and one sync
// fuzz trace, with ARTC both pruned and unpruned. Any change to the
// compiler's output under any method moves at least one digest.
TEST(Compiler, PerMethodDigestGolden) {
  struct Variant {
    const char* name;
    core::ReplayMethod method;
    bool prune;
  };
  const Variant variants[] = {
      {"artc", core::ReplayMethod::kArtc, true},
      {"artc-unpruned", core::ReplayMethod::kArtc, false},
      {"single", core::ReplayMethod::kSingleThreaded, true},
      {"temporal", core::ReplayMethod::kTemporal, true},
      {"unconstrained", core::ReplayMethod::kUnconstrained, true},
  };
  struct Golden {
    uint64_t digest;
    size_t threads;
  };
  // Rows follow the trace order below; columns follow `variants`.
  const Golden want[3][5] = {
      {{0x86d0f167f5673a7cull, 4},
       {0xc32d8f08bcbf180full, 4},
       {0xf8407405362982b3ull, 1},
       {0x288adbae025f6683ull, 4},
       {0x31521fe8933a41f5ull, 4}},
      {{0xbbfd1ccaa7f5f822ull, 3},
       {0xdf0768f946c2b9beull, 3},
       {0xb7b07f07b6470505ull, 1},
       {0xdf1ab750f29af679ull, 3},
       {0xc7af709b8c061b69ull, 3}},
      {{0xf87610b0c11fd43bull, 17},
       {0x9db5d883627da1f1ull, 17},
       {0x2f06cf2348d56aa8ull, 1},
       {0x42e3c3f45b442c43ull, 17},
       {0x0b3bf7efac8fcdfeull, 17}},
  };

  std::vector<std::pair<std::string, trace::TraceBundle>> traces;
  workloads::SourceConfig src;
  src.storage = storage::MakeNamedConfig("ssd");
  src.platform = "osx";
  for (const char* name : {"keynote_createphoto", "iphoto_import"}) {
    workloads::TracedRun run =
        workloads::TraceMagritte(workloads::FindMagritteSpec(name), src);
    traces.push_back({name, {std::move(run.trace), std::move(run.snapshot)}});
  }
  check::GenOptions gen;
  gen.seed = 7101;
  gen.threads = 4;
  gen.ops_per_thread = 40;
  gen.sync = true;
  traces.push_back({"sync-fuzz", check::GenerateTrace(gen)});

  for (size_t t = 0; t < traces.size(); ++t) {
    for (size_t v = 0; v < std::size(variants); ++v) {
      CompileOptions copts;
      copts.method = variants[v].method;
      copts.prune_redundant_deps = variants[v].prune;
      const CompiledBenchmark bench =
          core::Compile(traces[t].second.trace, traces[t].second.snapshot, copts);
      EXPECT_EQ(core::DigestBenchmark(bench), want[t][v].digest)
          << traces[t].first << "/" << variants[v].name;
      EXPECT_EQ(bench.thread_actions.size(), want[t][v].threads)
          << traces[t].first << "/" << variants[v].name;
    }
  }
}

}  // namespace
}  // namespace artc
