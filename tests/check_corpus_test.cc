// Golden-corpus regression: every committed trace bundle in tests/corpus/
// must replay cleanly under a spread of schedules — the default baseline,
// several seeded-random schedules, and a couple of PCT schedules — with the
// invariant oracle green and a schedule-invariant final file-system state.
// The corpus was generated by `check_artc --emit` and is committed so that
// compiler/annotator regressions show up against fixed inputs rather than
// whatever the generator of the day produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/check/explorer.h"
#include "src/trace/trace_io.h"

#ifndef ARTC_CORPUS_DIR
#error "build must define ARTC_CORPUS_DIR"
#endif

namespace artc::check {
namespace {

trace::TraceBundle ReadBundle(const std::string& path) {
  std::ifstream in(path);
  return trace::ReadTraceBundle(in);
}

std::vector<std::string> CorpusPaths() {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(ARTC_CORPUS_DIR)) {
    if (entry.path().extension() == ".trace") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

class CorpusReplay : public testing::TestWithParam<std::string> {};

TEST_P(CorpusReplay, CleanUnderEightSchedules) {
  trace::TraceBundle bundle = ReadBundle(GetParam());
  ASSERT_FALSE(bundle.trace.events.empty());

  ExploreOptions opt;
  opt.seed = 17;
  opt.random_schedules = 5;
  opt.pct_schedules = 2;
  ExploreResult result = ExploreBundle(bundle, opt);
  EXPECT_TRUE(result.ok()) << (result.problems.empty() ? "" : result.problems[0]);
  EXPECT_GE(result.schedules_run, 8u);  // baseline + 5 random + 2 pct
  for (const ScheduleRunSummary& run : result.runs) {
    EXPECT_EQ(run.digest, result.runs[0].digest) << "under " << run.schedule;
  }
}

std::string NameOf(const testing::TestParamInfo<std::string>& info) {
  std::string stem = std::filesystem::path(info.param).stem().string();
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return stem;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusReplay, testing::ValuesIn(CorpusPaths()),
                         NameOf);

// The crafted sync corner-case bundles (sync_*.trace: cross-thread unlock,
// barrier generation wraparound, lost wakeup, join-after-exit, relock) must
// additionally reach one golden final file-system digest under every
// explored schedule. The goldens were recorded when three switch mechanisms
// (one host thread per simulated thread, fibers on the calling thread, and
// fibers on a sharded worker team) agreed.
std::vector<std::string> SyncCorpusPaths() {
  std::vector<std::string> paths;
  for (const std::string& p : CorpusPaths()) {
    if (std::filesystem::path(p).stem().string().rfind("sync_", 0) == 0) {
      paths.push_back(p);
    }
  }
  return paths;
}

class SyncCorpusReplay : public testing::TestWithParam<std::string> {};

TEST_P(SyncCorpusReplay, DigestIdenticalAcrossBackends) {
  trace::TraceBundle bundle = ReadBundle(GetParam());
  ASSERT_FALSE(bundle.trace.events.empty());

  const std::map<std::string, uint64_t> kGoldenDigests = {
      {"sync_barrier_wraparound", 0xbe4e9493b0d5b15bULL},
      {"sync_cond_lost_wakeup", 0x89b6a700f2e39a67ULL},
      {"sync_join_exited_thread", 0xcc425972b1d690deULL},
      {"sync_mutex_relock", 0x89b6a700f2e39a67ULL},
      {"sync_unlock_cross_thread", 0xcd77a8b96006636eULL},
  };
  const std::string stem = std::filesystem::path(GetParam()).stem().string();
  ASSERT_EQ(kGoldenDigests.count(stem), 1u) << "no golden digest for " << stem;

  ExploreOptions opt;
  opt.seed = 23;
  opt.random_schedules = 5;
  opt.pct_schedules = 2;
  ExploreResult result = ExploreBundle(bundle, opt);
  EXPECT_TRUE(result.ok()) << (result.problems.empty() ? "" : result.problems[0]);
  ASSERT_GE(result.schedules_run, 8u);
  ASSERT_FALSE(result.runs.empty());
  for (const ScheduleRunSummary& run : result.runs) {
    EXPECT_EQ(run.digest, kGoldenDigests.at(stem)) << "under " << run.schedule;
  }
}

INSTANTIATE_TEST_SUITE_P(SyncCorpus, SyncCorpusReplay,
                         testing::ValuesIn(SyncCorpusPaths()), NameOf);

// The corpus must not silently shrink: ~10 generated bundles plus the five
// crafted sync corner cases.
TEST(Corpus, HasExpectedSize) { EXPECT_GE(CorpusPaths().size(), 15u); }

TEST(Corpus, HasSyncCornerCases) { EXPECT_GE(SyncCorpusPaths().size(), 5u); }

}  // namespace
}  // namespace artc::check
