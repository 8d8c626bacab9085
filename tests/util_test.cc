#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "src/util/ring_queue.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/strings.h"
#include "src/util/time.h"

namespace artc {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, NextBelowInBounds) {
  Rng r(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(r.NextBelow(bound), bound);
    }
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng r(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, ForkIndependent) {
  Rng r(5);
  Rng child = r.Fork();
  EXPECT_NE(r.Next(), child.Next());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RingQueue, MatchesDequeAcrossWrapAndGrowth) {
  // Seeded pushes and pops against std::deque; the queue wraps and then
  // grows with its head mid-ring.
  util::RingQueue<int> ring;
  std::deque<int> want;
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    if (want.empty() || rng.NextBool(0.55)) {
      ring.push_back(i);
      want.push_back(i);
    } else {
      ASSERT_EQ(ring.front(), want.front());
      ring.pop_front();
      want.pop_front();
    }
    ASSERT_EQ(ring.size(), want.size());
    for (size_t k = 0; k < want.size(); k += 7) {
      ASSERT_EQ(ring[k], want[k]);
    }
  }
}

TEST(Strings, IsOneOfAndJoinNames) {
  const char* const names[] = {"a", "bc", "d"};
  EXPECT_TRUE(IsOneOf("bc", names));
  EXPECT_FALSE(IsOneOf("b", names));
  EXPECT_EQ(JoinNames(names), "a, bc, d");
}

TEST(SampleStats, Basics) {
  SampleStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.Count(), 4u);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 4.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 2.5);
}

TEST(SampleStats, TailMean) {
  SampleStats s;
  for (int i = 1; i <= 10; ++i) {
    s.Add(i);
  }
  // Top 10% of 10 samples = the max.
  EXPECT_DOUBLE_EQ(s.TailMean(0.9), 10.0);
  // Whole-distribution tail mean = mean.
  EXPECT_DOUBLE_EQ(s.TailMean(0.0), 5.5);
}

TEST(Histogram, Buckets) {
  Histogram h({1.0, 10.0, 100.0});
  h.Add(0.5);
  h.Add(5.0);
  h.Add(50.0);
  h.Add(500.0);
  EXPECT_EQ(h.BucketValue(0), 1u);
  EXPECT_EQ(h.BucketValue(1), 1u);
  EXPECT_EQ(h.BucketValue(2), 1u);
  EXPECT_EQ(h.BucketValue(3), 1u);
  EXPECT_EQ(h.Total(), 4u);
}

TEST(Strings, SplitString) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitPath) {
  auto parts = SplitPath("/a//b/c/");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, NormalizePath) {
  EXPECT_EQ(NormalizePath("/a/b/../c"), "/a/c");
  EXPECT_EQ(NormalizePath("/a/./b//"), "/a/b");
  EXPECT_EQ(NormalizePath("/../.."), "/");
  EXPECT_EQ(NormalizePath("/"), "/");
}

TEST(Strings, DirBaseName) {
  EXPECT_EQ(DirName("/a/b"), "/a");
  EXPECT_EQ(DirName("/a"), "/");
  EXPECT_EQ(DirName("/"), "/");
  EXPECT_EQ(BaseName("/a/b"), "b");
  EXPECT_EQ(BaseName("/"), "/");
}

TEST(Strings, JoinPath) {
  EXPECT_EQ(JoinPath("/a", "b"), "/a/b");
  EXPECT_EQ(JoinPath("/a/", "b"), "/a/b");
  EXPECT_EQ(JoinPath("/a", "/abs"), "/abs");
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

TEST(Time, Conversions) {
  EXPECT_EQ(Ms(1), 1000000);
  EXPECT_EQ(Sec(1), 1000000000);
  EXPECT_DOUBLE_EQ(ToSeconds(Sec(2)), 2.0);
}

}  // namespace
}  // namespace artc
