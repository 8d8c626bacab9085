#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <string>
#include <vector>

#include "src/util/flags.h"
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

// The one JSON string escaper behind log lines, Chrome traces, critpath
// reports and sweep rows.
TEST(Strings, AppendJsonEscaped) {
  std::string out = "x";
  AppendJsonEscaped(&out, std::string_view("q\"b\\n\nt\tr\r\x01\x1f \x7f/\xc3\xa9", 17));
  EXPECT_EQ(out, "xq\\\"b\\\\n\\u000at\\u0009r\\u000d\\u0001\\u001f \x7f/\xc3\xa9");
  out.clear();
  AppendJsonEscaped(&out, std::string_view("a\0b", 3));
  EXPECT_EQ(out, "a\\u0000b");
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

// The variables one FlagSet under test binds, with their defaults.
struct FlagVars {
  std::string name = "def";
  uint64_t count = 5;
  uint32_t width = 6;
  bool on = false;
  uint16_t port = 7;
  std::string mode = "a";
  std::string dir;

  // Parses `args` (argv without the program name); "" on success, else the
  // diagnostic.
  std::string Parse(std::vector<const char*> args) {
    util::FlagSet flags;
    flags.String("name", &name);
    flags.Unsigned("count", &count);
    flags.Unsigned("width", &width);
    flags.Switch("on", &on);
    flags.Unsigned("port", &port);
    static constexpr const char* kModes[] = {"a", "b"};
    flags.Choice("mode", &mode, kModes);
    flags.Positional("dir", &dir);
    args.insert(args.begin(), "prog");
    std::string error;
    return flags.Parse(static_cast<int>(args.size()), args.data(), &error)
               ? ""
               : error;
  }
};

TEST(Flags, AcceptsBothSpellingsSwitchesAndOnePositional) {
  FlagVars v;
  EXPECT_EQ(v.Parse({}), "");
  EXPECT_EQ(v.name, "def");
  EXPECT_EQ(v.count, 5u);
  EXPECT_FALSE(v.on);
  EXPECT_EQ(v.port, 7u);

  const std::vector<std::vector<const char*>> spellings = {
      {"--name=x", "--count=7", "--width=4294967295", "--on", "--port=0",
       "--mode=b", "d"},
      {"--name", "x", "--count", "7", "--width", "4294967295", "--on", "--port",
       "0", "--mode", "b", "d"},
      {"d", "--mode=b", "--port", "0", "--on", "--width=4294967295", "--count",
       "7", "--name=x"},
  };
  for (const std::vector<const char*>& args : spellings) {
    FlagVars w;
    EXPECT_EQ(w.Parse(args), "");
    EXPECT_EQ(w.name, "x");
    EXPECT_EQ(w.count, 7u);
    EXPECT_EQ(w.width, 4294967295u);
    EXPECT_TRUE(w.on);
    EXPECT_EQ(w.port, 0u);
    EXPECT_EQ(w.mode, "b");
    EXPECT_EQ(w.dir, "d");
  }

  FlagVars edge;
  EXPECT_EQ(edge.Parse({"--count=18446744073709551615", "--name=", "--port=065535"}), "");
  EXPECT_EQ(edge.count, UINT64_MAX);
  EXPECT_EQ(edge.name, "");
  EXPECT_EQ(edge.port, 65535u);
}

TEST(Flags, RejectsMalformedArguments) {
  struct Case {
    std::vector<const char*> args;
    const char* error;
  };
  const Case cases[] = {
      {{"--nmae=x"}, "unknown flag --nmae"},
      {{"--help"}, "unknown flag --help"},
      {{"-n"}, "unknown flag -n"},
      {{"--on=1"}, "--on takes no value"},
      {{"--count"}, "--count needs a value"},
      {{"--on", "--name"}, "--name needs a value"},
      {{"--count=abc"}, "--count: 'abc' is not a decimal number in [0, 18446744073709551615]"},
      {{"--count", "12x"}, "--count: '12x' is not a decimal number"},
      {{"--count=-1"}, "--count: '-1' is not a decimal number"},
      {{"--count", "-1"}, "--count: '-1' is not a decimal number"},
      {{"--count=+1"}, "--count: '+1' is not a decimal number"},
      {{"--count= 1"}, "--count: ' 1' is not a decimal number"},
      {{"--count="}, "--count: '' is not a decimal number"},
      {{"--count=18446744073709551616"}, "is not a decimal number"},
      {{"--width=4294967296"}, "--width: '4294967296' is not a decimal number in [0, 4294967295]"},
      {{"--port=65536"}, "--port: '65536' is not a decimal number in [0, 65535]"},
      {{"--mode=c"}, "unknown --mode 'c' (expected a, b)"},
      {{"--mode="}, "unknown --mode '' (expected a, b)"},
      {{"d", "e"}, "unexpected argument 'e'"},
  };
  for (const Case& c : cases) {
    FlagVars v;
    const std::string error = v.Parse(c.args);
    EXPECT_NE(error.find(c.error), std::string::npos)
        << c.args[0] << ": got '" << error << "'";
  }
}

TEST(Flags, NumericPositionalAndNoPositionals) {
  uint32_t n = 9;
  util::FlagSet numeric;
  numeric.Positional("n", &n);
  std::string error;
  const char* good[] = {"prog", "12"};
  EXPECT_TRUE(numeric.Parse(2, good, &error));
  EXPECT_EQ(n, 12u);
  const char* bad[] = {"prog", "12x"};
  EXPECT_FALSE(numeric.Parse(2, bad, &error));
  EXPECT_EQ(error, "n: '12x' is not a decimal number in [0, 4294967295]");

  util::FlagSet none;
  const char* stray[] = {"/path/to/prog", "extra"};
  EXPECT_FALSE(none.Parse(2, stray, &error));
  EXPECT_EQ(error, "unexpected argument 'extra'");
  EXPECT_EQ(none.Usage(), "usage: prog");
}

TEST(Flags, UsageListsFlagsThenPositionals) {
  std::string s;
  uint64_t u = 0;
  bool b = false;
  std::string p;
  std::string c;
  const char* const kFormats[] = {"artct", "text"};
  util::FlagSet flags;
  flags.Positional("dir", &p);
  flags.String("out", &s);
  flags.Choice("to", &c, kFormats);
  flags.Unsigned("jobs", &u);
  flags.Switch("text", &b);
  const char* argv[] = {"./build/tool"};
  std::string error;
  ASSERT_TRUE(flags.Parse(1, argv, &error));
  EXPECT_EQ(flags.Usage(),
            "usage: tool [--out=STR] [--to=artct|text] [--jobs=N] [--text] [dir]");
}

}  // namespace
}  // namespace artc
