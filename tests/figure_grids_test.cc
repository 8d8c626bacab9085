// Goldens for the paper's Figs 5(a)-7, one per committed grid in
// bench/grids: every figure traces a program on a source system, replays it
// with single-threaded, temporal and ARTC ordering on a target system, and
// compares each replay with the original program run on that target. Each
// test runs its grid through the sweep engine and pins the sum of the
// cells' end times and the sum of their originals' times, so a change that
// moves any one replay or original by 1 ns fails. The constants were
// recorded from the per-figure bench mains the grids replace.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sweep/sweep.h"

namespace artc::sweep {
namespace {

struct Sums {
  size_t cells = 0;
  TimeNs end_ns = 0;
  TimeNs orig_ns = 0;
};

Sums RunGrid(const std::string& name) {
  std::vector<SweepGrid> grids;
  std::string error;
  EXPECT_TRUE(ParseGridFile(std::string(ARTC_GRIDS_DIR) + "/" + name, &grids, &error))
      << error;
  SweepPlan plan;
  EXPECT_TRUE(BuildSweepPlan(std::move(grids), &plan, &error)) << error;
  SweepOptions options;
  options.include_host_time = false;
  const SweepReport report = RunSweep(plan, options);
  Sums sums;
  for (const CellStats& s : report.stats) {
    ++sums.cells;
    sums.end_ns += s.end_ns;
    sums.orig_ns += s.orig_ns;
  }
  EXPECT_EQ(report.failed_cells, 0u);
  return sums;
}

TEST(FigureGrids, Fig5aGolden) {
  const Sums sums = RunGrid("fig5a.grid");
  EXPECT_EQ(sums.cells, 9u);
  EXPECT_EQ(sums.end_ns, 123437158763);
  EXPECT_EQ(sums.orig_ns, 99320672061);
}

TEST(FigureGrids, Fig5bGolden) {
  const Sums sums = RunGrid("fig5b.grid");
  EXPECT_EQ(sums.cells, 6u);
  EXPECT_EQ(sums.end_ns, 53823650836);
  EXPECT_EQ(sums.orig_ns, 50398769973);
}

TEST(FigureGrids, Fig5cGolden) {
  const Sums sums = RunGrid("fig5c.grid");
  EXPECT_EQ(sums.cells, 6u);
  EXPECT_EQ(sums.end_ns, 169419583839);
  EXPECT_EQ(sums.orig_ns, 158594704272);
}

TEST(FigureGrids, Fig5dGolden) {
  const Sums sums = RunGrid("fig5d.grid");
  EXPECT_EQ(sums.cells, 6u);
  EXPECT_EQ(sums.end_ns, 3263730071);
  EXPECT_EQ(sums.orig_ns, 3371731743);
}

TEST(FigureGrids, Fig6Golden) {
  const Sums sums = RunGrid("fig6.grid");
  EXPECT_EQ(sums.cells, 42u);
  EXPECT_EQ(sums.end_ns, 21528301786);
  EXPECT_EQ(sums.orig_ns, 20955060966);
}

TEST(FigureGrids, Fig7Golden) {
  const Sums sums = RunGrid("fig7.grid");
  EXPECT_EQ(sums.cells, 168u);
  EXPECT_EQ(sums.end_ns, 1437309187674);
  EXPECT_EQ(sums.orig_ns, 754883169324);
}

}  // namespace
}  // namespace artc::sweep
