// Tests of the benchmark's own logic: statistics helpers, the seeded op
// scripts, the sub-lattice oracle check, and the per-pass replay.
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "explore/session.h"
#include "kdv/engine.h"
#include "replay.h"
#include "stats.h"
#include "testing/oracle.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(StatsTest, PercentileInterpolatesBetweenRanks) {
  const std::vector<double> v = {4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 90), 4.6);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Median({7}), 7.0);
  EXPECT_EQ(CountAbove(v, Percentile(v, 50)), 2);
}

TEST(StatsTest, BestPerScriptOpTakesEachOpsLowestRound) {
  // Two rounds of a 3-op script and the first op of a third.
  const std::vector<double> v = {5, 9, 4, 6, 2, 8, 1};
  EXPECT_EQ(BestPerScriptOp(v, 3), (std::vector<double>{1, 2, 4}));
  EXPECT_EQ(BestPerScriptOp(v, 1), (std::vector<double>{1}));
  EXPECT_EQ(BestPerScriptOp({7, 3}, 5), (std::vector<double>{7, 3}));
  EXPECT_TRUE(BestPerScriptOp({}, 4).empty());
}

TEST(StatsTest, QuartilesMatchPythonStatisticsQuantiles) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  Quartiles q = ExclusiveQuartiles(ten);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  q = ExclusiveQuartiles({2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.q2, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
  // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
  q = ExclusiveQuartiles({3, 1, 4, 1, 5});
  EXPECT_DOUBLE_EQ(q.q1, 1.0);
  EXPECT_DOUBLE_EQ(q.q2, 3.0);
  EXPECT_DOUBLE_EQ(q.q3, 4.5);
}

// -- Op scripts ---------------------------------------------------------

std::vector<double> Bandwidths(uint64_t seed, int count) {
  BandwidthCycle cycle(seed);
  std::vector<double> out;
  for (int i = 0; i < count; ++i) out.push_back(cycle.Next());
  return out;
}

std::vector<double> Walk(uint64_t seed, int count) {
  PanZoomWalk walk(seed);
  std::vector<double> out;
  for (int i = 0; i < count; ++i) {
    const ViewOp op = walk.Next();
    out.insert(out.end(), {op.zoom, op.pan_x, op.pan_y});
  }
  return out;
}

std::vector<int64_t> Windows(uint64_t seed, int count) {
  TimeSlider slider(seed, 1514764800, 1593561600);  // 2018-01-01..2020-07-01
  std::vector<int64_t> out;
  for (int i = 0; i < count; ++i) {
    const slam::EventFilter f = slider.Next();
    out.push_back(*f.time_begin);
    out.push_back(*f.time_end);
  }
  return out;
}

TEST(ScriptTest, DeterministicPerSeedAndDifferentAcrossSeeds) {
  EXPECT_EQ(Bandwidths(7, 200), Bandwidths(7, 200));
  EXPECT_NE(Bandwidths(7, 200), Bandwidths(8, 200));
  EXPECT_EQ(Walk(7, 500), Walk(7, 500));
  EXPECT_NE(Walk(7, 500), Walk(8, 500));
  EXPECT_EQ(Windows(7, 200), Windows(7, 200));
  EXPECT_NE(Windows(7, 200), Windows(8, 200));
}

TEST(ScriptTest, BandwidthCycleCoversTheLadderWithoutRepeats) {
  for (uint64_t seed : {1, 2, 3}) {
    const auto f = Bandwidths(seed, 4 * BandwidthCycle::kSteps);
    for (size_t i = 0; i < f.size(); ++i) {
      EXPECT_GE(f[i], 0.5 - 1e-12);
      EXPECT_LE(f[i], 2.0 + 1e-12);
      if (i > 0) {
        EXPECT_NE(f[i], f[i - 1]);
      }
    }
    // Every run renders the same multiset: one full ladder per cycle.
    std::vector<double> first(f.begin(), f.begin() + BandwidthCycle::kSteps);
    std::sort(first.begin(), first.end());
    EXPECT_DOUBLE_EQ(first.front(), 0.5);
    EXPECT_DOUBLE_EQ(first.back(), 2.0);
  }
}

TEST(ScriptTest, TimeSliderVisitsEveryWindowOncePerCycle) {
  const int64_t begin = 1514764800, end = 1593561600;
  for (uint64_t seed : {1, 2, 3}) {
    TimeSlider slider(seed, begin, end);
    // 912 days of data: window starts 0, 7, ..., 819 days in.
    const int n = slider.windows();
    ASSERT_EQ(n, 118);
    std::vector<int64_t> cycle;
    for (int i = 0; i < 2 * n; ++i) {
      const slam::EventFilter f = slider.Next();
      EXPECT_GE(*f.time_begin, begin);
      EXPECT_LE(*f.time_end, end);
      EXPECT_EQ(*f.time_end - *f.time_begin, TimeSlider::kWindow);
      EXPECT_EQ((*f.time_begin - begin) % TimeSlider::kStep, 0);
      if (i < n) {
        cycle.push_back(*f.time_begin);
      } else {
        EXPECT_EQ(*f.time_begin, cycle[i - n]) << "op " << i;
      }
    }
    EXPECT_EQ(std::set<int64_t>(cycle.begin(), cycle.end()).size(),
              static_cast<size_t>(n));
  }
  EXPECT_EQ(TimeSlider(1, begin, begin + TimeSlider::kDay).windows(), 1);
}

TEST(ScriptTest, PanZoomWalkRepeatsItsTour) {
  for (uint64_t seed : {1, 2}) {
    const auto ops = Walk(seed, 2 * PanZoomWalk::TourOps());
    const auto half = ops.begin() + static_cast<long>(ops.size() / 2);
    EXPECT_EQ(std::vector<double>(ops.begin(), half),
              std::vector<double>(half, ops.end()));
  }
}

TEST(ScriptTest, PanZoomWalkStaysInsideTheMbrAndZoomBounds) {
  // A session over a portrait MBR like Seattle's, driven exactly as the
  // pan_zoom workload drives it.
  slam::PointDataset data("mbr");
  data.Add({0.0, 0.0});
  data.Add({14000.0, 28000.0});
  data.Add({7000.0, 9000.0});
  slam::SessionConfig config;
  config.width_px = 72;
  config.height_px = 128;
  config.bandwidth = 500.0;
  auto session = slam::ExplorerSession::Create(data, config);
  ASSERT_TRUE(session.ok());
  const slam::BoundingBox mbr = data.Extent();
  const slam::Point center = mbr.center();
  const int tour = PanZoomWalk::TourOps();
  EXPECT_EQ(tour, 116);
  for (uint64_t seed : {1, 2, 3, 4}) {
    auto s = *session;
    PanZoomWalk walk(seed);
    int zooms = 0, pans = 0, levels_seen = 0;
    for (int i = 0; i < 3 * tour; ++i) {
      const ViewOp op = walk.Next();
      zooms += op.zoom != 1.0;
      pans += op.zoom == 1.0;
      ASSERT_TRUE(ApplyViewOp(&s, op, nullptr).ok());
      const slam::BoundingBox& r = s.viewport().region();
      const double tol = 1e-6 * mbr.width();
      ASSERT_GE(r.min().x, mbr.min().x - tol) << "op " << i;
      ASSERT_GE(r.min().y, mbr.min().y - tol) << "op " << i;
      ASSERT_LE(r.max().x, mbr.max().x + tol) << "op " << i;
      ASSERT_LE(r.max().y, mbr.max().y + tol) << "op " << i;
      const double ratio = r.width() / mbr.width();
      ASSERT_NEAR(r.height() / mbr.height(), ratio, 1e-9);
      // The zoom level: the view is 2^-level of the MBR, level in
      // [0, kMaxLevel].
      const double level = -std::log2(ratio);
      ASSERT_NEAR(level, std::round(level), 1e-9) << "op " << i;
      ASSERT_GE(std::lround(level), 0) << "op " << i;
      ASSERT_LE(std::lround(level), PanZoomWalk::kMaxLevel) << "op " << i;
      levels_seen |= 1 << std::lround(level);
      if ((i + 1) % tour == 0) {
        // Every tour ends back on the full MBR.
        EXPECT_EQ(std::lround(level), 0);
        EXPECT_NEAR(r.center().x, center.x, tol);
        EXPECT_NEAR(r.center().y, center.y, tol);
      }
    }
    EXPECT_EQ(levels_seen, 0b11111);  // 1x .. 1/16x all visited
    EXPECT_EQ(zooms, 3 * 4 * 8);
    EXPECT_EQ(pans, 3 * 4 * 21);
  }
}

TEST(ScriptTest, PanZoomToursVisitEveryQuadrantOnce) {
  for (uint64_t seed : {5, 6}) {
    PanZoomWalk walk(seed);
    double cx = 0.5, cy = 0.5;
    int level = 0;
    int quadrants_seen = 0;
    for (int i = 0; i < PanZoomWalk::TourOps(); ++i) {
      const ViewOp op = walk.Next();
      // A zoom applies first; its pan is in screens of the new view.
      level += op.zoom < 1.0 ? 1 : op.zoom > 1.0 ? -1 : 0;
      const double width = std::ldexp(1.0, -level);
      cx += op.pan_x * width;
      cy += op.pan_y * width;
      if (level == PanZoomWalk::kMaxLevel) {
        quadrants_seen |= 1 << ((cx > 0.5 ? 1 : 0) | (cy > 0.5 ? 2 : 0));
      }
    }
    EXPECT_EQ(quadrants_seen, 0b1111);
  }
}

// -- Sub-lattice oracle check -------------------------------------------

slam::KdvTask SmallTask(const slam::PointDataset& data, int width, int height) {
  auto viewport = slam::Viewport::Create(data.Extent(), width, height);
  EXPECT_TRUE(viewport.ok());
  return slam::MakeTask(data, *viewport, slam::KernelType::kEpanechnikov,
                        900.0);
}

slam::PointDataset SmallData(uint64_t seed, size_t n) {
  slam::Rng rng(seed);
  slam::PointDataset data("small");
  for (size_t i = 0; i < n; ++i) {
    data.Add({rng.Uniform(0, 14000), rng.Uniform(0, 28000)});
  }
  return data;
}

TEST(OracleCheckTest, SubLatticeComparesTheRightPixels) {
  const slam::PointDataset data = SmallData(5, 300);
  const slam::KdvTask task = SmallTask(data, 40, 30);
  auto full = slam::testing::ReferenceScan(task);
  ASSERT_TRUE(full.ok());
  slam::Rng rng(11);
  const SubLattice l = ChooseSubLattice(task.grid, 48, &rng);
  EXPECT_EQ(l.sx, 5);  // ceil(sqrt(40 * 30 / 48))
  EXPECT_EQ(l.nx, (40 - 1 - l.x0) / l.sx + 1);
  // The sub-lattice task's reference is the full reference at exactly the
  // extracted pixels.
  auto sub_task = SubLatticeTask(task, l);
  ASSERT_TRUE(sub_task.ok());
  auto sub_ref = slam::testing::ReferenceScan(*sub_task);
  auto extracted = ExtractSubLattice(*full, l);
  ASSERT_TRUE(sub_ref.ok() && extracted.ok());
  for (int j = 0; j < l.ny; ++j) {
    for (int i = 0; i < l.nx; ++i) {
      const double v = full->at(l.x0 + i * l.sx, l.y0 + j * l.sy);
      EXPECT_EQ(extracted->at(i, j), v);
      EXPECT_NEAR(sub_ref->at(i, j), v, 1e-12 * full->MaxValue());
    }
  }
  // An error on a lattice pixel is caught; one off the lattice is not.
  auto map = slam::ComputeKdv(task, kMethod);
  ASSERT_TRUE(map.ok());
  auto ok = SubLatticeOracleError(task, *map, l);
  ASSERT_TRUE(ok.ok());
  EXPECT_LE(*ok, kOracleTolerance);
  slam::DensityMap on = *map, off = *map;
  on.set(l.x0 + l.sx, l.y0 + l.sy, on.at(l.x0 + l.sx, l.y0 + l.sy) * 1.01 + 1e-3);
  off.set(l.x0 + 1, l.y0, off.at(l.x0 + 1, l.y0) * 1.01 + 1e-3);
  EXPECT_GT(*SubLatticeOracleError(task, on, l), kOracleTolerance);
  EXPECT_LE(*SubLatticeOracleError(task, off, l), kOracleTolerance);
}

TEST(OracleCheckTest, RejectsALatticeOutsideTheGrid) {
  const slam::PointDataset data = SmallData(2, 20);
  const slam::KdvTask task = SmallTask(data, 10, 10);
  SubLattice l;
  l.x0 = 5;
  l.sx = 3;
  l.nx = 3;  // 5 + 2*3 = 11 > 9
  l.ny = 1;
  EXPECT_FALSE(SubLatticeTask(task, l).ok());
}

// -- Replay ---------------------------------------------------------------

TEST(ReplayTest, BitIdenticalToComputeKdvInBothOrientations) {
  const slam::PointDataset data = SmallData(9, 2000);
  for (const auto& [w, h] : {std::pair{64, 48}, std::pair{36, 64}}) {
    const slam::KdvTask task = SmallTask(data, w, h);
    auto expected = slam::ComputeKdv(task, kMethod);
    auto replay = ReplayRender(task);
    ASSERT_TRUE(expected.ok() && replay.ok());
    EXPECT_TRUE(BitIdentical(replay->map, *expected)) << w << "x" << h;
    EXPECT_EQ(replay->transposed, h > w);
    EXPECT_EQ(replay->rows, std::min(w, h));
    EXPECT_EQ(replay->pixels, int64_t{w} * h);
    EXPECT_EQ(replay->points_scanned, replay->rows * 2000);
    EXPECT_EQ(static_cast<int64_t>(replay->row_envelope.size()), replay->rows);
    EXPECT_GT(replay->envelope_points, 0);
    EXPECT_LE(replay->envelope_max, 2000);
    EXPECT_LE(replay->parked_endpoints, 2 * replay->envelope_points);
    for (double ms : replay->pass_ms) EXPECT_GE(ms, 0.0);
  }
}

TEST(ReplayTest, DetectsADifferentRaster) {
  const slam::PointDataset data = SmallData(4, 500);
  const slam::KdvTask task = SmallTask(data, 20, 16);
  auto replay = ReplayRender(task);
  ASSERT_TRUE(replay.ok());
  slam::DensityMap other = replay->map;
  other.set(3, 3, std::nextafter(other.at(3, 3), 1.0));
  EXPECT_FALSE(BitIdentical(replay->map, other));
}

TEST(ReplayTest, StripesMatchParallelFor) {
  // 960 rows on 4 threads: ParallelFor cuts 2 chunks per worker.
  const auto s = ParallelStripes(960, 4);
  ASSERT_EQ(s.size(), 8u);
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i].first, static_cast<int>(i) * 120);
    EXPECT_EQ(s[i].second, static_cast<int>(i + 1) * 120);
  }
  EXPECT_EQ(ParallelStripes(10, 4).back().second, 10);
  EXPECT_EQ(ParallelStripes(5, 1).size(), 1u);
  // ComputeKdvParallel runs exactly the stripes ParallelStripes reports.
  const slam::PointDataset data = SmallData(5, 300);
  const slam::KdvTask task = SmallTask(data, 20, 30);
  for (int threads : {1, 2, 4}) {
    auto ran = CountParallelStripes(task, threads);
    ASSERT_TRUE(ran.ok()) << ran.status().ToString();
    EXPECT_EQ(*ran, static_cast<int>(ParallelStripes(30, threads).size()))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace perfbench
