#include "core/slam_sort.h"

#include <gtest/gtest.h>

#include "testing/full_scan_sweep.h"
#include "testing/test_util.h"

namespace slam {
namespace {

using testing::BruteForceDensity;
using testing::ClusteredPoints;
using testing::ExpectMapsNear;
using testing::MakeGrid;
using testing::RandomPoints;

KdvTask MakeSortTask(const std::vector<Point>& pts, KernelType kernel,
                     double bandwidth, int width, int height, double extent) {
  KdvTask task;
  task.points = pts;
  task.kernel = kernel;
  task.bandwidth = bandwidth;
  task.weight = pts.empty() ? 1.0 : 1.0 / static_cast<double>(pts.size());
  task.grid = MakeGrid(width, height, extent);
  return task;
}

TEST(SlamSortTest, MatchesBruteForceUniformData) {
  const auto pts = RandomPoints(400, 50.0, 229);
  for (const KernelType kernel :
       {KernelType::kUniform, KernelType::kEpanechnikov,
        KernelType::kQuartic}) {
    const KdvTask task = MakeSortTask(pts, kernel, 6.0, 25, 20, 50.0);
    DensityMap out;
    ASSERT_TRUE(ComputeSlamSort(task, {}, &out).ok());
    ExpectMapsNear(BruteForceDensity(task), out, 1e-9,
                   std::string(KernelTypeName(kernel)).c_str());
  }
}

TEST(SlamSortTest, MatchesBruteForceClusteredData) {
  const auto pts = ClusteredPoints(600, 80.0, 4, 233);
  const KdvTask task =
      MakeSortTask(pts, KernelType::kEpanechnikov, 10.0, 32, 24, 80.0);
  DensityMap out;
  ASSERT_TRUE(ComputeSlamSort(task, {}, &out).ok());
  ExpectMapsNear(BruteForceDensity(task), out, 1e-9);
}

TEST(SlamSortTest, IncrementalEnvelopeGivesSameResult) {
  // The live (incremental) envelope against the paper's per-row scan.
  const auto pts = ClusteredPoints(500, 60.0, 3, 239);
  const KdvTask task =
      MakeSortTask(pts, KernelType::kQuartic, 8.0, 20, 20, 60.0);
  DensityMap live_env;
  ASSERT_TRUE(ComputeSlamSort(task, {}, &live_env).ok());
  const DensityMap scan_env =
      testing::FullScanSweep(task, *GetSimdOps(SimdLevel::kAuto).ValueOrDie());
  ExpectMapsNear(scan_env, live_env, 0.0);
}

TEST(SlamSortTest, EmptyPointsGiveZeroRaster) {
  const KdvTask task =
      MakeSortTask({}, KernelType::kEpanechnikov, 2.0, 8, 8, 10.0);
  DensityMap out;
  ASSERT_TRUE(ComputeSlamSort(task, {}, &out).ok());
  EXPECT_EQ(out.MaxValue(), 0.0);
  EXPECT_EQ(out.width(), 8);
}

TEST(SlamSortTest, SinglePointPeaksAtItsPixel) {
  const std::vector<Point> pts{{5.0, 5.0}};
  const KdvTask task =
      MakeSortTask(pts, KernelType::kEpanechnikov, 3.0, 10, 10, 10.0);
  DensityMap out;
  ASSERT_TRUE(ComputeSlamSort(task, {}, &out).ok());
  // Max must be at the pixel containing the point (pixel 5,5 has center
  // exactly on the point).
  double max_v = -1;
  int max_x = -1, max_y = -1;
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x) {
      if (out.at(x, y) > max_v) {
        max_v = out.at(x, y);
        max_x = x;
        max_y = y;
      }
    }
  }
  EXPECT_EQ(max_x, 4);  // centers at 0.5, 1.5, ..., point at 5.0 -> pixel 4 or 5
  EXPECT_TRUE(max_y == 4 || max_y == 5);
  EXPECT_GE(max_v, 0.9);
}

TEST(SlamSortTest, RejectsGaussianKernel) {
  const std::vector<Point> pts{{1, 1}};
  const KdvTask task =
      MakeSortTask(pts, KernelType::kGaussian, 2.0, 4, 4, 10.0);
  DensityMap out;
  EXPECT_TRUE(ComputeSlamSort(task, {}, &out).IsInvalidArgument());
}

TEST(SlamSortTest, RejectsInvalidTask) {
  const std::vector<Point> pts{{1, 1}};
  KdvTask task = MakeSortTask(pts, KernelType::kUniform, 2.0, 4, 4, 10.0);
  task.bandwidth = -1.0;
  DensityMap out;
  EXPECT_FALSE(ComputeSlamSort(task, {}, &out).ok());
}

TEST(SlamSortTest, HonorsDeadline) {
  const auto pts = RandomPoints(20000, 100.0, 241);
  const KdvTask task =
      MakeSortTask(pts, KernelType::kEpanechnikov, 30.0, 400, 400, 100.0);
  const Deadline expired(1e-9);
  ExecContext exec;
  exec.set_deadline(&expired);
  ComputeOptions opts;
  opts.exec = &exec;
  DensityMap out;
  EXPECT_EQ(ComputeSlamSort(task, opts, &out).code(),
            StatusCode::kDeadlineExceeded);
}

TEST(SlamSortTest, BandwidthSmallerThanPixelGap) {
  // Intervals narrower than one pixel: most pixels see no points.
  const std::vector<Point> pts{{5.05, 5.05}};
  const KdvTask task =
      MakeSortTask(pts, KernelType::kEpanechnikov, 0.2, 10, 10, 10.0);
  DensityMap out;
  ASSERT_TRUE(ComputeSlamSort(task, {}, &out).ok());
  ExpectMapsNear(BruteForceDensity(task), out, 1e-12);
}

TEST(SlamSortTest, BandwidthLargerThanWholeGrid) {
  const auto pts = RandomPoints(100, 10.0, 251);
  const KdvTask task =
      MakeSortTask(pts, KernelType::kQuartic, 100.0, 12, 9, 10.0);
  DensityMap out;
  ASSERT_TRUE(ComputeSlamSort(task, {}, &out).ok());
  ExpectMapsNear(BruteForceDensity(task), out, 1e-9);
  // Every pixel sees every point.
  EXPECT_GT(out.MinValue(), 0.0);
}

TEST(SlamSortTest, PointsOutsideGridStillContribute) {
  const std::vector<Point> pts{{-3.0, 5.0}, {13.0, 5.0}};
  const KdvTask task =
      MakeSortTask(pts, KernelType::kEpanechnikov, 5.0, 10, 10, 10.0);
  DensityMap out;
  ASSERT_TRUE(ComputeSlamSort(task, {}, &out).ok());
  ExpectMapsNear(BruteForceDensity(task), out, 1e-12);
  EXPECT_GT(out.at(0, 4), 0.0);  // left edge feels the off-grid point
}

TEST(SlamSortTest, NonSquareGridsAndAnisotropicGaps) {
  const auto pts = RandomPoints(300, 60.0, 257);
  KdvTask task;
  task.points = pts;
  task.kernel = KernelType::kEpanechnikov;
  task.bandwidth = 7.0;
  task.weight = 1.0 / 300.0;
  task.grid = *Grid::Create(GridAxis{0.4, 0.8, 64}, GridAxis{1.0, 3.0, 17});
  DensityMap out;
  ASSERT_TRUE(ComputeSlamSort(task, {}, &out).ok());
  ExpectMapsNear(BruteForceDensity(task), out, 1e-9);
}

}  // namespace
}  // namespace slam
