// Exact-boundary regression tests (PR 3 satellite): a point at distance
// exactly `b` from a pixel row or pixel center sits on the knife edge of
// every inclusion decision in the pipeline. These tests pin the inclusive
// convention — |k - p.y| <= b for envelopes, LB <= q.x (Eq. 19) and the
// strict < exit of Eq. 20 for buckets — and prove the full methods agree
// bitwise with direct evaluation when every intermediate value is exactly
// representable (bandwidth a power of two, coordinates multiples of 1/2).
#include <gtest/gtest.h>

#include <vector>

#include "core/bounds.h"
#include "core/envelope.h"
#include "core/slam_bucket.h"
#include "core/sweep_arena.h"
#include "kdv/engine.h"
#include "kdv/task.h"
#include "testing/test_util.h"

namespace slam {
namespace {

using testing::BruteForceDensity;

constexpr double kBandwidth = 2.0;  // power of two: 1/b and d²/b² are exact

// 8x8 grid with pixel centers at 0.5, 1.5, ..., 7.5 on both axes.
Grid BoundaryGrid() {
  return Grid::Create(GridAxis{0.5, 1.0, 8}, GridAxis{0.5, 1.0, 8})
      .ValueOrDie();
}

/// The live envelope of a one-row grid at `k`: E(k) as the sweep sees it.
std::vector<Point> LiveEnvelopeAt(const std::vector<Point>& points, double k) {
  SweepArena ws;
  LiveEnvelope envelope(points, GridAxis{k, 1.0, 1}, kBandwidth, &ws);
  envelope.Plan();
  envelope.Order();
  const size_t m = envelope.Advance(RowIndex(0));
  std::vector<Point> found;
  for (size_t i = 0; i < m; ++i) found.push_back({ws.ex[i], ws.ey[i]});
  return found;
}

TEST(BoundaryTest, EnvelopeIncludesRowAtDistanceExactlyB) {
  const std::vector<Point> points = {{3.5, 3.5}};
  std::vector<Point> found;
  // Rows exactly b above and below the point: Definition 1 is inclusive.
  for (const double k : {3.5 - kBandwidth, 3.5 + kBandwidth}) {
    FindEnvelope(points, WorldY(k), kBandwidth, &found);
    ASSERT_EQ(found.size(), 1u) << "FindEnvelope at k=" << k;
    EXPECT_EQ(found[0].x, 3.5);
    EXPECT_EQ(found[0].y, 3.5);
    const std::vector<Point> live = LiveEnvelopeAt(points, k);
    ASSERT_EQ(live.size(), 1u) << "LiveEnvelope at k=" << k;
    EXPECT_EQ(live[0].x, found[0].x);
    EXPECT_EQ(live[0].y, found[0].y);
  }
  // One ulp past the boundary row: excluded by both. (Computed directly
  // on the row coordinate — adding a perturbed bandwidth to 3.5 would
  // round back to 5.5.)
  const double beyond = std::nextafter(3.5 + kBandwidth, 10.0);
  FindEnvelope(points, WorldY(beyond), kBandwidth, &found);
  EXPECT_TRUE(found.empty());
  EXPECT_TRUE(LiveEnvelopeAt(points, beyond).empty());
}

TEST(BoundaryTest, BoundIntervalsAtExactRowDistanceCollapseToPoint) {
  // At |k - p.y| == b the sqrt argument is exactly 0 and the interval
  // degenerates to [p.x, p.x] — both endpoints bitwise equal to p.x.
  const std::vector<Point> envelope = {{3.5, 3.5}};
  std::vector<BoundInterval> intervals;
  ComputeBoundIntervals(envelope, /*k=*/WorldY(5.5), kBandwidth, &intervals);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].lb, 3.5);
  EXPECT_EQ(intervals[0].ub, 3.5);
}

TEST(BoundaryTest, BucketClampsAgreeWithSweepConvention) {
  const GridAxis xs{0.5, 1.0, 8};
  // Point at x=3.5, row at the point's own y: LB = 1.5, UB = 5.5 — both
  // landing exactly on pixel centers.
  // LowerBucket: first pixel with LB <= x_i. x_1 = 1.5 qualifies.
  EXPECT_EQ(LowerBucket(WorldX(1.5), xs), 1);
  // UpperBucket: first pixel with UB < x_i (strict, Eq. 20) — the pixel
  // *at* the upper bound still counts, so the exit fires at x_6 = 6.5.
  EXPECT_EQ(UpperBucket(WorldX(5.5), xs), 6);
  // One ulp either side of a pixel center moves exactly one bucket.
  EXPECT_EQ(LowerBucket(WorldX(std::nextafter(1.5, 2.0)), xs), 2);
  EXPECT_EQ(UpperBucket(WorldX(std::nextafter(5.5, 5.0)), xs), 5);
  // Clamps: below the axis -> 0, past the end -> count.
  EXPECT_EQ(LowerBucket(WorldX(-100.0), xs), 0);
  EXPECT_EQ(UpperBucket(WorldX(-100.0), xs), 0);
  EXPECT_EQ(LowerBucket(WorldX(100.0), xs), 8);
  EXPECT_EQ(UpperBucket(WorldX(100.0), xs), 8);
}

TEST(BoundaryTest, ExactDistanceBAgreesBitwiseAcrossMethods) {
  // Single point dead-center; pixels (5, 3), (1, 3), (3, 5), (3, 1) sit at
  // distance exactly b along an axis. Every intermediate quantity — the
  // row-local translation, d², d²/b², the aggregate recombination — is an
  // exact multiple of 1/4 far below 2^53, so all methods must produce the
  // *bitwise* value of direct evaluation, for all three kernels. The
  // uniform kernel is the discriminating one: its boundary value is 1/b,
  // not 0, so an off-by-one-ulp inclusion test shows up as a 0.5 step.
  KdvTask task;
  const std::vector<Point> points = {{3.5, 3.5}};
  task.points = points;
  task.grid = BoundaryGrid();
  task.bandwidth = kBandwidth;
  task.weight = 1.0;
  for (const KernelType kernel :
       {KernelType::kUniform, KernelType::kEpanechnikov,
        KernelType::kQuartic}) {
    task.kernel = kernel;
    const DensityMap direct = BruteForceDensity(task);
    if (kernel == KernelType::kUniform) {
      EXPECT_EQ(direct.at(5, 3), 0.5);  // 1/b at distance exactly b
      EXPECT_EQ(direct.at(1, 3), 0.5);
      EXPECT_EQ(direct.at(3, 5), 0.5);
      EXPECT_EQ(direct.at(3, 1), 0.5);
    }
    for (const Method method :
         {Method::kScan, Method::kSlamSort, Method::kSlamBucket,
          Method::kSlamSortRao, Method::kSlamBucketRao}) {
      const auto map = ComputeKdv(task, method);
      ASSERT_TRUE(map.ok()) << MethodName(method);
      for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
          EXPECT_EQ(map->at(x, y), direct.at(x, y))
              << MethodName(method) << " " << KernelTypeName(kernel)
              << " pixel (" << x << ", " << y << ")";
        }
      }
    }
  }
}

TEST(BoundaryTest, CompensationPreservesExactBoundaryValues) {
  // The Neumaier path must not perturb exactly-representable results.
  KdvTask task;
  const std::vector<Point> points = {{3.5, 3.5}, {4.5, 3.5}, {2.5, 2.5}};
  task.points = points;
  task.grid = BoundaryGrid();
  task.bandwidth = kBandwidth;
  task.weight = 1.0;
  task.kernel = KernelType::kEpanechnikov;
  const DensityMap direct = BruteForceDensity(task);
  for (const bool compensated : {true, false}) {
    EngineOptions options;
    options.compute.compensated_aggregates = compensated;
    for (const Method method : {Method::kSlamSort, Method::kSlamBucket}) {
      const auto map = ComputeKdv(task, method, options);
      ASSERT_TRUE(map.ok()) << MethodName(method);
      for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
          EXPECT_EQ(map->at(x, y), direct.at(x, y))
              << MethodName(method) << " compensated=" << compensated
              << " pixel (" << x << ", " << y << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace slam
