// The live envelope (core/envelope.h) against the paper's per-row scan:
// every row's lanes must equal the scalar envelope_filter's output bit for
// bit — the same |E(k)|, the same points, in the same (input) order — and
// the sweep built on it must reproduce the full-scan raster exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/envelope.h"
#include "core/sweep_arena.h"
#include "kdv/engine.h"
#include "kdv/task.h"
#include "simd/sweep_ops.h"
#include "testing/full_scan_sweep.h"
#include "testing/test_util.h"
#include "util/random.h"

namespace slam {
namespace {

using testing::FullScanSweepRao;
using testing::RandomPoints;

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Runs the live envelope over every row of `rows` and checks each row
/// against the scalar full scan. Returns Σ|E(k)| so callers can assert the
/// case actually exercised members.
size_t ExpectMatchesScan(const std::vector<Point>& points,
                         const GridAxis& rows, double bandwidth) {
  SweepArena ws;
  LiveEnvelope envelope(points, rows, bandwidth, &ws);
  envelope.Plan();
  envelope.Order();
  const SimdOps* scalar = GetScalarOps();
  std::vector<double> sx(points.size()), sy(points.size());
  size_t total = 0;
  size_t largest = 0;
  for (RowIndex iy(0); iy < RowIndex(rows.count); ++iy) {
    const double k = rows.Coord(iy.value());
    const size_t m = envelope.Advance(iy);
    const size_t expected =
        scalar->envelope_filter(points, k, bandwidth, sx.data(), sy.data());
    EXPECT_EQ(m, expected) << "row " << iy.value() << " k=" << k;
    if (m != expected) return total;
    for (size_t i = 0; i < m; ++i) {
      const bool same = SameBits(ws.ex[i], sx[i]) && SameBits(ws.ey[i], sy[i]);
      EXPECT_TRUE(same) << "row " << iy.value() << " member " << i;
      if (!same) return total;
      // The index lane names the member: input order means ascending.
      const Point& p = points[static_cast<size_t>(ws.eidx[i])];
      EXPECT_TRUE(SameBits(p.x, ws.ex[i]) && SameBits(p.y, ws.ey[i]));
      if (i > 0) {
        EXPECT_LT(ws.eidx[i - 1], ws.eidx[i]);
      }
    }
    total += m;
    largest = std::max(largest, m);
  }
  // The lanes are sized to the largest envelope, which Plan() finds exactly.
  EXPECT_EQ(envelope.max_size(), largest);
  return total;
}

// Rows at 0.5, 1.5, ..., 7.5.
constexpr GridAxis kRows{0.5, 1.0, 8};

TEST(LiveEnvelopeTest, BoundaryIsInclusiveAtExactlyKPlusMinusB) {
  // b = 2 and half-integer coordinates: every k − y below is exact, so the
  // points at y = k ± b sit exactly on the predicate's edge.
  constexpr double b = 2.0;
  std::vector<Point> points;
  for (int r = 0; r < kRows.count; ++r) {
    const double k = kRows.Coord(r);
    points.push_back({1.0 * r, k + b});
    points.push_back({1.0 * r, k - b});
    points.push_back({1.0 * r, std::nextafter(k + b, 100.0)});
    points.push_back({1.0 * r, std::nextafter(k - b, -100.0)});
  }
  EXPECT_GT(ExpectMatchesScan(points, kRows, b), 0u);

  // A single point: its envelope runs exactly over the rows at k − b ..
  // k + b, both ends included.
  const std::vector<Point> one = {{3.5, 3.5}};
  SweepArena ws;
  LiveEnvelope envelope(one, kRows, b, &ws);
  envelope.Plan();
  envelope.Order();
  for (RowIndex iy(0); iy < RowIndex(kRows.count); ++iy) {
    const double k = kRows.Coord(iy.value());
    EXPECT_EQ(envelope.Advance(iy), std::abs(k - 3.5) <= b ? 1u : 0u)
        << "k=" << k;
  }
}

TEST(LiveEnvelopeTest, WindowsBetweenTwoRowsNeverEnter) {
  // b < gap / 2: a point halfway between two rows misses both.
  constexpr double b = 0.3;
  std::vector<Point> points;
  for (int r = 0; r < kRows.count; ++r) {
    points.push_back({0.0, kRows.Coord(r) + 0.5});   // between rows
    points.push_back({1.0, kRows.Coord(r) + 0.25});  // near row r only
    points.push_back({2.0, kRows.Coord(r)});         // on row r
  }
  const size_t total = ExpectMatchesScan(points, kRows, b);
  EXPECT_EQ(total, 2u * static_cast<size_t>(kRows.count));
}

TEST(LiveEnvelopeTest, DuplicateYValuesKeepInputOrder) {
  std::vector<Point> points;
  for (int i = 0; i < 60; ++i) {
    // Three y values, interleaved, so equal keys are far apart in input.
    points.push_back({static_cast<double>(i), 2.0 + 1.5 * (i % 3)});
  }
  EXPECT_GT(ExpectMatchesScan(points, kRows, 1.25), 0u);
}

TEST(LiveEnvelopeTest, RowsOutsideDataAreEmpty) {
  // Points above and below every row, and one inside, in mixed order.
  const std::vector<Point> points = {
      {1.0, -50.0}, {2.0, 3.0}, {3.0, 1000.0}, {4.0, -1.5}, {5.0, 10.6}};
  EXPECT_EQ(ExpectMatchesScan(points, kRows, 2.0), 5u);
  // A grid far away from the data sees nothing at all.
  EXPECT_EQ(ExpectMatchesScan(points, GridAxis{5000.0, 1.0, 16}, 2.0), 0u);
  EXPECT_EQ(ExpectMatchesScan(points, GridAxis{-5000.0, 1.0, 16}, 2.0), 0u);
}

TEST(LiveEnvelopeTest, OneRowGrid) {
  const auto points = RandomPoints(300, 10.0, 701);
  EXPECT_GT(ExpectMatchesScan(points, GridAxis{5.0, 1.0, 1}, 1.5), 0u);
}

TEST(LiveEnvelopeTest, EmptyInputAndSinglePoint) {
  EXPECT_EQ(ExpectMatchesScan(std::vector<Point>{}, kRows, 2.0), 0u);
  EXPECT_EQ(ExpectMatchesScan(std::vector<Point>{{1.0, 4.0}}, kRows, 2.0),
            4u);
  EXPECT_EQ(ExpectMatchesScan(std::vector<Point>{{1.0, 40.0}}, kRows, 2.0),
            0u);
}

TEST(LiveEnvelopeTest, FarOffsetWithTinyGap) {
  // EPSG:3857-scale offsets: rows at 1e7 + i * 1e-3, where k − y rounds
  // on the scale of ulp(1e7) ≈ 1.9e-9 and the entry-row estimate can miss.
  Rng rng(709);
  const GridAxis rows{1e7, 1e-3, 200};
  std::vector<Point> points;
  for (int i = 0; i < 2000; ++i) {
    points.push_back({rng.Uniform(0.0, 1.0), 1e7 + rng.Uniform(-0.05, 0.25)});
  }
  // Points exactly on row coordinates ± b, as computed in double.
  for (int r = 0; r < rows.count; r += 7) {
    points.push_back({0.5, rows.Coord(r) + 0.01});
    points.push_back({0.5, rows.Coord(r) - 0.01});
  }
  EXPECT_GT(ExpectMatchesScan(points, rows, 0.01), 0u);
  // A gap below the coordinates' ulp: consecutive rows share coordinates,
  // the estimate is off by several rows, and the binary-search fallback
  // decides.
  const GridAxis crowded{1e7, 1e-10, 500};
  std::vector<Point> near;
  for (int j = -20; j <= 80; ++j) near.push_back({0.5, 1e7 + j * 1e-9});
  EXPECT_GT(ExpectMatchesScan(near, crowded, 1e-8), 0u);
}

TEST(LiveEnvelopeTest, MatchesLinearScan) {
  Rng rng(191);
  for (int trial = 0; trial < 40; ++trial) {
    const auto points =
        RandomPoints(500 + static_cast<size_t>(trial) * 20, 100.0,
                     181 + static_cast<uint64_t>(trial));
    const int count = 1 + static_cast<int>(rng.NextBelow(90));
    const GridAxis rows{rng.Uniform(-20.0, 60.0), rng.Uniform(0.05, 3.0),
                        count};
    const double b = rng.Uniform(0.01, 25.0);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " b=" << b);
    ExpectMatchesScan(points, rows, b);
  }
}

TEST(LiveEnvelopeTest, DenseBandwidthKeepsEveryPointOnEveryRow) {
  // b spans the whole axis: max |E(k)| = n, the space model's worst case.
  const auto points = RandomPoints(400, 8.0, 719);
  EXPECT_EQ(ExpectMatchesScan(points, kRows, 100.0), 400u * 8u);
}

/// ComputeKdv's raster equals the five-pass full-scan driver bit for bit.
TEST(LiveEnvelopeRasterTest, BitIdenticalToFullScanDriver) {
  const auto points = testing::ClusteredPoints(1500, 100.0, 5, 727);
  const SimdOps* ops = GetSimdOps(SimdLevel::kAuto).ValueOrDie();
  for (const KernelType kernel :
       {KernelType::kEpanechnikov, KernelType::kQuartic,
        KernelType::kUniform}) {
    // Landscape (no transposition) and portrait (RAO transposes).
    for (const auto& [width, height] : {std::pair{48, 30}, std::pair{20, 56}}) {
      KdvTask task;
      task.points = points;
      task.kernel = kernel;
      task.bandwidth = 9.0;
      task.weight = 1.0 / 1500.0;
      task.grid = testing::MakeGrid(width, height, 100.0);
      for (const Method method : {Method::kSlamBucket, Method::kSlamBucketRao}) {
        SCOPED_TRACE(::testing::Message()
                     << MethodName(method) << " " << KernelTypeName(kernel)
                     << " " << width << "x" << height);
        const auto got = ComputeKdv(task, method);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const DensityMap expected =
            method == Method::kSlamBucketRao
                ? FullScanSweepRao(task, *ops)
                : testing::FullScanSweep(task, *ops);
        const auto a = got->values();
        const auto e = expected.values();
        ASSERT_EQ(a.size(), e.size());
        for (size_t i = 0; i < a.size(); ++i) {
          ASSERT_TRUE(SameBits(a[i], e[i])) << "pixel " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace slam
