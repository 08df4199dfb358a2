// Scalar-vs-vector backend equivalence for the sweep methods (DESIGN.md
// §11). Every case renders the identical task twice — once pinned to the
// scalar reference backend, once on the best level this machine detects —
// and holds the pair to each other and to the long-double oracle at the
// repo-wide 1e-9 gate. Widths are chosen odd (31, 33) so the 4-wide AVX2
// loops always leave a remainder tail, the classic place for a vectorized
// sweep to go wrong; the ±1e7 offsets re-run the adversarial-conditioning
// cases through both backends.
//
// On a machine with no vector backend the detected level is scalar and
// the pair comparison is trivially exact; the oracle leg still bites.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "kdv/engine.h"
#include "kdv/task.h"
#include "simd/dispatch.h"
#include "testing/oracle.h"
#include "testing/test_util.h"

namespace slam::testing {
namespace {

constexpr double kMaxRelError = 1e-9;

struct SimdCase {
  KernelType kernel;
  double offset;  // applied to both coordinates
  int width;      // odd: exercises every backend's remainder tail
  Method method;
};

std::string CaseName(const ::testing::TestParamInfo<SimdCase>& info) {
  const SimdCase& c = info.param;
  std::string name(KernelTypeName(c.kernel));
  name += c.offset == 0.0 ? "_O0"
          : c.offset > 0  ? "_OPlus1e7"
                          : "_OMinus1e7";
  name += "_W" + std::to_string(c.width) + "_";
  for (const char ch : MethodName(c.method)) {
    if (ch != '-' && ch != '_') name += ch;
  }
  return name;
}

class SimdEquivalenceTest : public ::testing::TestWithParam<SimdCase> {};

TEST_P(SimdEquivalenceTest, ScalarAndVectorBackendsAgree) {
  const SimdCase& c = GetParam();
  const double extent = 512.0;
  std::vector<Point> points =
      ClusteredPoints(300, extent, /*clusters=*/4, /*seed=*/0xD15);
  for (Point& p : points) {
    p.x += c.offset;
    p.y += c.offset;
  }
  KdvTask task;
  // Odd height too, so the RAO transposition also sweeps odd-length rows.
  const Grid grid =
      MakeGrid(c.width, 21, extent).Translated(-c.offset, -c.offset);
  task.points = points;
  task.grid = grid;
  task.kernel = c.kernel;
  task.bandwidth = 60.0;
  task.weight = 1.0 / 300.0;

  EngineOptions scalar_options = ExactEngineOptions();
  scalar_options.compute.simd = SimdLevel::kScalar;
  EngineOptions vector_options = ExactEngineOptions();
  vector_options.compute.simd = DetectSimdLevel();

  const auto scalar_map = ComputeKdv(task, c.method, scalar_options);
  ASSERT_TRUE(scalar_map.ok()) << scalar_map.status().ToString();
  ASSERT_GT(scalar_map->MaxValue(), 0.0);
  const auto vector_map = ComputeKdv(task, c.method, vector_options);
  ASSERT_TRUE(vector_map.ok()) << vector_map.status().ToString();

  // Backend-vs-backend: the vector paths replay the scalar arithmetic
  // operation for operation, so the pair agrees to the last bit today;
  // the contract (and this gate) is the oracle threshold.
  const auto pair = CompareToReference(*vector_map, *scalar_map);
  ASSERT_TRUE(pair.ok());
  EXPECT_LE(pair->max_rel_error, kMaxRelError)
      << SimdLevelName(DetectSimdLevel()) << " vs scalar: rel "
      << pair->max_rel_error << " at (" << pair->worst_ix << ", "
      << pair->worst_iy << "), got " << pair->worst_value << " expected "
      << pair->worst_reference;

  // Both backends against ground truth.
  const auto reference = ReferenceScan(task);
  ASSERT_TRUE(reference.ok());
  for (const auto* map : {&*scalar_map, &*vector_map}) {
    const auto report = CompareToReference(*map, *reference);
    ASSERT_TRUE(report.ok());
    EXPECT_LE(report->max_rel_error, kMaxRelError);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsOffsetsWidthsMethods, SimdEquivalenceTest,
    ::testing::Values(
        // Every kernel arity (1/4/10 SoA channels) through both sweep
        // methods at both tail widths, well-conditioned.
        SimdCase{KernelType::kUniform, 0.0, 33, Method::kSlamSort},
        SimdCase{KernelType::kUniform, 0.0, 31, Method::kSlamBucket},
        SimdCase{KernelType::kEpanechnikov, 0.0, 33, Method::kSlamSort},
        SimdCase{KernelType::kEpanechnikov, 0.0, 31, Method::kSlamBucket},
        SimdCase{KernelType::kQuartic, 0.0, 33, Method::kSlamSort},
        SimdCase{KernelType::kQuartic, 0.0, 31, Method::kSlamBucket},
        // Adversarial ±1e7 offsets (EPSG:3857 magnitudes).
        SimdCase{KernelType::kEpanechnikov, 1e7, 31, Method::kSlamSort},
        SimdCase{KernelType::kEpanechnikov, -1e7, 33, Method::kSlamBucket},
        SimdCase{KernelType::kQuartic, 1e7, 33, Method::kSlamBucket},
        SimdCase{KernelType::kQuartic, -1e7, 31, Method::kSlamSort},
        SimdCase{KernelType::kUniform, 1e7, 31, Method::kSlamBucket},
        // RAO wrappers: the transposed sweep runs 21-pixel rows.
        SimdCase{KernelType::kEpanechnikov, 0.0, 33, Method::kSlamSortRao},
        SimdCase{KernelType::kQuartic, -1e7, 31, Method::kSlamBucketRao}),
    CaseName);

TEST(SimdEquivalenceTest, UncompensatedPathsAgreeToo) {
  // The plain-summation variant dispatches to different accumulate code in
  // every backend; cover it once per kernel.
  const double extent = 512.0;
  std::vector<Point> points =
      ClusteredPoints(250, extent, /*clusters=*/3, /*seed=*/0xFAB);
  KdvTask task;
  const Grid grid = MakeGrid(33, 9, extent);
  task.points = points;
  task.grid = grid;
  task.bandwidth = 75.0;
  task.weight = 1.0 / 250.0;
  for (const KernelType kernel :
       {KernelType::kUniform, KernelType::kEpanechnikov,
        KernelType::kQuartic}) {
    task.kernel = kernel;
    EngineOptions scalar_options = ExactEngineOptions();
    scalar_options.compute.simd = SimdLevel::kScalar;
    scalar_options.compute.compensated_aggregates = false;
    EngineOptions vector_options = scalar_options;
    vector_options.compute.simd = DetectSimdLevel();
    const auto scalar_map = ComputeKdv(task, Method::kSlamBucket,
                                       scalar_options);
    ASSERT_TRUE(scalar_map.ok());
    const auto vector_map = ComputeKdv(task, Method::kSlamBucket,
                                       vector_options);
    ASSERT_TRUE(vector_map.ok());
    const auto pair = CompareToReference(*vector_map, *scalar_map);
    ASSERT_TRUE(pair.ok());
    EXPECT_LE(pair->max_rel_error, kMaxRelError) << KernelTypeName(kernel);
  }
}

TEST(SimdEquivalenceTest, PinnedUnavailableLevelFailsTheCompute) {
  const double extent = 100.0;
  std::vector<Point> points = RandomPoints(20, extent, /*seed=*/5);
  KdvTask task;
  const Grid grid = MakeGrid(8, 8, extent);
  task.points = points;
  task.grid = grid;
  task.bandwidth = 25.0;
  task.weight = 1.0;
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (SimdLevelAvailable(level)) continue;
    EngineOptions options;
    options.compute.simd = level;
    const auto result = ComputeKdv(task, Method::kSlamSort, options);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << SimdLevelName(level);
  }
}

}  // namespace
}  // namespace slam::testing
