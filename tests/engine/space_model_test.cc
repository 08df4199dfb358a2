#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "kdv/engine.h"
#include "testing/test_util.h"
#include "util/exec_context.h"

namespace slam {
namespace {

TEST(SpaceModelTest, ScanNeedsNoAuxiliarySpace) {
  EXPECT_EQ(EstimateAuxiliarySpaceBytes(Method::kScan, 1000000, 1280, 960),
            0u);
}

TEST(SpaceModelTest, GrowsLinearlyInN) {
  for (const Method m : AllMethods()) {
    if (m == Method::kScan) continue;
    const size_t small = EstimateAuxiliarySpaceBytes(m, 100000, 1280, 960);
    const size_t large = EstimateAuxiliarySpaceBytes(m, 400000, 1280, 960);
    EXPECT_GT(large, small) << MethodName(m);
    // Theorem 4: O(n) auxiliary — quadrupling n at most ~quadruples bytes.
    EXPECT_LE(large, small * 4 + (1 << 20)) << MethodName(m);
  }
}

TEST(SpaceModelTest, AllMethodsWithinSmallFactorOfEachOther) {
  // Figure 17's observation: space consumption of all methods is similar.
  size_t min_bytes = SIZE_MAX, max_bytes = 0;
  for (const Method m : AllMethods()) {
    if (m == Method::kScan) continue;
    const size_t bytes = EstimateAuxiliarySpaceBytes(m, 1000000, 1280, 960);
    min_bytes = std::min(min_bytes, bytes);
    max_bytes = std::max(max_bytes, bytes);
  }
  EXPECT_LT(static_cast<double>(max_bytes) / static_cast<double>(min_bytes),
            10.0);
}

TEST(SpaceModelTest, RaoBucketUsesLongerAxis) {
  // Tall viewport: RAO's buckets span the (longer) y axis.
  const size_t tall =
      EstimateAuxiliarySpaceBytes(Method::kSlamBucketRao, 1000, 100, 100000);
  const size_t base =
      EstimateAuxiliarySpaceBytes(Method::kSlamBucket, 1000, 100, 100000);
  EXPECT_GT(tall, base);
}

/// Peak bytes a SLAM compute charges against an ample budget, measured on
/// a fresh thread so the sweep arena starts cold (a warm thread arena
/// holds capacity from earlier tasks, which the estimate does not cover).
size_t ColdPeakBytes(const KdvTask& task, Method method) {
  MemoryBudget budget(size_t{1} << 30);
  std::thread worker([&] {
    ExecContext exec;
    exec.set_memory_budget(&budget);
    EngineOptions opts;
    opts.compute.exec = &exec;
    const auto result = ComputeKdv(task, method, opts);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });
  worker.join();
  EXPECT_EQ(budget.used_bytes(), 0u);
  return budget.peak_bytes();
}

TEST(SpaceModelTest, EstimateCoversColdPeakOfDenseAndSparseTasks) {
  const std::vector<Point> points = testing::RandomPoints(3000, 100.0, 613);
  for (const double bandwidth : {500.0, 4.0}) {
    // 500 spans every row and column, so max |E(k)| = n (the estimate's
    // worst case); 4 keeps a few percent of the points per line.
    // 40x64 makes RAO transpose; 64x40 is the plain row sweep.
    for (const auto& [width, height] : {std::pair{64, 40}, std::pair{40, 64}}) {
      KdvTask task;
      task.points = points;
      task.bandwidth = bandwidth;
      task.weight = 1.0 / 3000.0;
      task.grid = testing::MakeGrid(width, height, 100.0);
      for (const Method method : {Method::kSlamBucket, Method::kSlamBucketRao}) {
        SCOPED_TRACE(::testing::Message() << MethodName(method) << " b="
                                          << bandwidth << " " << width << "x"
                                          << height);
        const size_t peak = ColdPeakBytes(task, method);
        EXPECT_GT(peak, 0u);
        EXPECT_LE(peak, EstimateAuxiliarySpaceBytes(method, points.size(),
                                                    width, height));
      }
    }
  }
}

}  // namespace
}  // namespace slam
