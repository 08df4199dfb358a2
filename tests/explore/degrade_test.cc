// The degradation ladder (explore/degrade.h): the mode vocabulary and
// RenderOnLadder, the one loop that ExplorerSession::RenderAdaptive and
// `slam_kdv --degrade` both call.
#include "explore/degrade.h"

#include <gtest/gtest.h>

#include <utility>

#include "data/generators.h"
#include "explore/viewport_ops.h"
#include "kdv/bandwidth.h"
#include "util/exec_context.h"
#include "util/timer.h"

namespace slam {
namespace {

PointDataset LadderData() {
  return *GenerateCityDataset(City::kSeattle, 0.003, 11);  // ~2.6k points
}

/// Runs the ladder over `data`'s MBR at 40x30 with one halving.
Result<RenderOutcome> RunLadder(const PointDataset& data, DegradeMode mode,
                                const ExecContext* exec) {
  const Viewport viewport = *DatasetViewport(data, 40, 30);
  EngineOptions engine;
  engine.compute.exec = exec;
  return RenderOnLadder(data, viewport, KernelType::kEpanechnikov,
                        *ScottBandwidth(data.coords()), Method::kSlamBucket,
                        engine, mode, /*max_halvings=*/1,
                        /*rung_budget_seconds=*/0.0);
}

TEST(DegradeTest, ModeNamesAcceptTheCliVocabulary) {
  const std::pair<const char*, DegradeMode> cases[] = {
      {"off", DegradeMode::kOff},         {"none", DegradeMode::kOff},
      {"halfres", DegradeMode::kHalfRes}, {"half-res", DegradeMode::kHalfRes},
      {"half", DegradeMode::kHalfRes},    {"sample", DegradeMode::kSample},
      {"sampled", DegradeMode::kSample},  {"SAMPLE", DegradeMode::kSample}};
  for (const auto& [name, mode] : cases) {
    const auto parsed = DegradeModeFromName(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, mode) << name;
  }
  for (const DegradeMode mode :
       {DegradeMode::kOff, DegradeMode::kHalfRes, DegradeMode::kSample}) {
    EXPECT_EQ(*DegradeModeFromName(DegradeModeName(mode)), mode);
  }
  EXPECT_TRUE(DegradeModeFromName("quarter").status().IsInvalidArgument());
  EXPECT_TRUE(DegradeModeFromName("").status().IsInvalidArgument());
}

TEST(DegradeTest, SampledRungUsesZorderAtCoarsestResolution) {
  // Every SLAM_BUCKET rung needs ~88 bytes per point, whatever the
  // resolution; the Z-order rung needs 16. A budget between the two
  // exhausts both exact rungs and leaves only the sampled one.
  const PointDataset data = LadderData();
  const size_t exact = EstimateAuxiliarySpaceBytes(Method::kSlamBucket,
                                                   data.size(), 20, 15);
  const size_t sampled =
      EstimateAuxiliarySpaceBytes(Method::kZorder, data.size(), 20, 15);
  ASSERT_LT(sampled, exact);
  MemoryBudget budget((sampled + exact) / 2);
  ExecContext exec;
  exec.set_memory_budget(&budget);
  const auto outcome = RunLadder(data, DegradeMode::kSample, &exec);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->degrade_level, 2);
  EXPECT_EQ(outcome->fidelity, Fidelity::kSampled);
  EXPECT_EQ(outcome->method, Method::kZorder);
  EXPECT_EQ(outcome->map.width(), 20);
  EXPECT_EQ(outcome->map.height(), 15);
  EXPECT_TRUE(outcome->full_res_status.IsResourceExhausted());

  // The same budget without the sampled rung has no answer.
  EXPECT_TRUE(RunLadder(data, DegradeMode::kHalfRes, &exec)
                  .status()
                  .IsResourceExhausted());
}

TEST(DegradeTest, OffModeRunsOneRung) {
  const PointDataset data = LadderData();
  FaultInjector injector;
  injector.Arm("engine/start", 0, Status::ResourceExhausted("injected"));
  ExecContext exec;
  exec.set_fault_injector(&injector);
  EXPECT_TRUE(
      RunLadder(data, DegradeMode::kOff, &exec).status().IsResourceExhausted());
  EXPECT_EQ(injector.HitCount("engine/start"), 1);
  // kSample with one halving tries full, half and sampled: three rungs.
  EXPECT_TRUE(RunLadder(data, DegradeMode::kSample, &exec)
                  .status()
                  .IsResourceExhausted());
  EXPECT_EQ(injector.HitCount("engine/start"), 1 + 3);
}

TEST(DegradeTest, CancellationIsFinal) {
  const PointDataset data = LadderData();
  CancellationToken token;
  token.Cancel();
  FaultInjector injector;  // pure hit counter
  ExecContext exec;
  exec.set_cancellation(&token);
  exec.set_fault_injector(&injector);
  const auto outcome = RunLadder(data, DegradeMode::kSample, &exec);
  EXPECT_TRUE(outcome.status().IsCancelled());
  EXPECT_EQ(injector.HitCount("engine/start"), 1);  // no lower rung tried
}

TEST(DegradeTest, ExpiredRequestDeadlineFailsEveryRungBeforeWork) {
  // A request deadline carried in the caller's ExecContext is shared by
  // all rungs, so once it has expired each rung fails at its first
  // checkpoint and the caller sees DeadlineExceeded.
  const PointDataset data = LadderData();
  const Deadline expired(0.0);
  FaultInjector injector;  // pure hit counter
  ExecContext exec;
  exec.set_deadline(&expired);
  exec.set_fault_injector(&injector);
  const auto outcome = RunLadder(data, DegradeMode::kSample, &exec);
  EXPECT_TRUE(outcome.status().IsDeadlineExceeded());
  EXPECT_EQ(injector.HitCount("engine/start"), 3);
  EXPECT_EQ(injector.HitCount("*"), 3);  // no checkpoint past the start
}

}  // namespace
}  // namespace slam
