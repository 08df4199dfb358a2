#include "simd/dispatch.h"

#include <gtest/gtest.h>

#include "simd/sweep_ops.h"

namespace slam {
namespace {

TEST(SimdDispatchTest, NamesRoundTrip) {
  for (const SimdLevel level :
       {SimdLevel::kAuto, SimdLevel::kScalar, SimdLevel::kAvx2}) {
    const auto parsed = SimdLevelFromName(SimdLevelName(level));
    ASSERT_TRUE(parsed.ok()) << SimdLevelName(level);
    EXPECT_EQ(*parsed, level);
  }
}

TEST(SimdDispatchTest, NameParsingAliasesAndCase) {
  EXPECT_EQ(*SimdLevelFromName("none"), SimdLevel::kScalar);
  EXPECT_EQ(*SimdLevelFromName("AVX2"), SimdLevel::kAvx2);
  EXPECT_EQ(*SimdLevelFromName("Auto"), SimdLevel::kAuto);
  const auto bad = SimdLevelFromName("sse9");
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(SimdDispatchTest, ScalarAlwaysAvailable) {
  EXPECT_TRUE(SimdLevelAvailable(SimdLevel::kScalar));
  EXPECT_TRUE(SimdLevelAvailable(SimdLevel::kAuto));
}

TEST(SimdDispatchTest, DetectReturnsConcreteAvailableLevel) {
  const SimdLevel detected = DetectSimdLevel();
  EXPECT_NE(detected, SimdLevel::kAuto);
  EXPECT_TRUE(SimdLevelAvailable(detected));
}

TEST(SimdDispatchTest, ResolveAutoMatchesDetect) {
  const auto resolved = ResolveSimdLevel(SimdLevel::kAuto);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, DetectSimdLevel());
}

TEST(SimdDispatchTest, ResolveAvailableLevelIsIdentity) {
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (!SimdLevelAvailable(level)) continue;
    const auto resolved = ResolveSimdLevel(level);
    ASSERT_TRUE(resolved.ok()) << SimdLevelName(level);
    EXPECT_EQ(*resolved, level);
  }
}

TEST(SimdDispatchTest, ResolveUnavailableLevelIsInvalidArgument) {
  // Pinning a level this host cannot run is a hard error, never a silent
  // fallback. On an AVX2 host every concrete level is available and the
  // loop checks nothing; SimdEquivalenceTest and the CLI cover the same
  // path wherever AVX2 is missing.
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (SimdLevelAvailable(level)) continue;
    const auto resolved = ResolveSimdLevel(level);
    EXPECT_EQ(resolved.status().code(), StatusCode::kInvalidArgument)
        << SimdLevelName(level);
  }
}

TEST(SimdOpsTest, TablesAreCompleteForAvailableLevels) {
  for (const SimdLevel level :
       {SimdLevel::kAuto, SimdLevel::kScalar, SimdLevel::kAvx2}) {
    const auto ops = GetSimdOps(level);
    if (!SimdLevelAvailable(level)) {
      EXPECT_EQ(ops.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ASSERT_TRUE(ops.ok()) << SimdLevelName(level);
    EXPECT_NE((*ops)->envelope_filter, nullptr);
    EXPECT_NE((*ops)->bound_intervals, nullptr);
    EXPECT_NE((*ops)->bucket_indices, nullptr);
    EXPECT_NE((*ops)->row_sweep, nullptr);
    if (level != SimdLevel::kAuto) {
      EXPECT_EQ((*ops)->level, level);
    }
  }
}

TEST(SimdOpsTest, ForeignArchBackendsCompileToNull) {
  // The arch-gated AVX2 translation unit always links. On x86 CMake builds
  // it with -mavx2, so the table is compiled in; elsewhere its getter
  // returns nullptr and `auto` resolves to scalar.
#if defined(__x86_64__) || defined(__i386__)
  ASSERT_NE(GetAvx2Ops(), nullptr);
  EXPECT_EQ(GetAvx2Ops()->level, SimdLevel::kAvx2);
#else
  EXPECT_EQ(GetAvx2Ops(), nullptr);
  EXPECT_EQ(DetectSimdLevel(), SimdLevel::kScalar);
#endif
}

}  // namespace
}  // namespace slam
