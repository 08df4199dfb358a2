#include "util/validate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace slam {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kSubnormal = 1e-310;  // below DBL_MIN, above 0

TEST(CheckFiniteTest, AcceptsOrdinaryValues) {
  EXPECT_TRUE(CheckFinite(0.0, "v").ok());
  EXPECT_TRUE(CheckFinite(-1e308, "v").ok());
}

TEST(CheckFiniteTest, RejectsNanAndInfNamingTheField) {
  const Status nan = CheckFinite(kNan, "bandwidth");
  ASSERT_TRUE(nan.IsInvalidArgument());
  EXPECT_NE(nan.message().find("bandwidth"), std::string::npos);
  EXPECT_TRUE(CheckFinite(kInf, "v").IsInvalidArgument());
  EXPECT_TRUE(CheckFinite(-kInf, "v").IsInvalidArgument());
}

TEST(CheckPositiveNormalTest, RejectsZeroNegativeAndNonFinite) {
  EXPECT_TRUE(CheckPositiveNormal(1.0, "w").ok());
  EXPECT_TRUE(CheckPositiveNormal(0.0, "w").IsInvalidArgument());
  EXPECT_TRUE(CheckPositiveNormal(-1.0, "w").IsInvalidArgument());
  EXPECT_TRUE(CheckPositiveNormal(kNan, "w").IsInvalidArgument());
  EXPECT_TRUE(CheckPositiveNormal(kInf, "w").IsInvalidArgument());
}

TEST(CheckPositiveNormalTest, RejectsSubnormals) {
  // The hostile case: 1e-310 passes `> 0` but its reciprocal overflows.
  ASSERT_GT(kSubnormal, 0.0);
  EXPECT_FALSE(std::isnormal(kSubnormal));
  const Status st = CheckPositiveNormal(kSubnormal, "bandwidth");
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("subnormal"), std::string::npos);
  // Smallest normal double is fine.
  EXPECT_TRUE(
      CheckPositiveNormal(std::numeric_limits<double>::min(), "w").ok());
}

TEST(CheckCoordinateTest, EnforcesMagnitudeCap) {
  EXPECT_TRUE(CheckCoordinate(4.0e7, "x").ok());  // EPSG:3857 scale
  EXPECT_TRUE(CheckCoordinate(InputLimits::kMaxCoordinateMagnitude, "x").ok());
  EXPECT_TRUE(
      CheckCoordinate(-InputLimits::kMaxCoordinateMagnitude, "x").ok());
  // Finite but huge: passes isfinite, still rejected.
  EXPECT_TRUE(CheckCoordinate(1e300, "x").IsInvalidArgument());
  EXPECT_TRUE(CheckCoordinate(kNan, "x").IsInvalidArgument());
}

TEST(CheckCoordinatePairTest, ChecksBothAxes) {
  EXPECT_TRUE(CheckCoordinatePair(1.0, 2.0, "p").ok());
  EXPECT_TRUE(CheckCoordinatePair(kNan, 2.0, "p").IsInvalidArgument());
  EXPECT_TRUE(CheckCoordinatePair(1.0, 1e300, "p").IsInvalidArgument());
}

TEST(CheckGridDimsTest, RejectsNonPositiveAndPerAxisOverflow) {
  EXPECT_TRUE(CheckGridDims(512, 512).ok());
  EXPECT_TRUE(CheckGridDims(0, 5).IsInvalidArgument());
  EXPECT_TRUE(CheckGridDims(5, -1).IsInvalidArgument());
  EXPECT_TRUE(
      CheckGridDims(int64_t{1} << 31, 1).IsInvalidArgument());  // 2^31 scale
  EXPECT_TRUE(CheckGridDims(InputLimits::kMaxGridDim + 1, 1)
                  .IsInvalidArgument());
}

TEST(CheckGridDimsTest, ProductCapCatchesWhatPerAxisCapsMiss) {
  // Each axis individually legal; the product would be an 8 TiB raster.
  const int64_t dim = InputLimits::kMaxGridDim;
  const Status st = CheckGridDims(dim, dim);
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("cell"), std::string::npos);
  // A maximal legal raster is accepted (product exactly at the cap).
  EXPECT_TRUE(CheckGridDims(InputLimits::kMaxGridDim,
                            InputLimits::kMaxGridCells /
                                InputLimits::kMaxGridDim)
                  .ok());
}

TEST(CheckBandwidthTest, EnforcesRange) {
  EXPECT_TRUE(CheckBandwidth(1.0).ok());
  EXPECT_TRUE(CheckBandwidth(InputLimits::kMinBandwidth).ok());
  EXPECT_TRUE(CheckBandwidth(InputLimits::kMaxBandwidth).ok());
  EXPECT_TRUE(CheckBandwidth(1e-12).IsInvalidArgument());  // below min
  EXPECT_TRUE(CheckBandwidth(1e13).IsInvalidArgument());   // above max
  EXPECT_TRUE(CheckBandwidth(kSubnormal).IsInvalidArgument());
  EXPECT_TRUE(CheckBandwidth(0.0).IsInvalidArgument());
  EXPECT_TRUE(CheckBandwidth(kNan).IsInvalidArgument());
}

TEST(CanonicalizeCoordinateTest, FlushesNegativeZeroAndSubnormals) {
  EXPECT_FALSE(std::signbit(CanonicalizeCoordinate(-0.0)));
  EXPECT_EQ(CanonicalizeCoordinate(-0.0), 0.0);
  EXPECT_EQ(CanonicalizeCoordinate(kSubnormal), 0.0);
  EXPECT_EQ(CanonicalizeCoordinate(-kSubnormal), 0.0);
  // Normal values (and non-finite ones) pass through unchanged.
  EXPECT_EQ(CanonicalizeCoordinate(3.25), 3.25);
  EXPECT_EQ(CanonicalizeCoordinate(-7.5), -7.5);
  EXPECT_TRUE(std::isnan(CanonicalizeCoordinate(kNan)));
}

}  // namespace
}  // namespace slam
