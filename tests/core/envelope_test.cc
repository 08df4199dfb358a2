#include "core/envelope.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace slam {
namespace {

TEST(FindEnvelopeTest, FiltersByYDistance) {
  const std::vector<Point> pts{{0, 0}, {5, 1}, {9, -2}, {3, 2.01}, {7, -2.01}};
  std::vector<Point> env;
  FindEnvelope(pts, WorldY(0.0), 2.0, &env);
  ASSERT_EQ(env.size(), 3u);  // y in [-2, 2]
  for (const Point& p : env) EXPECT_LE(std::abs(p.y), 2.0);
}

TEST(FindEnvelopeTest, BoundaryIsInclusive) {
  const std::vector<Point> pts{{1, 2.0}, {1, -2.0}};
  std::vector<Point> env;
  FindEnvelope(pts, WorldY(0.0), 2.0, &env);
  EXPECT_EQ(env.size(), 2u);  // |k - p.y| == b counts (Definition 1)
}

TEST(FindEnvelopeTest, ClearsPreviousContents) {
  const std::vector<Point> pts{{0, 0}};
  std::vector<Point> env{{9, 9}, {8, 8}};
  FindEnvelope(pts, WorldY(0.0), 1.0, &env);
  EXPECT_EQ(env.size(), 1u);
}

TEST(FindEnvelopeTest, EmptyInputs) {
  std::vector<Point> env;
  FindEnvelope({}, WorldY(0.0), 1.0, &env);
  EXPECT_TRUE(env.empty());
  const std::vector<Point> pts{{0, 100}};
  FindEnvelope(pts, WorldY(0.0), 1.0, &env);
  EXPECT_TRUE(env.empty());
}

}  // namespace
}  // namespace slam
