// Per-point sweep intervals (paper Section 3.3): for a row at y = k, the
// data point p contributes to pixel q exactly when
//   LB_k(p) = p.x - sqrt(b² - (k - p.y)²)  <=  q.x  <=  UB_k(p) (Eqs. 8-9).
#pragma once

#include <span>
#include <vector>

#include "geom/point.h"
#include "util/units.h"

namespace slam {

struct BoundInterval {
  double lb = 0.0;  // world-x of the interval ends; see LowerBound/UpperBound
  double ub = 0.0;
  Point p;  // the data point, carried along for the aggregate updates

  WorldX lower() const { return WorldX(lb); }
  WorldX upper() const { return WorldX(ub); }
};

/// Clears `out` and fills it with the interval of every envelope point.
/// Precondition (Definition 1): |k - p.y| <= bandwidth for all inputs —
/// guaranteed by FindEnvelope / LiveEnvelope; DCHECKed here.
void ComputeBoundIntervals(std::span<const Point> envelope, WorldY k,
                           double bandwidth, std::vector<BoundInterval>* out);

}  // namespace slam
