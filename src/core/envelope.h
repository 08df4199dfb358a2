// Envelope point set E(k) (paper Definition 1): the points whose
// y-coordinate is within the bandwidth of pixel row y = k. Every range set
// R(q) of a pixel in that row is a subset of E(k), so the sweep only ever
// touches envelope points.
//
// Two implementations:
//  * FindEnvelope — the paper's O(n) per-row scan (Lemma 1), the reference.
//  * LiveEnvelope — the sweep's path (DESIGN.md §4.4): each point enters
//    the envelope once per compute, and each row updates the previous
//    row's envelope instead of rescanning all n points. O(n + Y) per
//    compute plus O(|E(k−1)| + entering) per row, with the same members in
//    the same (input) order as the per-row scan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/sweep_arena.h"
#include "geom/point.h"
#include "kdv/grid.h"
#include "util/units.h"

namespace slam {

/// Clears `out` and fills it with E(k) for the row at world coordinate
/// `k`. Taking WorldY (not a bare double) pins the unit: an envelope is
/// always cut along the swept axis, never by a pixel index or an x value.
void FindEnvelope(std::span<const Point> points, WorldY k, double bandwidth,
                  std::vector<Point>* out);

/// E(k) for rows 0, 1, ..., Y − 1 of `rows`, kept live in a SweepArena.
///
/// Membership is the scan's exact predicate |k − p.y| <= b in double
/// arithmetic. fl(k − y) is monotone in k and the row coordinates are
/// monotone in the row index (gap > 0), so every point is a member for one
/// contiguous run of rows, [entry, exit). Before the rows, each point's
/// entry and exit row are found once and the points are counting-sorted by
/// entry row; row r then merges the previous row's envelope with the
/// points entering at r (both in ascending index order) and keeps those
/// that pass the predicate. A point that fails has k − y > b and never
/// returns, so each row's lanes equal SimdOps::envelope_filter's output
/// over the input, member for member and in the same order.
///
/// Three steps, so the owner can charge the arena's HeapBytes() against a
/// memory budget after each sizing step and before the lanes are filled:
///   LiveEnvelope env(...);  // sizes the per-point and per-row lanes
///   env.Plan();             // fills them, sizes the envelope lanes
///   env.Order();            // fills the entering order
///   for (r = 0 .. Y-1) m = env.Advance(r);  // E(row r) in arena ex/ey
class LiveEnvelope {
 public:
  /// Sizes `arena`'s entry-row lane to the point count and its per-row
  /// offset lanes to the row count. Fills nothing.
  LiveEnvelope(std::span<const Point> points, const GridAxis& rows,
               double bandwidth, SweepArena* arena);

  /// Finds every point's entry and exit row (O(n + Y)), counts the entering
  /// points per row and max |E(k)|, and sizes the entering lane and the
  /// envelope lanes (ex, ey, eidx and the prev_* lanes) to fit.
  void Plan();

  /// Stable counting sort of the indices of the points that meet any row
  /// by entry row, into the arena's entering lane. O(n + Y).
  void Order();

  /// Advances to row `row`, which must be the next row (0 first), and
  /// writes its envelope into the arena's ex/ey (and eidx) in input order.
  /// Returns |E(k)|. O(|E(k − 1)| + points entering at `row`).
  size_t Advance(RowIndex row);

  /// The largest |E(k)| over all rows, known after Plan().
  size_t max_size() const { return max_size_; }

 private:
  std::span<const Point> points_;
  GridAxis rows_;
  double bandwidth_;
  SweepArena* arena_;
  size_t max_size_ = 0;
  size_t size_ = 0;  // |E| of the last row advanced to
  int next_row_ = 0;
};

}  // namespace slam
