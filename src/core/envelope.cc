#include "core/envelope.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/narrow.h"

namespace slam {

namespace {

// Steps the entry/exit-row estimate may take before falling back to a
// binary search. A well-conditioned axis needs at most one; more means the
// estimate is far off (huge coordinates over a gap near their ulp, where
// consecutive rows can share one coordinate).
constexpr int kMaxCorrectionSteps = 4;

/// The first row r in [0, count] at which `reached(r)` holds, where
/// `reached` is monotone (false ... false true ... true) over [0, count);
/// count when it never holds. `guess` is an estimate of the answer: it is
/// clamped into range (NaN counts as 0) and then corrected with the exact
/// predicate, so only the cost, never the result, depends on it.
template <typename Reached>
int FirstRowWhere(const Reached& reached, double guess, int count) {
  // Clamped into [0, count) before the cast, which therefore cannot wrap.
  int r = !(guess > 0.0)                         ? 0
          : guess >= static_cast<double>(count) ? count
                                                : static_cast<int>(guess);  // lint:allow(narrowing-cast) NOLINT(slam-narrowing-cast)
  for (int step = 0; step < kMaxCorrectionSteps; ++step) {
    if (r > 0 && reached(r - 1)) {
      --r;
    } else if (r < count && !reached(r)) {
      ++r;
    } else {
      return r;
    }
  }
  int lo = 0;
  int hi = count;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (reached(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace

void FindEnvelope(std::span<const Point> points, WorldY k, double bandwidth,
                  std::vector<Point>* out) {
  out->clear();
  for (const Point& p : points) {
    if (std::abs(k - WorldY(p.y)) <= bandwidth) out->push_back(p);
  }
}

LiveEnvelope::LiveEnvelope(std::span<const Point> points,
                           const GridAxis& rows, double bandwidth,
                           SweepArena* arena)
    : points_(points), rows_(rows), bandwidth_(bandwidth), arena_(arena) {
  const size_t num_rows = CheckedSize(rows.count);
  arena_->entry_row.resize(points.size());
  arena_->row_offsets.resize(num_rows + 2);
  arena_->row_exits.resize(num_rows + 1);
}

void LiveEnvelope::Plan() {
  SweepArena& ws = *arena_;
  const int num_rows = rows_.count;
  const double b = bandwidth_;
  const double inv_gap = 1.0 / rows_.gap;
  std::fill(ws.row_offsets.begin(), ws.row_offsets.end(), 0);
  std::fill(ws.row_exits.begin(), ws.row_exits.end(), 0);
  for (size_t i = 0; i < points_.size(); ++i) {
    const double y = points_[i].y;
    // Row r holds p iff fl(k_r − y) lies in [−b, b]: it has entered once
    // k_r − y >= −b and left once k_r − y > b (the negations of the scan's
    // two failure modes), both monotone in r.
    // In exact arithmetic the first row past y ∓ b is floor(t) + 1 for
    // t = (y ∓ b − origin) / gap; the truncated estimates are usually
    // exact, and otherwise a row or two off.
    const int entry = FirstRowWhere(
        [&](int r) { return rows_.Coord(r) - y >= -b; },
        (y - b - rows_.origin) * inv_gap + 1.0, num_rows);
    const int exit = FirstRowWhere(
        [&](int r) { return rows_.Coord(r) - y > b; },
        (y + b - rows_.origin) * inv_gap + 1.0, num_rows);
    if (exit > entry) {
      ws.entry_row[i] = entry;
      ++ws.row_offsets[CheckedSize(entry) + 2];
      ++ws.row_exits[CheckedSize(exit)];
    } else {
      // Never a member: the window [y − b, y + b] misses every row (it
      // lies above or below them all, or between two rows).
      ws.entry_row[i] = num_rows;
    }
  }
  // Inclusive prefix sum: row_offsets[r + 1] is now where row r's entering
  // bucket starts; Order() advances it to the bucket's end, which leaves
  // row r's bucket at [row_offsets[r], row_offsets[r + 1]).
  size_t live = 0;
  size_t max_live = 0;
  for (size_t r = 0; r < CheckedSize(num_rows); ++r) {
    const int32_t entering = ws.row_offsets[r + 2];
    ws.row_offsets[r + 2] += ws.row_offsets[r + 1];
    live = live + CheckedSize(entering) - CheckedSize(ws.row_exits[r]);
    max_live = std::max(max_live, live);
  }
  max_size_ = max_live;
  ws.entering.resize(CheckedSize(ws.row_offsets[CheckedSize(num_rows) + 1]));
  // One slot past max |E(k)|: Advance() stores every candidate at the
  // output cursor before testing it.
  for (auto* lane : {&ws.ex, &ws.ey, &ws.prev_ex, &ws.prev_ey}) {
    lane->resize(max_size_ + 1);
  }
  ws.eidx.resize(max_size_ + 1);
  ws.prev_idx.resize(max_size_ + 1);
}

void LiveEnvelope::Order() {
  SweepArena& ws = *arena_;
  const int num_rows = rows_.count;
  for (size_t i = 0; i < points_.size(); ++i) {
    const int entry = ws.entry_row[i];
    if (entry < num_rows) {
      ws.entering[CheckedSize(ws.row_offsets[CheckedSize(entry) + 1]++)] =
          CheckedNarrow<int32_t>(i);
    }
  }
}

size_t LiveEnvelope::Advance(RowIndex row) {
  SweepArena& ws = *arena_;
  const int r = row.value();
  SLAM_DCHECK(r == next_row_);
  ++next_row_;
  // This row's output lanes become the next row's input: swap, never copy.
  std::swap(ws.ex, ws.prev_ex);
  std::swap(ws.ey, ws.prev_ey);
  std::swap(ws.eidx, ws.prev_idx);
  const double k = rows_.Coord(r);
  const double b = bandwidth_;
  const double* px = ws.prev_ex.data();
  const double* py = ws.prev_ey.data();
  const int32_t* pidx = ws.prev_idx.data();
  const size_t prev_size = size_;
  const size_t first = CheckedSize(ws.row_offsets[CheckedSize(r)]);
  const size_t last = CheckedSize(ws.row_offsets[CheckedSize(r) + 1]);
  double* ex = ws.ex.data();
  double* ey = ws.ey.data();
  int32_t* eidx = ws.eidx.data();
  // Merge the two ascending index lists. Few points enter per row, so the
  // previous envelope is copied in runs: each entering index ends the run
  // of smaller previous indices, and a sentinel past the previous lanes
  // ends the last run. Every candidate is stored at the output cursor,
  // which advances only for members — no data-dependent branch per point.
  ws.prev_idx[prev_size] = std::numeric_limits<int32_t>::max();
  size_t a = 0;
  size_t m = 0;
  for (size_t c = first; c <= last; ++c) {
    const int32_t next = c < last ? ws.entering[c]
                                  : std::numeric_limits<int32_t>::max();
    for (; pidx[a] < next; ++a) {
      ex[m] = px[a];
      ey[m] = py[a];
      eidx[m] = pidx[a];
      m += static_cast<size_t>(std::abs(k - py[a]) <= b);
    }
    if (c == last) break;
    const Point& q = points_[CheckedSize(next)];
    ex[m] = q.x;
    ey[m] = q.y;
    eidx[m] = next;
    m += static_cast<size_t>(std::abs(k - q.y) <= b);
  }
  size_ = m;
  return m;
}

}  // namespace slam
