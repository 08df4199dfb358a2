// The per-row sweep primitives behind SLAM_SORT / SLAM_BUCKET / RAO, as a
// table of function pointers selected once per compute call (dispatch.h).
//
// A row sweep decomposes into five data-parallel passes:
//   1. envelope_filter — E(k) membership test over all points, emitting the
//      survivors as SoA coordinate lanes (x[], y[]). This is the paper's
//      O(n) per-row scan (Lemma 1), kept as the reference: the library's
//      sweep gets the identical lanes from core/envelope.h's LiveEnvelope,
//      which each point enters once per compute.
//   2. bound_intervals — per envelope point, the sweep interval
//      [p.x − √(b² − dy²), p.x + √(b² − dy²)] (paper Eqs. 8–9) into
//      contiguous lb[]/ub[] lanes.
//   3. bucket_indices — per interval endpoint, the pixel bucket it lands in
//      (paper Eqs. 19–20).
//   4. histogram_scatter — the pixel-binned counting sort: per-bucket
//      histograms of the endpoint bins, prefix-summed into per-pixel run
//      offsets, and the endpoint coordinates scattered (stably, in input
//      order) into row-local SoA lanes.
//   5. row_sweep — the sweep itself: fold each pixel's endpoint runs into
//      the L/U SoA accumulators (core/sweep_state.h) and evaluate the
//      kernel's closed-form polynomial at the pixel.
//
// Both sweep methods feed row_sweep the same run-list shape: per pixel i,
// the endpoints in [offsets[i], offsets[i+1]) are applied before pixel i is
// evaluated, and both now produce it with the same counting sort (passes
// 3 + 4): SLAM_SORT's per-row comparison sort is gone — per-pixel runs
// need no internal order (DESIGN.md §12), so an O(m + X) counting sort
// keyed on the pixel bin produces the identical run *sets* the old
// sort-then-merge produced in O(m log m). That is what lets all three
// methods (RAO delegates to the other two) share one dispatched kernel.
//
// The scalar backend is the reference: it mirrors the pre-SoA sweep
// arithmetic operation for operation. Vector backends replay the identical
// operation sequence in lanes — no FMA contraction, Knuth two-sum in place
// of the branched Neumaier step (both produce the exact rounding error of
// the addition, so they are interchangeable bit for bit) — and are held to
// the scalar path and the long-double oracle at 1e-9 by
// tests/simd/simd_equivalence_test.cc and fuzz/target_differential.cc.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.h"
#include "kdv/grid.h"
#include "kdv/kernel.h"
#include "simd/dispatch.h"
#include "util/result.h"

namespace slam {

/// One side's endpoint runs for a row sweep, in SoA row-local coordinates.
/// Run i = [offsets[i], offsets[i + 1]) is applied before pixel i is
/// evaluated; `offsets` therefore has at least width + 1 entries and is
/// non-decreasing. Endpoints at or beyond offsets[width] are never applied
/// (SLAM_BUCKET parks beyond-the-last-pixel endpoints there).
struct EndpointRuns {
  const int32_t* offsets = nullptr;
  const double* px = nullptr;
  const double* py = nullptr;
};

/// Inputs of one row sweep. All coordinates are row-local (see
/// RowLocalOrigin): px/py/qx are pre-translated, and the query y is qy for
/// every pixel of the row (0.0 from the sweep methods; kept symbolic so
/// the backends stay testable on arbitrary frames).
struct RowSweepArgs {
  KernelType kernel = KernelType::kEpanechnikov;
  bool compensated = true;
  int width = 0;
  double bandwidth = 1.0;
  double weight = 1.0;
  double qy = 0.0;
  const double* qx = nullptr;  // length `width`
  EndpointRuns lower;
  EndpointRuns upper;
  double* out = nullptr;  // densities, length `width`
};

/// Inputs/outputs of the pixel-binned counting sort (pass 4). All pointers
/// are caller-sized: `n` endpoints per side with bucket indices in [0,
/// num_pixels] (bucket_indices' clamped range), offsets num_pixels + 2
/// entries, cursors num_pixels + 1, coordinate lanes n each. On return,
/// offsets[0] == 0, offsets is non-decreasing, offsets[num_pixels + 1] ==
/// n, and run i = [offsets[i], offsets[i + 1]) holds the endpoints with
/// bucket i in input order (stable) as row-local coordinates (global minus
/// origin). Bucket num_pixels is the park run the row sweep never applies.
struct HistogramScatterArgs {
  size_t n = 0;
  int num_pixels = 0;
  const int32_t* lower_idx = nullptr;
  const int32_t* upper_idx = nullptr;
  const double* ex = nullptr;  // global endpoint coordinates
  const double* ey = nullptr;
  double origin_x = 0.0;  // row-local frame origin (RowLocalOrigin)
  double origin_y = 0.0;
  int32_t* lower_offsets = nullptr;
  int32_t* upper_offsets = nullptr;
  int32_t* lower_cursor = nullptr;  // scratch for the scatter pass
  int32_t* upper_cursor = nullptr;
  double* lower_px = nullptr;
  double* lower_py = nullptr;
  double* upper_px = nullptr;
  double* upper_py = nullptr;
};

/// Reusable scratch for the two-pass vector backends (pass 1 snapshots the
/// per-pixel aggregate differences into interleaved lanes, pass 2 evaluates
/// the polynomial across pixels). The scalar backend never touches it.
struct RowSweepScratch {
  std::vector<double> lanes;

  /// Heap held, accounted against the memory budget by the sweep methods.
  size_t HeapBytes() const { return lanes.capacity() * sizeof(double); }
};

/// One backend's implementations of the four row passes. The function
/// pointers are never null in a table returned by GetSimdOps.
struct SimdOps {
  SimdLevel level = SimdLevel::kScalar;

  /// Writes the points of E(k) = {p : |k − p.y| <= bandwidth} into the SoA
  /// lanes ex/ey in input order and returns the survivor count. The caller
  /// sizes both lanes to points.size(): the vector backends compress whole
  /// registers to the output cursor, so up to one full vector width beyond
  /// the survivor count is scribbled (never past points.size()). A
  /// per-survivor `push_back` here was the single hottest instruction path
  /// of SLAM_BUCKET — the capacity check serializes an otherwise
  /// data-parallel scan over all n points every row.
  size_t (*envelope_filter)(std::span<const Point> points, double k,
                            double bandwidth, double* ex,
                            double* ey) = nullptr;

  /// lb[i] = ex[i] − √(max(b² − (k − ey[i])², 0)), ub[i] = ex[i] + √(...).
  void (*bound_intervals)(const double* ex, const double* ey, size_t n,
                          double k, double bandwidth, double* lb,
                          double* ub) = nullptr;

  /// lower_bucket[i] = LowerBucket(lb[i], xs), upper_bucket[i] =
  /// UpperBucket(ub[i], xs) (core/slam_bucket.h, Eqs. 19–20).
  void (*bucket_indices)(const double* lb, const double* ub, size_t n,
                         const GridAxis& xs, int32_t* lower_bucket,
                         int32_t* upper_bucket) = nullptr;

  /// The pixel-binned counting sort; see HistogramScatterArgs. Integer-only
  /// control flow plus an exact coordinate translation, so every backend
  /// produces bit-identical output (the vector backends vectorize the
  /// X-length prefix-sum pass; the count and scatter passes stay scalar —
  /// scattered increments have no conflict-free vector form before
  /// AVX-512 CD, and both passes are memory-bound anyway).
  void (*histogram_scatter)(const HistogramScatterArgs& args) = nullptr;

  /// The row sweep proper; see RowSweepArgs.
  void (*row_sweep)(const RowSweepArgs& args,
                    RowSweepScratch* scratch) = nullptr;
};

/// Backend tables. The AVX2 getter returns nullptr when the backend is
/// not compiled into this binary (arch-gated translation unit); it does
/// NOT check CPU features — that is SimdLevelAvailable's job.
const SimdOps* GetScalarOps();
const SimdOps* GetAvx2Ops();

/// Resolves `level` (kAuto → best available) and returns its ops table;
/// InvalidArgument when a pinned level cannot run on this build/CPU.
Result<const SimdOps*> GetSimdOps(SimdLevel level);

}  // namespace slam
