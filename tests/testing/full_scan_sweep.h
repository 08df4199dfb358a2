// The paper's row pipeline with E(k) from the O(n) per-row scan: the five
// SimdOps passes, envelope_filter first, on a private SweepArena sized by
// PrepareCompute. The library's sweep finds E(k) with the live envelope
// (core/envelope.h) instead and must reproduce this raster bit for bit.
#pragma once

#include <utility>

#include "core/rao.h"
#include "core/sweep_arena.h"
#include "core/sweep_state.h"
#include "kdv/density_map.h"
#include "kdv/task.h"
#include "simd/sweep_ops.h"

namespace slam::testing {

/// Row sweep of `task` (default ComputeOptions, no ExecContext) with the
/// per-row full scan.
inline DensityMap FullScanSweep(const KdvTask& task, const SimdOps& ops) {
  DensityMap map =
      DensityMap::Create(task.grid.width(), task.grid.height()).ValueOrDie();
  const ComputeOptions defaults;
  const GridAxis& xs = task.grid.x_axis();
  SweepArena ws;
  ws.PrepareCompute(task.points.size(), xs);
  for (RowIndex iy(0); iy < RowIndex(task.grid.height()); ++iy) {
    const WorldY k = task.grid.YCoord(iy);
    const Point origin = RowLocalOrigin(xs, k);
    const size_t m = ops.envelope_filter(task.points, k.value(),
                                         task.bandwidth, ws.ex.data(),
                                         ws.ey.data());
    ws.PrepareRow(m);
    ops.bound_intervals(ws.ex.data(), ws.ey.data(), m, k.value(),
                        task.bandwidth, ws.lb.data(), ws.ub.data());
    ops.bucket_indices(ws.lb.data(), ws.ub.data(), m, xs,
                       ws.lower_idx.data(), ws.upper_idx.data());
    HistogramScatterArgs hs;
    hs.n = m;
    hs.num_pixels = xs.count;
    hs.lower_idx = ws.lower_idx.data();
    hs.upper_idx = ws.upper_idx.data();
    hs.ex = ws.ex.data();
    hs.ey = ws.ey.data();
    hs.origin_x = origin.x;
    hs.origin_y = origin.y;
    hs.lower_offsets = ws.lower_offsets.data();
    hs.upper_offsets = ws.upper_offsets.data();
    hs.lower_cursor = ws.lower_cursor.data();
    hs.upper_cursor = ws.upper_cursor.data();
    hs.lower_px = ws.lower_px.data();
    hs.lower_py = ws.lower_py.data();
    hs.upper_px = ws.upper_px.data();
    hs.upper_py = ws.upper_py.data();
    ops.histogram_scatter(hs);

    RowSweepArgs args;
    args.kernel = task.kernel;
    args.compensated = defaults.compensated_aggregates;
    args.width = xs.count;
    args.bandwidth = task.bandwidth;
    args.weight = task.weight;
    args.qy = 0.0;
    args.qx = ws.qx.data();
    args.lower = {ws.lower_offsets.data(), ws.lower_px.data(),
                  ws.lower_py.data()};
    args.upper = {ws.upper_offsets.data(), ws.upper_px.data(),
                  ws.upper_py.data()};
    args.out = map.mutable_density_row(iy).raw();
    ops.row_sweep(args, &ws.scratch);
  }
  return map;
}

/// FullScanSweep behind the RAO wrapper's transposition (core/rao.cc).
inline DensityMap FullScanSweepRao(const KdvTask& task, const SimdOps& ops) {
  if (!RaoWouldTranspose(task)) return FullScanSweep(task, ops);
  const TransposedTask transposed(task);
  return FullScanSweep(transposed.task(), ops).Transposed();
}

}  // namespace slam::testing
