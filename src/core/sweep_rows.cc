#include "core/sweep_rows.h"

#include <limits>
#include <string>
#include <utility>

#include "core/envelope.h"
#include "core/sweep_arena.h"
#include "core/sweep_state.h"
#include "simd/sweep_ops.h"
#include "util/units.h"

namespace slam {

Status ComputeEndpointSweep(const KdvTask& task, const ComputeOptions& options,
                            const SweepMethodLabels& labels, DensityMap* out) {
  SLAM_RETURN_NOT_OK(ValidateTask(task));
  if (!KernelSupportedBySlam(task.kernel)) {
    return Status::InvalidArgument(
        "SLAM has no aggregate decomposition for the " +
        std::string(KernelTypeName(task.kernel)) +
        " kernel (paper Section 3.7)");
  }
  if (task.points.size() >
      static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    // The per-pixel run offsets and scatter cursors count endpoints in
    // int32_t (the SIMD run representation, simd/sweep_ops.h), and the
    // live envelope indexes points in int32_t; beyond 2^31 - 1 points they
    // would wrap.
    return Status::InvalidArgument(std::string(labels.method) +
                                   " supports at most 2^31 - 1 points");
  }
  SLAM_ASSIGN_OR_RETURN(const SimdOps* ops, GetSimdOps(options.simd));
  SLAM_ASSIGN_OR_RETURN(DensityMap map, DensityMap::Create(task.grid.width(),
                                                           task.grid.height()));
  const ExecContext* exec = options.exec;
  ScopedMemoryCharge charge(exec, labels.workspace);
  const GridAxis& xs = task.grid.x_axis();
  const RowIndex rows(task.grid.height());
  ScopedArena ws;
  // Every lane is charged once sized and before it is filled, so a budget
  // refusal comes before the work. On failure the cached capacity is
  // dropped: the arena outlives this compute, and a refusal must not be
  // sticky for the thread's next (possibly smaller) task.
  auto charge_arena = [&]() -> Status {
    Status charged = charge.Update(ws->HeapBytes());
    if (!charged.ok()) ws->Release();
    return charged;
  };
  ws->PrepareAxis(xs);
  // Algorithms 1-2 rescan all n points per row for E(k) (Lemma 1); the
  // live envelope gives each row the identical lanes from the previous
  // row's envelope plus the points entering there (core/envelope.h).
  LiveEnvelope envelope(task.points, task.grid.y_axis(), task.bandwidth,
                        &*ws);
  SLAM_RETURN_NOT_OK(charge_arena());
  envelope.Plan();
  // Endpoint lanes at the largest envelope up front: no row reallocates.
  ws->PrepareRow(envelope.max_size());
  SLAM_RETURN_NOT_OK(charge_arena());
  envelope.Order();
  for (RowIndex iy(0); iy < rows; ++iy) {
    SLAM_RETURN_NOT_OK(ExecCheck(exec, labels.row));
    const WorldY k = task.grid.YCoord(iy);
    const Point origin = RowLocalOrigin(xs, k);
    const size_t m = envelope.Advance(iy);
    ws->PrepareRow(m);
    ops->bound_intervals(ws->ex.data(), ws->ey.data(), m, k.value(),
                         task.bandwidth, ws->lb.data(), ws->ub.data());
    ops->bucket_indices(ws->lb.data(), ws->ub.data(), m, xs,
                        ws->lower_idx.data(), ws->upper_idx.data());

    HistogramScatterArgs hs;
    hs.n = m;
    hs.num_pixels = xs.count;
    hs.lower_idx = ws->lower_idx.data();
    hs.upper_idx = ws->upper_idx.data();
    hs.ex = ws->ex.data();
    hs.ey = ws->ey.data();
    hs.origin_x = origin.x;
    hs.origin_y = origin.y;
    hs.lower_offsets = ws->lower_offsets.data();
    hs.upper_offsets = ws->upper_offsets.data();
    hs.lower_cursor = ws->lower_cursor.data();
    hs.upper_cursor = ws->upper_cursor.data();
    hs.lower_px = ws->lower_px.data();
    hs.lower_py = ws->lower_py.data();
    hs.upper_px = ws->upper_px.data();
    hs.upper_py = ws->upper_py.data();
    ops->histogram_scatter(hs);

    // Re-charged every row: the vector row sweeps grow their scratch lanes
    // on first use.
    SLAM_RETURN_NOT_OK(charge_arena());

    RowSweepArgs args;
    args.kernel = task.kernel;
    args.compensated = options.compensated_aggregates;
    args.width = xs.count;
    args.bandwidth = task.bandwidth;
    args.weight = task.weight;
    args.qy = 0.0;  // the row-local frame pins the query y to the row
    args.qx = ws->qx.data();
    args.lower = {ws->lower_offsets.data(), ws->lower_px.data(),
                  ws->lower_py.data()};
    args.upper = {ws->upper_offsets.data(), ws->upper_px.data(),
                  ws->upper_py.data()};
    args.out = map.mutable_density_row(iy).raw();
    ops->row_sweep(args, &ws->scratch);
  }
  *out = std::move(map);
  return Status::OK();
}

}  // namespace slam
