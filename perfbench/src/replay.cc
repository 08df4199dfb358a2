#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>

#include "core/rao.h"
#include "core/sweep_arena.h"
#include "core/sweep_state.h"
#include "kdv/parallel.h"
#include "simd/sweep_ops.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"

namespace perfbench {

using slam::DensityMap;
using slam::KdvTask;
using slam::Result;
using slam::Status;

namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Mirror of ComputeEndpointSweep (core/sweep_rows.cc) with the default
/// ComputeOptions: no ExecContext, no incremental envelope.
Status ReplaySweep(const KdvTask& task, ReplayResult* out, DensityMap* map) {
  SLAM_ASSIGN_OR_RETURN(const slam::SimdOps* ops,
                        slam::GetSimdOps(slam::SimdLevel::kAuto));
  SLAM_ASSIGN_OR_RETURN(*map, DensityMap::Create(task.grid.width(),
                                                 task.grid.height()));
  const slam::ComputeOptions defaults;
  const slam::GridAxis& xs = task.grid.x_axis();
  const size_t n = task.points.size();
  slam::ScopedArena ws;
  auto t0 = Clock::now();
  ws->PrepareCompute(n, xs);
  out->arena_prepare_us = Ms(t0, Clock::now()) * 1e3;
  const slam::RowIndex rows(task.grid.height());
  for (slam::RowIndex iy(0); iy < rows; ++iy) {
    const slam::WorldY k = task.grid.YCoord(iy);
    const slam::Point origin = slam::RowLocalOrigin(xs, k);
    Clock::time_point t[kNumPasses + 1];
    t[0] = Clock::now();
    const size_t m = ops->envelope_filter(task.points, k.value(),
                                          task.bandwidth, ws->ex.data(),
                                          ws->ey.data());
    t[1] = Clock::now();
    ws->PrepareRow(m);
    const auto t1b = Clock::now();
    ops->bound_intervals(ws->ex.data(), ws->ey.data(), m, k.value(),
                         task.bandwidth, ws->lb.data(), ws->ub.data());
    t[2] = Clock::now();
    ops->bucket_indices(ws->lb.data(), ws->ub.data(), m, xs,
                        ws->lower_idx.data(), ws->upper_idx.data());
    t[3] = Clock::now();

    slam::HistogramScatterArgs hs;
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
    const auto t3b = Clock::now();
    ops->histogram_scatter(hs);
    t[4] = Clock::now();

    slam::RowSweepArgs args;
    args.kernel = task.kernel;
    args.compensated = defaults.compensated_aggregates;
    args.width = xs.count;
    args.bandwidth = task.bandwidth;
    args.weight = task.weight;
    args.qy = 0.0;
    args.qx = ws->qx.data();
    args.lower = {ws->lower_offsets.data(), ws->lower_px.data(),
                  ws->lower_py.data()};
    args.upper = {ws->upper_offsets.data(), ws->upper_px.data(),
                  ws->upper_py.data()};
    args.out = map->mutable_density_row(iy).raw();
    const auto t4b = Clock::now();
    ops->row_sweep(args, &ws->scratch);
    t[5] = Clock::now();

    out->pass_ms[0] += Ms(t[0], t[1]);
    out->pass_ms[1] += Ms(t1b, t[2]);
    out->pass_ms[2] += Ms(t[2], t[3]);
    out->pass_ms[3] += Ms(t3b, t[4]);
    out->pass_ms[4] += Ms(t4b, t[5]);

    // Counters, outside the pass timers.
    const auto em = static_cast<int64_t>(m);
    out->row_envelope.push_back(em);
    out->envelope_points += em;
    out->envelope_max = std::max(out->envelope_max, em);
    for (size_t i = 0; i < m; ++i) {
      const int32_t lo = ws->lower_idx[i];
      const int32_t hi = ws->upper_idx[i];
      if (hi == 0) {
        out->parked_endpoints += 2;  // whole interval left of the view
      } else {
        out->parked_endpoints += (lo == xs.count) + (hi == xs.count);
      }
    }
  }
  out->rows = task.grid.height();
  out->points_scanned = out->rows * static_cast<int64_t>(n);
  out->arena_heap_mb = static_cast<double>(ws->HeapBytes()) / (1024.0 * 1024.0);
  return Status::OK();
}

/// Mirror of the RAO wrapper (core/rao.cc) around the sweep.
Status ReplayRao(const KdvTask& task, ReplayResult* out) {
  if (!slam::RaoWouldTranspose(task)) {
    return ReplaySweep(task, out, &out->map);
  }
  out->transposed = true;
  auto t0 = Clock::now();
  const slam::TransposedTask transposed(task);
  out->transpose_ms = Ms(t0, Clock::now());
  DensityMap transposed_map;
  SLAM_RETURN_NOT_OK(ReplaySweep(transposed.task(), out, &transposed_map));
  t0 = Clock::now();
  out->map = transposed_map.Transposed();
  out->raster_transpose_ms = Ms(t0, Clock::now());
  return Status::OK();
}

}  // namespace

double ReplayResult::passes_ms() const {
  double sum = 0.0;
  for (double ms : pass_ms) sum += ms;
  return sum;
}

Result<ReplayResult> ReplayRender(const KdvTask& task) {
  SLAM_RETURN_NOT_OK(slam::ValidateTask(task));
  ReplayResult out;
  out.pixels = task.grid.pixel_count();
  // Mirror of the engine's recentering (kdv/engine.cc).
  if (slam::TaskFarFromOrigin(task)) {
    const slam::Point c = {task.grid.x_axis().Coord(task.grid.width() / 2),
                           task.grid.y_axis().Coord(task.grid.height() / 2)};
    const slam::TranslatedTask translated(task, c.x, c.y);
    SLAM_RETURN_NOT_OK(ReplayRao(translated.task(), &out));
  } else {
    SLAM_RETURN_NOT_OK(ReplayRao(task, &out));
  }
  return out;
}

bool BitIdentical(const DensityMap& a, const DensityMap& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  const auto va = a.values();
  const auto vb = b.values();
  return std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)) == 0;
}

std::vector<std::pair<int, int>> ParallelStripes(int rows, int threads) {
  std::vector<std::pair<int, int>> stripes;
  std::mutex mutex;
  slam::ThreadPool pool(threads);
  slam::ParallelFor(&pool, 0, rows, [&](int64_t lo, int64_t hi) {
    const std::lock_guard<std::mutex> lock(mutex);
    stripes.emplace_back(static_cast<int>(lo), static_cast<int>(hi));
  });
  std::sort(stripes.begin(), stripes.end());
  return stripes;
}

Result<int> CountParallelStripes(const KdvTask& task, int threads) {
  slam::FaultInjector counter;  // never armed: it only counts checkpoints
  slam::ExecContext exec;
  exec.set_fault_injector(&counter);
  slam::ParallelOptions options;
  options.num_threads = threads;
  options.engine.compute.exec = &exec;
  SLAM_RETURN_NOT_OK(
      slam::ComputeKdvParallel(task, slam::Method::kSlamBucketRao, options)
          .status());
  return static_cast<int>(counter.HitCount("parallel/stripe"));
}

}  // namespace perfbench
