// Per-pass replay of one SLAM_BUCKET_RAO render for the traced run.
//
// ReplayRender re-executes what ComputeKdv(task, kSlamBucketRao) does —
// recentering, the RAO transposition, and core/sweep_rows.cc's five
// dispatched row passes over the thread's ScopedArena — with a clock read
// between passes and counters on the envelope and endpoint buckets. It is
// a mirror of the library's row driver, so the traced run fails whenever
// the replayed raster is not bit-identical to ComputeKdv's: a driver
// change that this replay no longer reproduces shows up as a failed run,
// never as silently wrong per-pass numbers. The timed run never uses it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "kdv/density_map.h"
#include "kdv/task.h"
#include "util/result.h"

namespace perfbench {

/// The five row passes, in pipeline order (simd/sweep_ops.h).
inline constexpr int kNumPasses = 5;
inline constexpr const char* kPassNames[kNumPasses] = {
    "envelope_filter", "bound_intervals", "bucket_indices",
    "histogram_scatter", "row_sweep"};

struct ReplayResult {
  slam::DensityMap map;
  bool transposed = false;
  double pass_ms[kNumPasses] = {};
  double transpose_ms = 0.0;         // TransposedTask construction
  double raster_transpose_ms = 0.0;  // DensityMap::Transposed
  double arena_prepare_us = 0.0;     // SweepArena::PrepareCompute
  double arena_heap_mb = 0.0;        // SweepArena::HeapBytes after the render
  int64_t rows = 0;            // swept lines
  int64_t points_scanned = 0;  // rows x n: the envelope filter's input
  int64_t envelope_points = 0;  // sum over rows of |E(k)|
  int64_t envelope_max = 0;     // max over rows of |E(k)|
  int64_t pixels = 0;
  /// Of the 2 x envelope_points interval endpoints, those that contribute
  /// to no pixel of the view: bucketed into the park run past the last
  /// pixel, or whole intervals left of the first pixel.
  int64_t parked_endpoints = 0;
  std::vector<int64_t> row_envelope;  // |E(k)| per swept row

  double passes_ms() const;
};

/// Replays ComputeKdv(task, kSlamBucketRao) pass by pass.
slam::Result<ReplayResult> ReplayRender(const slam::KdvTask& task);

/// True when two rasters have the same shape and bit-identical values.
bool BitIdentical(const slam::DensityMap& a, const slam::DensityMap& b);

/// The row stripes [begin, end), in row order, that util/thread_pool.h's
/// ParallelFor cuts for `rows` rows on a pool of `threads` threads, as
/// ComputeKdvParallel calls it. Recorded from ParallelFor itself, not a
/// copy of its split.
std::vector<std::pair<int, int>> ParallelStripes(int rows, int threads);

/// Runs ComputeKdvParallel(task, kSlamBucketRao) on `threads` threads and
/// returns how many stripe tasks it ran, counted at its "parallel/stripe"
/// checkpoint. The traced run fails when this differs from the number of
/// ParallelStripes it times, so the stripe metrics cannot silently describe
/// stripes the library no longer cuts.
slam::Result<int> CountParallelStripes(const slam::KdvTask& task, int threads);

}  // namespace perfbench
