// Ablation benchmarks (google-benchmark) for the design choices DESIGN.md
// §4 calls out:
//  1. RAO on/off across viewport aspect ratios at constant pixel count —
//     RAO should only matter (and always help) when Y > X.
//  2. SLAM_SORT vs SLAM_BUCKET at growing n — the log n gap.
//  3. The paper's per-row envelope scan vs the live envelope, the only
//     library path (envelope pass alone, every row of one task).
#include <benchmark/benchmark.h>

#include "core/envelope.h"
#include "core/slam_bucket.h"
#include "core/slam_sort.h"
#include "core/sweep_arena.h"
#include "data/generators.h"
#include "data/sampling.h"
#include "kdv/engine.h"
#include "simd/sweep_ops.h"
#include "util/string_util.h"

namespace slam {
namespace {

const PointDataset& SharedCity() {
  static const PointDataset dataset =
      *GenerateCityDataset(City::kLosAngeles, 0.02, 42);
  return dataset;
}

/// Aspect-ratio sweep at a constant ~16k pixels. Arg pairs (X, Y).
void BM_AspectRatio(benchmark::State& state) {
  const bool rao = state.range(2) != 0;
  const int width = static_cast<int>(state.range(0));
  const int height = static_cast<int>(state.range(1));
  const auto& ds = SharedCity();
  const auto viewport = *Viewport::Create(ds.Extent(), width, height);
  const KdvTask task =
      MakeTask(ds, viewport, KernelType::kEpanechnikov, 1500.0);
  const Method method = rao ? Method::kSlamBucketRao : Method::kSlamBucket;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeKdv(task, method)->MaxValue());
  }
  state.SetLabel(StringPrintf("%dx%d %s", width, height,
                              rao ? "RAO" : "base"));
}
BENCHMARK(BM_AspectRatio)
    ->Args({512, 32, 0})
    ->Args({512, 32, 1})
    ->Args({160, 120, 0})
    ->Args({160, 120, 1})
    ->Args({128, 128, 0})
    ->Args({128, 128, 1})
    ->Args({120, 160, 0})
    ->Args({120, 160, 1})
    ->Args({32, 512, 0})
    ->Args({32, 512, 1})
    ->Unit(benchmark::kMillisecond);

/// Sort vs bucket at growing dataset sizes (Theorem 1 vs Theorem 2).
void BM_SortVsBucket(benchmark::State& state) {
  const bool bucket = state.range(1) != 0;
  const auto& full = SharedCity();
  const auto subset =
      *SampleCount(full, static_cast<size_t>(state.range(0)), 7);
  const auto viewport = *Viewport::Create(subset.Extent(), 160, 120);
  const KdvTask task =
      MakeTask(subset, viewport, KernelType::kEpanechnikov, 1500.0);
  DensityMap out;
  for (auto _ : state) {
    const Status st = bucket ? ComputeSlamBucket(task, {}, &out)
                             : ComputeSlamSort(task, {}, &out);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(out.MaxValue());
  }
  state.SetLabel(bucket ? "bucket" : "sort");
}
BENCHMARK(BM_SortVsBucket)
    ->Args({3000, 0})
    ->Args({3000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({25000, 0})
    ->Args({25000, 1})
    ->Unit(benchmark::kMillisecond);

/// E(k) for every row of one task: the paper's O(n) per-row scan (Lemma 1,
/// the dispatched envelope_filter) vs the live envelope the sweep runs,
/// which each point enters once. Both emit the same lanes.
void BM_EnvelopeStrategy(benchmark::State& state) {
  const bool live = state.range(0) != 0;
  const auto& ds = SharedCity();
  const auto viewport = *Viewport::Create(ds.Extent(), 160, 120);
  const KdvTask task =
      MakeTask(ds, viewport, KernelType::kEpanechnikov, 1500.0);
  const SimdOps* ops = *GetSimdOps(SimdLevel::kAuto);
  const GridAxis& rows = task.grid.y_axis();
  SweepArena ws;
  for (auto _ : state) {
    size_t members = 0;
    if (live) {
      LiveEnvelope envelope(task.points, rows, task.bandwidth, &ws);
      envelope.Plan();
      envelope.Order();
      for (RowIndex iy(0); iy < RowIndex(rows.count); ++iy) {
        members += envelope.Advance(iy);
      }
    } else {
      ws.PrepareCompute(task.points.size(), task.grid.x_axis());
      for (int iy = 0; iy < rows.count; ++iy) {
        members += ops->envelope_filter(task.points, rows.Coord(iy),
                                        task.bandwidth, ws.ex.data(),
                                        ws.ey.data());
      }
    }
    benchmark::DoNotOptimize(members);
  }
  state.SetLabel(live ? "live-envelope" : "per-row-scan");
}
BENCHMARK(BM_EnvelopeStrategy)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Aggregate arity cost: the same sweep under each kernel decomposition
/// (1 vs 4 vs 9 aggregate values, paper Table 4).
void BM_KernelArity(benchmark::State& state) {
  const KernelType kernel = static_cast<KernelType>(state.range(0));
  const auto& ds = SharedCity();
  const auto viewport = *Viewport::Create(ds.Extent(), 160, 120);
  const KdvTask task = MakeTask(ds, viewport, kernel, 1500.0);
  DensityMap out;
  for (auto _ : state) {
    const Status st = ComputeSlamBucket(task, {}, &out);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(out.MaxValue());
  }
  state.SetLabel(std::string(KernelTypeName(kernel)));
}
BENCHMARK(BM_KernelArity)
    ->Arg(static_cast<int>(KernelType::kUniform))
    ->Arg(static_cast<int>(KernelType::kEpanechnikov))
    ->Arg(static_cast<int>(KernelType::kQuartic))
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace slam

BENCHMARK_MAIN();
