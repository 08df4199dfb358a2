// Microbenchmarks (google-benchmark) of SLAM's building blocks, backing
// the ablation notes in DESIGN.md §4:
//  * envelope discovery: the paper's O(n) per-row scan (the live envelope
//    that replaces it in the sweep is timed in ablation_rao.cc);
//  * per-row endpoint ordering: sorting vs bucketing (the log n factor
//    Theorem 2 removes);
//  * aggregate maintenance cost per kernel (1 vs 4 vs 9 aggregate values);
//  * index construction costs the baselines pay per KDV call.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/bounds.h"
#include "core/envelope.h"
#include "core/sweep_state.h"
#include "data/generators.h"
#include "index/balltree.h"
#include "index/kdtree.h"
#include "index/quadtree.h"
#include "kdv/engine.h"

namespace slam {
namespace {

const PointDataset& SharedCity() {
  static const PointDataset dataset =
      *GenerateCityDataset(City::kSeattle, 0.02, 42);
  return dataset;
}

void BM_EnvelopeLinearScan(benchmark::State& state) {
  const auto& ds = SharedCity();
  const double b = 600.0;
  const WorldY k(ds.Extent().center().y);
  std::vector<Point> env;
  for (auto _ : state) {
    FindEnvelope(ds.coords(), k, b, &env);
    benchmark::DoNotOptimize(env.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.size()));
}
BENCHMARK(BM_EnvelopeLinearScan);

void BM_BoundIntervalComputation(benchmark::State& state) {
  const auto& ds = SharedCity();
  const double b = 600.0;
  const WorldY k(ds.Extent().center().y);
  std::vector<Point> env;
  FindEnvelope(ds.coords(), k, b, &env);
  std::vector<BoundInterval> intervals;
  for (auto _ : state) {
    ComputeBoundIntervals(env, k, b, &intervals);
    benchmark::DoNotOptimize(intervals.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.size()));
}
BENCHMARK(BM_BoundIntervalComputation);

/// The per-row log n the bucket variant deletes: sort the endpoint events.
void BM_RowEndpointSort(benchmark::State& state) {
  const auto& ds = SharedCity();
  const double b = 600.0;
  const WorldY k(ds.Extent().center().y);
  std::vector<Point> env;
  FindEnvelope(ds.coords(), k, b, &env);
  std::vector<BoundInterval> intervals;
  ComputeBoundIntervals(env, k, b, &intervals);
  std::vector<double> endpoints(intervals.size());
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t i = 0; i < intervals.size(); ++i) {
      endpoints[i] = intervals[i].lb;
    }
    state.ResumeTiming();
    std::sort(endpoints.begin(), endpoints.end());
    benchmark::DoNotOptimize(endpoints.data());
  }
}
BENCHMARK(BM_RowEndpointSort);

/// Bucketing the same endpoints: O(|E| + X).
void BM_RowEndpointBucket(benchmark::State& state) {
  const auto& ds = SharedCity();
  const double b = 600.0;
  const WorldY k(ds.Extent().center().y);
  const int X = 1280;
  const double x0 = ds.Extent().min().x;
  const double gap = ds.Extent().width() / X;
  std::vector<Point> env;
  FindEnvelope(ds.coords(), k, b, &env);
  std::vector<BoundInterval> intervals;
  ComputeBoundIntervals(env, k, b, &intervals);
  std::vector<int32_t> counts;
  for (auto _ : state) {
    counts.assign(X + 2, 0);
    for (const BoundInterval& iv : intervals) {
      const double t = std::ceil((iv.lb - x0) / gap);
      const int bucket =
          t <= 0.0 ? 0 : (t >= X ? X : static_cast<int>(t));
      ++counts[bucket + 1];
    }
    benchmark::DoNotOptimize(counts.data());
  }
}
BENCHMARK(BM_RowEndpointBucket);

void BM_AggregateAdd(benchmark::State& state) {
  const auto& ds = SharedCity();
  RangeAggregates agg;
  size_t i = 0;
  for (auto _ : state) {
    agg.Add(ds.coord(i));
    if (++i == ds.size()) i = 0;
  }
  benchmark::DoNotOptimize(&agg);
}
BENCHMARK(BM_AggregateAdd);

void BM_DensityFromAggregates(benchmark::State& state) {
  const KernelType kernel = static_cast<KernelType>(state.range(0));
  RangeAggregates agg;
  const auto& ds = SharedCity();
  for (size_t i = 0; i < 1000; ++i) agg.Add(ds.coord(i));
  const Point q = ds.Extent().center();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DensityFromAggregates(kernel, q, agg, 600.0, 1e-3));
  }
}
BENCHMARK(BM_DensityFromAggregates)
    ->Arg(static_cast<int>(KernelType::kUniform))
    ->Arg(static_cast<int>(KernelType::kEpanechnikov))
    ->Arg(static_cast<int>(KernelType::kQuartic));

void BM_KdTreeBuild(benchmark::State& state) {
  const auto& ds = SharedCity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(KdTree::Build(ds.coords())->size());
  }
}
BENCHMARK(BM_KdTreeBuild);

void BM_BallTreeBuild(benchmark::State& state) {
  const auto& ds = SharedCity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BallTree::Build(ds.coords())->size());
  }
}
BENCHMARK(BM_BallTreeBuild);

void BM_QuadTreeBuild(benchmark::State& state) {
  const auto& ds = SharedCity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(QuadTree::Build(ds.coords())->size());
  }
}
BENCHMARK(BM_QuadTreeBuild);

void BM_KdTreeRangeAggregate(benchmark::State& state) {
  const auto& ds = SharedCity();
  const auto tree = *KdTree::Build(ds.coords());
  const Point q = ds.Extent().center();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.RangeAggregateQuery(q, 600.0).count);
  }
}
BENCHMARK(BM_KdTreeRangeAggregate);

/// Whole-KDV microbenchmark on a small grid, one per SLAM variant, showing
/// the sort -> bucket -> RAO progression end to end.
void BM_SmallKdv(benchmark::State& state) {
  const Method method = static_cast<Method>(state.range(0));
  const auto& ds = SharedCity();
  const auto viewport = *Viewport::Create(ds.Extent(), 96, 128);
  const KdvTask task = MakeTask(ds, viewport, KernelType::kEpanechnikov,
                                600.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeKdv(task, method)->MaxValue());
  }
  state.SetLabel(std::string(MethodName(method)));
}
BENCHMARK(BM_SmallKdv)
    ->Arg(static_cast<int>(Method::kSlamSort))
    ->Arg(static_cast<int>(Method::kSlamBucket))
    ->Arg(static_cast<int>(Method::kSlamSortRao))
    ->Arg(static_cast<int>(Method::kSlamBucketRao))
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace slam

BENCHMARK_MAIN();
