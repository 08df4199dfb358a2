// Traced run: the per-layer metrics of one workload.
//
//   perfbench_traced --workload export|pan_zoom|time_slider --seed N
//                    --seconds S --work-dir DIR
//
// Runs the workload's op script on two identical set-ups in lockstep, one
// traced with spans around every layer call and one untraced, so the wall
// difference is the tracing overhead. A seeded sample of the traced ops is
// then measured layer by layer: serial ComputeKdv, the per-pass replay
// (which must reproduce ComputeKdv's raster bit for bit), SLAM_BUCKET and
// SLAM_SORT for the RAO and sort diagnostics, and on export the row
// stripes ComputeKdvParallel cuts. The spans are written to
// DIR/trace-<workload>-<seed>.jsonl. Exit codes as perfbench_timed.
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/rao.h"
#include "driver.h"
#include "kdv/engine.h"
#include "replay.h"
#include "stats.h"
#include "util/string_util.h"
#include "util/timer.h"

using namespace perfbench;
using slam::DensityMap;
using slam::KdvTask;
using slam::Status;

namespace {

constexpr int kReplaySamples = 4;
constexpr int kCheckedOps = 4;
/// The traced loop runs at least this many ops; checks and replays are
/// sampled among them.
constexpr int kMinTracedOps = 20;
constexpr double kRunCapSeconds = 150.0;

/// Layer measurements of one sampled render.
struct LayerSample {
  ReplayResult replay;
  double compute_ms = 0.0;
  double bucket_ms = 0.0;
  double sort_ms = 0.0;
  double parallel_ms = 0.0;  // the op's render on the pool
  double stripe_imbalance = 0.0;
  double stripe_env_imbalance = 0.0;
};

/// Wall time of one serial ComputeKdv; the raster goes to `out` if given.
slam::Result<double> TimeMs(const KdvTask& task, slam::Method method,
                            DensityMap* out = nullptr) {
  slam::Timer timer;
  SLAM_ASSIGN_OR_RETURN(DensityMap map, slam::ComputeKdv(task, method));
  const double ms = timer.ElapsedMillis();
  if (out != nullptr) *out = std::move(map);
  return ms;
}

double MaxOverMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0, max = 0.0;
  for (double x : v) {
    sum += x;
    max = std::max(max, x);
  }
  return sum > 0.0 ? max * static_cast<double>(v.size()) / sum : 0.0;
}

slam::Result<LayerSample> MeasureLayers(const Workload& workload,
                                        double latency_ms) {
  const KdvTask task = workload.CurrentTask();
  LayerSample s;
  DensityMap serial;
  SLAM_ASSIGN_OR_RETURN(s.compute_ms, TimeMs(task, kMethod, &serial));
  SLAM_ASSIGN_OR_RETURN(s.replay, ReplayRender(task));
  if (!BitIdentical(s.replay.map, serial)) {
    return Status::Internal("replayed raster is not bit-identical to "
                            "ComputeKdv's on " + task.grid.ToString());
  }
  SLAM_ASSIGN_OR_RETURN(s.bucket_ms, TimeMs(task, slam::Method::kSlamBucket));
  SLAM_ASSIGN_OR_RETURN(s.sort_ms, TimeMs(task, slam::Method::kSlamSort));
  if (workload.threads() > 1) {
    s.parallel_ms = latency_ms;
    const auto stripes = ParallelStripes(task.grid.height(), workload.threads());
    SLAM_ASSIGN_OR_RETURN(const int ran,
                          CountParallelStripes(task, workload.threads()));
    if (ran != static_cast<int>(stripes.size())) {
      return Status::Internal(slam::StringPrintf(
          "ComputeKdvParallel ran %d stripes, the benchmark times %zu", ran,
          stripes.size()));
    }
    std::vector<double> stripe_ms, stripe_env;
    for (const auto& [lo, hi] : stripes) {
      // The sub-task ComputeKdvParallel builds for rows [lo, hi).
      slam::GridAxis y = task.grid.y_axis();
      y.origin = task.grid.y_axis().Coord(lo);
      y.count = hi - lo;
      KdvTask stripe = task;
      SLAM_ASSIGN_OR_RETURN(stripe.grid,
                            slam::Grid::Create(task.grid.x_axis(), y));
      SLAM_ASSIGN_OR_RETURN(double ms, TimeMs(stripe, kMethod));
      stripe_ms.push_back(ms);
      double env = 0.0;
      if (!s.replay.transposed) {
        for (int r = lo; r < hi; ++r) {
          env += static_cast<double>(s.replay.row_envelope[static_cast<size_t>(r)]);
        }
      }
      stripe_env.push_back(env);
    }
    s.stripe_imbalance = MaxOverMean(stripe_ms);
    s.stripe_env_imbalance = MaxOverMean(stripe_env);
  }
  return s;
}

/// Median over samples of `f(sample)`, over the samples `keep` accepts.
template <typename F, typename Keep>
double MedianOf(const std::vector<LayerSample>& samples, F f, Keep keep) {
  std::vector<double> v;
  for (const LayerSample& s : samples) {
    if (keep(s)) v.push_back(f(s));
  }
  return Median(v);
}

template <typename F>
double MedianOf(const std::vector<LayerSample>& samples, F f) {
  return MedianOf(samples, f, [](const LayerSample&) { return true; });
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

int Run(const Args& args) {
  slam::Timer run_timer;
  const std::string stem = std::string(WorkloadName(args.workload)) + "-" +
                           std::to_string(args.seed);
  const std::string csv = args.work_dir + "/input-" + stem + ".csv";
  if (const auto status = WriteInputCsvInChild(args.seed, csv);
      !status.ok()) {
    std::fprintf(stderr, "input: %s\n", status.ToString().c_str());
    return 2;
  }
  Tracer tracer;
  auto setups = SetUpRepeated(args, csv, kSetUps, /*keep=*/2, &tracer);
  std::remove(csv.c_str());
  if (!setups.ok()) {
    std::fprintf(stderr, "set-up: %s\n", setups.status().ToString().c_str());
    return 2;
  }
  Workload* untraced = setups->workloads[0].get();
  Workload* traced = setups->workloads[1].get();
  for (Workload* w : {untraced, traced}) {
    for (int i = 0; i < 2; ++i) {
      if (const auto warm = w->Render(nullptr); !warm.ok()) {
        std::fprintf(stderr, "warm-up: %s\n", warm.status().ToString().c_str());
        return 2;
      }
    }
  }
  // The layer measurements render serially on this thread; warm its arena.
  if (!slam::ComputeKdv(traced->CurrentTask(), kMethod).ok()) return 2;

  // The traced set-up runs the op loop; after each of its ops the untraced
  // one runs the same op, so both see the same machine state and the sum
  // of the differences is the tracing overhead.
  OpLoopOptions options;
  options.seconds = args.seconds / 2.0;
  options.min_ops = kMinTracedOps;
  options.wall_cap_s = (kRunCapSeconds - run_timer.ElapsedSeconds()) / 3.0;
  options.seed = args.seed;
  options.check_ops = SampleOps(args.seed, kCheckedOps, kMinTracedOps);
  const std::vector<int> replay_ops =
      SampleOps(args.seed + 1, kReplaySamples, kMinTracedOps);
  const std::set<int> replay_set(replay_ops.begin(), replay_ops.end());
  std::vector<LayerSample> samples;
  std::vector<double> untraced_ms;
  int transposed_ops = 0;
  const OpLoopResult loop = RunOps(
      traced, options, &tracer,
      [&](int op, const DensityMap&, double latency_ms) -> Status {
        transposed_ops += slam::RaoWouldTranspose(traced->CurrentTask());
        slam::Timer timer;
        SLAM_RETURN_NOT_OK(untraced->Step(nullptr).status());
        untraced_ms.push_back(timer.ElapsedMillis());
        if (replay_set.count(op) == 0) return Status::OK();
        SLAM_ASSIGN_OR_RETURN(LayerSample sample,
                              MeasureLayers(*traced, latency_ms));
        samples.push_back(std::move(sample));
        return Status::OK();
      });
  if (const auto st = tracer.WriteJsonLines(args.work_dir + "/trace-" + stem +
                                            ".jsonl");
      !st.ok()) {
    std::fprintf(stderr, "trace: %s\n", st.ToString().c_str());
  }

  const bool parallel = traced->threads() > 1;
  const bool transposes = transposed_ops > 0;
  const auto rao = [](const LayerSample& s) { return s.replay.transposed; };
  const auto pass = [&](int p) {
    return MedianOf(samples, [p](const LayerSample& s) {
      return s.replay.pass_ms[p];
    });
  };
  const std::string na = "n/a on this workload";
  std::vector<double> view_ops = tracer.DurationsMs("explore.pan", true);
  for (double ms : tracer.DurationsMs("explore.zoom", true)) {
    view_ops.push_back(ms);
  }
  const std::vector<double> filters =
      tracer.DurationsMs("explore.filter", true);
  const double passes_total = MedianOf(
      samples, [](const LayerSample& s) { return s.replay.passes_ms(); });

  std::vector<Metric> m;
  m.push_back({"data.csv_load_ms", Median(tracer.DurationsMs("data.csv_load")),
               "ms", ""});
  m.push_back({"explore.view_op_us", Median(view_ops) * 1e3, "us",
               view_ops.empty() ? na : ""});
  m.push_back({"explore.filter_ms", Median(filters), "ms",
               filters.empty() ? na : ""});
  m.push_back({"kdv.compute_ms",
               MedianOf(samples, [](const LayerSample& s) { return s.compute_ms; }),
               "ms", "serial ComputeKdv"});
  m.push_back({"kdv.overhead_ms", MedianOf(samples, [](const LayerSample& s) {
                 return s.compute_ms - s.replay.passes_ms() -
                        s.replay.transpose_ms - s.replay.raster_transpose_ms;
               }), "ms", "compute minus passes minus transposes"});
  const auto par = [&](const char* name, auto f, const char* unit) {
    m.push_back({name, parallel ? MedianOf(samples, f) : 0.0, unit,
                 parallel ? "" : na});
  };
  const double threads = traced->threads();
  par("parallel.serial_ms", [](const LayerSample& s) { return s.compute_ms; },
      "ms");
  par("parallel.speedup",
      [](const LayerSample& s) { return s.compute_ms / s.parallel_ms; },
      "ratio");
  par("parallel.efficiency",
      [threads](const LayerSample& s) {
        return s.compute_ms / s.parallel_ms / threads;
      },
      "ratio");
  par("parallel.stripe_imbalance",
      [](const LayerSample& s) { return s.stripe_imbalance; }, "ratio");
  par("parallel.stripe_env_imbalance",
      [](const LayerSample& s) { return s.stripe_env_imbalance; }, "ratio");
  m.push_back({"core.transpose_ms", MedianOf(samples, [](const LayerSample& s) {
                 return s.replay.transpose_ms;
               }), "ms", transposes ? "" : na});
  m.push_back({"core.raster_transpose_ms",
               MedianOf(samples, [](const LayerSample& s) {
                 return s.replay.raster_transpose_ms;
               }), "ms", transposes ? "" : na});
  m.push_back({"core.transposed_frac",
               static_cast<double>(transposed_ops) / std::max(1, loop.attempted),
               "ratio", ""});
  m.push_back({"core.rao_gain",
               MedianOf(samples,
                        [](const LayerSample& s) {
                          return s.bucket_ms / s.compute_ms;
                        },
                        rao),
               "ratio", transposes ? "SLAM_BUCKET over SLAM_BUCKET_RAO" : na});
  m.push_back({"core.arena_heap_mb", MedianOf(samples, [](const LayerSample& s) {
                 return s.replay.arena_heap_mb;
               }), "MB", ""});
  m.push_back({"core.arena_prepare_us",
               MedianOf(samples, [](const LayerSample& s) {
                 return s.replay.arena_prepare_us;
               }), "us", ""});
  m.push_back({"core.sort_over_bucket", MedianOf(samples, [](const LayerSample& s) {
                 return s.sort_ms / s.bucket_ms;
               }), "ratio", "diagnostic"});
  for (int p = 0; p < kNumPasses; ++p) {
    const double ms = pass(p);
    m.push_back({std::string("simd.") + kPassNames[p] + "_ms", ms, "ms",
                 slam::StringPrintf("%.1f%% of the passes",
                                    passes_total > 0 ? 100.0 * ms / passes_total
                                                     : 0.0)});
  }
  const auto count = [&](const char* name, auto f) {
    m.push_back({name, MedianOf(samples, f), "count", ""});
  };
  count("simd.rows", [](const LayerSample& s) {
    return static_cast<double>(s.replay.rows);
  });
  count("simd.points_scanned", [](const LayerSample& s) {
    return static_cast<double>(s.replay.points_scanned);
  });
  count("simd.envelope_points", [](const LayerSample& s) {
    return static_cast<double>(s.replay.envelope_points);
  });
  count("simd.envelope_max", [](const LayerSample& s) {
    return static_cast<double>(s.replay.envelope_max);
  });
  count("simd.pixels", [](const LayerSample& s) {
    return static_cast<double>(s.replay.pixels);
  });
  m.push_back({"simd.envelope_hit_ratio",
               MedianOf(samples, [](const LayerSample& s) {
                 return static_cast<double>(s.replay.envelope_points) /
                        static_cast<double>(std::max<int64_t>(
                            1, s.replay.points_scanned));
               }), "ratio", "envelope points / points scanned"});
  m.push_back({"simd.parked_ratio", MedianOf(samples, [](const LayerSample& s) {
                 return static_cast<double>(s.replay.parked_endpoints) /
                        static_cast<double>(std::max<int64_t>(
                            1, 2 * s.replay.envelope_points));
               }), "ratio", "endpoints outside the view / endpoints"});
  const double base_ms = Sum(untraced_ms);
  m.push_back({"trace.overhead_frac",
               base_ms > 0 ? (Sum(loop.latency_ms) - base_ms) / base_ms : 0.0,
               "ratio",
               slam::StringPrintf("%d ops traced vs the same ops untraced",
                                  loop.attempted)});

  const bool correct = loop.failed == 0 &&
                       static_cast<int>(samples.size()) == kReplaySamples;
  PrintResult(correct, loop, m);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  FixAllocatorThresholds();
  const auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 2;
  }
  return Run(*args);
}
