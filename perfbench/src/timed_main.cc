// Timed run: the end-to-end metrics of one workload, tracing off.
//
//   perfbench_timed --workload export|pan_zoom|time_slider --seed N
//                   --seconds S --work-dir DIR
//
// Prints one line per metric and, last, the result JSON. Exit 0 when every
// op succeeded and every check passed, 1 when any failed, 2 when the run
// could not start.
#include <cstdio>
#include <string>

#include "driver.h"
#include "stats.h"
#include "util/string_util.h"
#include "util/timer.h"

using namespace perfbench;

namespace {

/// Ops checked against the oracle (outside the timed region) per run.
constexpr int kCheckedOps = 4;
/// The whole run must end well inside three minutes.
constexpr double kRunCapSeconds = 150.0;

int Run(const Args& args) {
  slam::Timer run_timer;
  const std::string csv = args.work_dir + "/input-" +
                          std::string(WorkloadName(args.workload)) + "-" +
                          std::to_string(args.seed) + ".csv";
  if (const auto status = WriteInputCsvInChild(args.seed, csv);
      !status.ok()) {
    std::fprintf(stderr, "input: %s\n", status.ToString().c_str());
    return 2;
  }
  auto setups = SetUpRepeated(args, csv, kSetUps, /*keep=*/1, nullptr);
  std::remove(csv.c_str());
  if (!setups.ok()) {
    std::fprintf(stderr, "set-up: %s\n", setups.status().ToString().c_str());
    return 2;
  }
  Workload* workload = setups->workloads.back().get();
  // Warm the main thread's arena and caches: users pay the cold render
  // once, and set-up already measures it.
  for (int i = 0; i < 2; ++i) {
    if (const auto warm = workload->Render(nullptr); !warm.ok()) {
      std::fprintf(stderr, "warm-up: %s\n", warm.status().ToString().c_str());
      return 2;
    }
  }

  OpLoopOptions options;
  options.seconds = args.seconds;
  options.period = workload->period();
  options.wall_cap_s = kRunCapSeconds - run_timer.ElapsedSeconds();
  options.check_ops = SampleOps(args.seed, kCheckedOps, kMinOps);
  options.seed = args.seed;
  const OpLoopResult loop = RunOps(workload, options, nullptr);

  // The median is taken over the script's ops, each at its best round:
  // on a shared host the core runs up to a third slower for seconds at a
  // time, and the median of all samples jumps with the share of the run
  // spent slow. The p90 keeps every sample, contended ones included.
  const std::vector<double> best =
      BestPerScriptOp(loop.latency_ms, options.period);
  const double p50 = Median(best);
  const double p90 = Percentile(loop.latency_ms, 90.0);
  const Quartiles q = ExclusiveQuartiles(loop.latency_ms);
  const double failed_frac = static_cast<double>(loop.failed) /
                             static_cast<double>(std::max(1, loop.attempted));
  const std::vector<Metric> metrics = {
      {"latency_ms_p50", p50, "ms",
       slam::StringPrintf("median of %zu script ops, each its best of %d "
                          "rounds (all %d ops: q1 %.3f, median %.3f, q3 %.3f)",
                          best.size(), loop.attempted / options.period,
                          loop.attempted, q.q1, q.q2, q.q3)},
      {"latency_ms_p90", p90, "ms",
       slam::StringPrintf("%d of %d ops beyond it",
                          CountAbove(loop.latency_ms, p90), loop.attempted)},
      {"setup_s", Median(setups->seconds), "s",
       slam::StringPrintf("median of %d set-ups", kSetUps)},
      {"peak_rss_mb", PeakRssMb(), "MB", "VmHWM over the whole run"},
  };
  // failed_frac is 0 on a correct run, so it is reported through the
  // result's attempted/failed counts rather than as a timed metric.
  const std::vector<Metric> extra = {
      {"failed_frac", failed_frac, "ratio",
       slam::StringPrintf("%d of %d ops failed", loop.failed, loop.attempted)},
  };
  const bool correct = loop.failed == 0;
  if (loop.attempted < kMinOps) {
    std::printf("WARNING only %d ops ran; the p90 has fewer than 10 samples "
                "beyond it\n", loop.attempted);
  }
  PrintResult(correct, loop, metrics, extra);
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
