// The closed-loop driver shared by the timed and traced binaries: command
// line, repeated set-up, the op loop, and the result line.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Args {
  WorkloadKind workload = WorkloadKind::kExport;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string work_dir = ".";  // where the input CSV (and trace) go
};

/// Pins glibc's malloc thresholds (no-op elsewhere); call first in main.
/// By default glibc raises its mmap threshold whenever a large mapped
/// block is freed, so whether a later multi-MB block is mapped (and
/// returned on free) or carved from the heap (and kept) depends on the
/// exact history of earlier allocations: peak RSS on time_slider moved by
/// a fifth with the length of the input file's path. With fixed
/// thresholds large blocks always come from the heap and stay there, so
/// peak RSS is the heap's high-water mark.
void FixAllocatorThresholds();

/// Parses --workload, --seed, --seconds and --work-dir.
slam::Result<Args> ParseArgs(int argc, char** argv);

/// WriteInputCsv in a forked child process, so generating the city (a
/// larger dataset than the workload's) never sets this process's peak RSS.
/// Call before any thread starts.
slam::Status WriteInputCsvInChild(uint64_t seed, const std::string& path);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetUps = 7;

struct SetUps {
  std::vector<double> seconds;                      // one per set-up
  std::vector<std::unique_ptr<Workload>> workloads;  // the last `keep`
};

/// Runs `repeats` independent set-ups of the workload from the CSV, each on
/// a fresh thread so its first render starts with a cold thread arena, and
/// keeps the last `keep` of them alive. Earlier ones are destroyed (and
/// their pages trimmed) before the next set-up starts, so at most keep - 1
/// workloads are resident while one is set up. A serial workload's set-up
/// r runs pinned to allowed CPU r (mod their count).
slam::Result<SetUps> SetUpRepeated(const Args& args, const std::string& csv,
                                   int repeats, int keep, Tracer* tracer);

struct OpLoopOptions {
  double seconds = 10.0;  // stop once the ops' measured time reaches this...
  int min_ops = kMinOps;  // ...and at least this many ops ran
  int period = 1;         // stop only after a whole number of periods
  double wall_cap_s = 1e9;  // give up (with fewer ops) past this wall time
  std::vector<int> check_ops;  // ops whose render gets CheckRender
  uint64_t seed = 1;
};

struct OpLoopResult {
  std::vector<double> latency_ms;  // one per attempted op
  int attempted = 0;
  int failed = 0;  // non-OK ops plus failed checks
  std::vector<std::string> failures;
};

/// Called after each successful op, outside its timed region.
using AfterOp = std::function<slam::Status(int op, const slam::DensityMap& map,
                                           double latency_ms)>;

/// Runs ops one after another (one closed-loop caller). A failing
/// `after_op` counts as a failed op. On a serial workload, op i of round r
/// (i = r * period + slot) runs pinned to allowed CPU slot + r (mod their
/// count), so consecutive ops, and the rounds of one script op, run on
/// different CPUs; the thread may use them all again afterwards.
OpLoopResult RunOps(Workload* workload, const OpLoopOptions& options,
                    Tracer* tracer, const AfterOp& after_op = {});

/// `count` distinct op indices in [0, range), seeded.
std::vector<int> SampleOps(uint64_t seed, int count, int range);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // printed on the human-readable line only
};

/// Prints one human-readable line per metric (plus every metric in
/// `extra`), then the result as one JSON object on the last line.
void PrintResult(bool correct, const OpLoopResult& loop,
                 const std::vector<Metric>& metrics,
                 const std::vector<Metric>& extra = {});

}  // namespace perfbench
