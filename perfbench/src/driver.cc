#include "driver.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string_view>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#if defined(__linux__)
#include <sched.h>
#endif

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/string_util.h"
#include "util/timer.h"

namespace perfbench {

using slam::Result;
using slam::Status;

void FixAllocatorThresholds() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's maximum
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
#endif
}

namespace {

/// Each set-up thread gets its own malloc arena, which keeps the freed pages
/// of dropped set-ups resident; hand them back so peak RSS counts one
/// user's set-up, not the benchmark's repetitions of it.
void TrimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// The CPUs this process may run on; empty where that is unknown.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
#endif
  return cpus;
}

/// Restricts the calling thread to `cpus`. Best effort: where that fails
/// the thread runs wherever the scheduler puts it.
void PinThread(const std::vector<int>& cpus) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
#else
  (void)cpus;
#endif
}

/// The CPUs a serial workload rotates over; none for a workload that
/// renders on a pool, whose threads would inherit a pinned caller's mask.
std::vector<int> RotationCpus(const Workload& workload) {
  return workload.threads() == 1 ? AllowedCpus() : std::vector<int>{};
}

}  // namespace

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      return Status::InvalidArgument("missing value for " + std::string(flag));
    }
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      SLAM_ASSIGN_OR_RETURN(args.workload, WorkloadFromName(value));
    } else if (flag == "--seed") {
      SLAM_ASSIGN_OR_RETURN(int64_t seed, slam::ParseInt64(value));
      if (seed < 0) return Status::InvalidArgument("--seed must be >= 0");
      args.seed = static_cast<uint64_t>(seed);
    } else if (flag == "--seconds") {
      SLAM_ASSIGN_OR_RETURN(args.seconds, slam::ParseDouble(value));
      if (!(args.seconds > 0.0 && args.seconds <= 120.0)) {
        return Status::InvalidArgument("--seconds must be in (0, 120]");
      }
    } else if (flag == "--work-dir") {
      args.work_dir = std::string(value);
    } else {
      return Status::InvalidArgument("unknown flag " + std::string(flag));
    }
  }
  return args;
}

Status WriteInputCsvInChild(uint64_t seed, const std::string& path) {
  std::fflush(nullptr);  // the child must not flush the parent's buffers
  const pid_t pid = fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    const Status status = WriteInputCsv(seed, path);
    if (!status.ok()) std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::fflush(stderr);
    _exit(status.ok() ? 0 : 1);
  }
  int wstatus = 0;
  if (waitpid(pid, &wstatus, 0) != pid) {
    return Status::Internal("waitpid failed");
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("writing the input CSV failed");
  }
  return Status::OK();
}

Result<SetUps> SetUpRepeated(const Args& args, const std::string& csv,
                             int repeats, int keep, Tracer* tracer) {
  SetUps out;
  for (int r = 0; r < repeats; ++r) {
    // A user's process holds one workload: drop the ones no longer kept
    // before this set-up starts, not after it ends.
    while (!out.workloads.empty() &&
           static_cast<int>(out.workloads.size()) >= keep) {
      out.workloads.erase(out.workloads.begin());
    }
    TrimHeap();
    std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
    const std::vector<int> cpus = RotationCpus(*workload);
    Status status;
    double seconds = 0.0;
    std::thread thread([&] {
      if (!cpus.empty()) {
        PinThread({cpus[static_cast<size_t>(r) % cpus.size()]});
      }
      if (tracer != nullptr) tracer->SetOp(-1);
      ScopedSpan span(tracer, "setup");
      slam::Timer timer;
      status = workload->SetUp(csv, tracer);
      seconds = timer.ElapsedSeconds();
    });
    thread.join();
    SLAM_RETURN_NOT_OK(status);
    out.seconds.push_back(seconds);
    out.workloads.push_back(std::move(workload));
  }
  TrimHeap();
  return out;
}

OpLoopResult RunOps(Workload* workload, const OpLoopOptions& options,
                    Tracer* tracer, const AfterOp& after_op) {
  OpLoopResult result;
  const std::set<int> checks(options.check_ops.begin(),
                             options.check_ops.end());
  const std::vector<int> cpus = RotationCpus(*workload);
  const int period = std::max(1, options.period);
  slam::Timer wall;
  double measured_s = 0.0;
  for (int op = 0;; ++op) {
    if (op >= options.min_ops && measured_s >= options.seconds &&
        op % period == 0) {
      break;
    }
    if (wall.ElapsedSeconds() > options.wall_cap_s) break;
    if (!cpus.empty()) {
      const size_t slot = static_cast<size_t>(op % period + op / period);
      PinThread({cpus[slot % cpus.size()]});
    }
    if (tracer != nullptr) tracer->SetOp(op);
    slam::Timer timer;
    Result<slam::DensityMap> map = [&] {
      ScopedSpan span(tracer, "op");
      return workload->Step(tracer);
    }();
    const double ms = timer.ElapsedMillis();
    measured_s += ms / 1e3;
    result.latency_ms.push_back(ms);
    ++result.attempted;
    Status status = map.status();
    if (status.ok() && checks.count(op) > 0) {
      slam::Rng rng(options.seed * 1000003ULL + static_cast<uint64_t>(op));
      status = CheckRender(*workload, *map, &rng);
    }
    if (status.ok() && after_op) status = after_op(op, *map, ms);
    if (!status.ok()) {
      ++result.failed;
      result.failures.push_back(
          slam::StringPrintf("op %d: %s", op, status.ToString().c_str()));
    }
  }
  if (!cpus.empty()) PinThread(cpus);
  return result;
}

std::vector<int> SampleOps(uint64_t seed, int count, int range) {
  slam::Rng rng(seed ^ 0xc4ec5eedULL);
  const auto picked = rng.SampleWithoutReplacement(
      static_cast<size_t>(range),
      static_cast<size_t>(std::clamp(count, 0, range)));
  std::vector<int> ops(picked.begin(), picked.end());
  std::sort(ops.begin(), ops.end());
  return ops;
}

void PrintResult(bool correct, const OpLoopResult& loop,
                 const std::vector<Metric>& metrics,
                 const std::vector<Metric>& extra) {
  for (const std::string& failure : loop.failures) {
    std::printf("FAILED %s\n", failure.c_str());
  }
  for (const auto* list : {&metrics, &extra}) {
    for (const Metric& m : *list) {
      std::printf("%-30s %14.6f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }
  std::string json = slam::StringPrintf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
      correct ? "true" : "false", loop.attempted, loop.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += slam::StringPrintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                               i == 0 ? "" : ", ", metrics[i].name.c_str(),
                               metrics[i].value, metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
