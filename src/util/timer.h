// Wall-clock timing utilities for benchmarks and budgeted runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>

namespace slam {

/// Monotonic stopwatch. Starts running on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Deadline for budgeted experiment cells (reproduces the paper's
/// ">14400 sec" censoring rule at laptop scale) and for per-render
/// budgets (`slam_kdv --timeout-ms`, ExplorerSession::RenderAdaptive).
///
/// A zero or negative budget is a deadline that has ALREADY passed: the
/// holder fails fast instead of doing unbounded work, so a client that
/// asks for "0 ms" gets an immediate DeadlineExceeded rather than an
/// unlimited computation. "No deadline" is expressed by not attaching one
/// (a null ExecContext member) or by Deadline::Unlimited().
class Deadline {
 public:
  /// A deadline `budget_seconds` from now. Non-positive budget = already
  /// expired (fail fast).
  explicit Deadline(double budget_seconds)
      : budget_seconds_(budget_seconds), timer_() {}

  /// A deadline that never expires.
  static Deadline Unlimited() {
    return Deadline(std::numeric_limits<double>::infinity());
  }

  bool Expired() const {
    return budget_seconds_ <= 0 || timer_.ElapsedSeconds() > budget_seconds_;
  }
  /// Seconds until expiry: 0 when already expired, +inf when unlimited.
  double RemainingSeconds() const {
    if (budget_seconds_ <= 0) return 0.0;
    const double remaining = budget_seconds_ - timer_.ElapsedSeconds();
    return remaining > 0 ? remaining : 0.0;
  }
  double budget_seconds() const { return budget_seconds_; }

 private:
  double budget_seconds_;
  Timer timer_;
};

}  // namespace slam
