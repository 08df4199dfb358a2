// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around each call into a library layer; a null
// Tracer* turns every hook into a single branch, which is how the timed
// run executes the same op loop untraced.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct Span {
  int32_t id = 0;
  int32_t parent = -1;  // -1 = root
  int64_t op_id = -1;   // user action the span belongs to; -1 = set-up
  const char* name = "";
  int64_t start_ns = 0;  // steady clock, relative to the tracer's epoch
  int64_t end_ns = 0;

  double millis() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Tags the spans opened from now on with `op_id`.
  void SetOp(int64_t op_id) { op_id_ = op_id; }

  int32_t Open(const char* name);
  void Close(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ms) of every closed span called `name`; with `ops_only`,
  /// of those that belong to an op rather than to set-up.
  std::vector<double> DurationsMs(const char* name,
                                  bool ops_only = false) const;
  /// Writes one JSON object per span, one per line.
  slam::Status WriteJsonLines(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  int64_t op_id_ = -1;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // stack of open span ids: the parent chain
};

/// RAII span; a no-op when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace perfbench
