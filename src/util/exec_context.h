// Hardened execution layer for every compute path. An ExecContext bundles
// the four resource-governance concerns an interactive KDV render needs:
//
//  * a cooperative CancellationToken (a pan superseding an in-flight
//    render, a client disconnect, ...),
//  * the wall-clock Deadline (the paper's ">14400 sec" censoring rule,
//    Table 7, at interactive scale),
//  * a byte-accounted MemoryBudget that refuses work before an allocation
//    would exceed it (pre-flighted with EstimateAuxiliarySpaceBytes, then
//    tracked against actual workspace allocations), and
//  * a FaultInjector hook that tests use to force cancellation / OOM / IO
//    failures at deterministic checkpoints.
//
// Methods poll Check() between pixel rows and at phase boundaries (index
// build, transposition), so a tripped token or expired deadline surfaces
// as Status::Cancelled within one row of work. All members are thread-safe
// so one context can govern every stripe of a parallel computation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace slam {

/// Cooperative cancellation flag. Cancel() is sticky. A token may chain to
/// a parent: the child reads as cancelled when either flag is set, which
/// lets a parallel wrapper cancel its own stripes without being able to
/// cancel the caller's token.
class CancellationToken {
 public:
  CancellationToken() = default;
  explicit CancellationToken(const CancellationToken* parent)
      : parent_(parent) {}

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed) ||
           (parent_ != nullptr && parent_->cancelled());
  }

 private:
  std::atomic<bool> cancelled_{false};
  const CancellationToken* parent_ = nullptr;
};

/// A shared byte budget for auxiliary (workspace + index) allocations.
/// Charges are atomic so parallel stripes can draw from one budget.
class MemoryBudget {
 public:
  /// `limit_bytes` is the total auxiliary space the computation may hold
  /// at any instant (the input points and output raster are excluded, as
  /// in Theorem 4's shared O(XY + n)).
  explicit MemoryBudget(size_t limit_bytes) : limit_(limit_bytes) {}

  size_t limit_bytes() const { return limit_; }
  size_t used_bytes() const { return used_.load(std::memory_order_relaxed); }
  size_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  /// True if `bytes` more could be charged right now without exceeding
  /// the limit (advisory; TryCharge is the authoritative operation).
  bool WouldFit(size_t bytes) const {
    const size_t used = used_bytes();
    return used <= limit_ && bytes <= limit_ - used;
  }

  /// Atomically reserves `bytes`; false if that would exceed the limit.
  bool TryCharge(size_t bytes);
  /// Returns a prior charge. Never release more than was charged.
  void Release(size_t bytes);

 private:
  size_t limit_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
};

/// Deterministic fault injection for tests: arm a checkpoint site to start
/// failing after a number of hits. Sites are the string names passed to
/// ExecContext::Check / ChargeMemory (e.g. "slam_bucket/row",
/// "parallel/stripe"); the wildcard site "*" traps every checkpoint.
/// Thread-safe; hit counting is global across threads, which makes
/// "fail stripe k of N" a single Arm("parallel/stripe", k-1, ...) call.
class FaultInjector {
 public:
  /// After `after_hits` successful hits, every later Hit() on `site`
  /// returns `status` (sticky). after_hits = 0 trips on the first hit.
  void Arm(std::string_view site, int64_t after_hits, Status status);

  /// Removes the trap on `site`.
  void Disarm(std::string_view site);

  /// Called by ExecContext at every checkpoint; OK unless a trap tripped.
  Status Hit(std::string_view site);
  /// Hits recorded for an exact site name; "*" returns the global total.
  int64_t HitCount(std::string_view site) const;

 private:
  struct Trap {
    int64_t remaining = 0;  // hits to pass through before tripping
    Status status;
  };

  mutable Mutex mutex_;
  std::map<std::string, Trap, std::less<>> traps_ SLAM_GUARDED_BY(mutex_);
  std::map<std::string, int64_t, std::less<>> hits_ SLAM_GUARDED_BY(mutex_);
  int64_t total_hits_ SLAM_GUARDED_BY(mutex_) = 0;
};

/// The per-computation execution context. A value type holding non-owning
/// pointers; any member may be null (= that concern is unlimited). Copying
/// the context and overriding one member is how wrappers derive stripe- or
/// attempt-scoped contexts.
class ExecContext {
 public:
  ExecContext() = default;

  void set_cancellation(const CancellationToken* token) { cancel_ = token; }
  void set_deadline(const Deadline* deadline) { deadline_ = deadline; }
  void set_memory_budget(MemoryBudget* budget) { budget_ = budget; }
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  const CancellationToken* cancellation() const { return cancel_; }
  const Deadline* deadline() const { return deadline_; }
  MemoryBudget* memory_budget() const { return budget_; }
  FaultInjector* fault_injector() const { return injector_; }

  /// The cooperative checkpoint, polled between pixel rows. Order: fault
  /// injector, cancellation token, deadline. A tripped token surfaces as
  /// Status::Cancelled (the caller asked to stop); an expired deadline as
  /// Status::DeadlineExceeded (time ran out). The distinction matters to
  /// the degradation ladder (explore/degrade.h): a deadline miss is
  /// degradable, a user cancel is final. The bench harness censors on
  /// either code.
  Status Check(std::string_view site) const;

  /// Pre-flight: would a computation needing `bytes` of auxiliary space fit
  /// in the remaining budget? ResourceExhausted if not.
  Status CheckBudgetFor(size_t bytes, std::string_view what) const;

  /// Accounts an actual allocation of `bytes` against the budget;
  /// ResourceExhausted (with nothing charged) if it does not fit. Also a
  /// fault-injection site, so tests can force OOM at a specific allocation.
  Status ChargeMemory(size_t bytes, std::string_view what) const;
  void ReleaseMemory(size_t bytes) const;

 private:
  const CancellationToken* cancel_ = nullptr;
  const Deadline* deadline_ = nullptr;
  MemoryBudget* budget_ = nullptr;
  FaultInjector* injector_ = nullptr;
};

/// Null-safe polling helpers: a null context means unlimited execution.
inline Status ExecCheck(const ExecContext* exec, std::string_view site) {
  return exec == nullptr ? Status::OK() : exec->Check(site);
}
inline Status ExecChargeMemory(const ExecContext* exec, size_t bytes,
                               std::string_view what) {
  return exec == nullptr ? Status::OK() : exec->ChargeMemory(bytes, what);
}

/// Tracks the net bytes charged for a workspace that grows and shrinks over
/// a computation: Update(total) charges or releases the delta against the
/// context's budget, and the destructor returns whatever is still charged.
class ScopedMemoryCharge {
 public:
  ScopedMemoryCharge(const ExecContext* exec, std::string_view what)
      : exec_(exec), what_(what) {}
  ~ScopedMemoryCharge() {
    if (exec_ != nullptr && charged_ > 0) exec_->ReleaseMemory(charged_);
  }

  ScopedMemoryCharge(const ScopedMemoryCharge&) = delete;
  ScopedMemoryCharge& operator=(const ScopedMemoryCharge&) = delete;

  /// Brings the charge to `total_bytes`; ResourceExhausted leaves the
  /// previous charge in place.
  Status Update(size_t total_bytes);
  size_t charged_bytes() const { return charged_; }

 private:
  const ExecContext* exec_;
  std::string what_;
  size_t charged_ = 0;
};

}  // namespace slam
