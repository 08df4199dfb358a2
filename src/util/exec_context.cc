#include "util/exec_context.h"

#include <algorithm>

#include "util/string_util.h"

namespace slam {

bool MemoryBudget::TryCharge(size_t bytes) {
  size_t used = used_.load(std::memory_order_relaxed);
  do {
    if (used > limit_ || bytes > limit_ - used) return false;
  } while (!used_.compare_exchange_weak(used, used + bytes,
                                        std::memory_order_relaxed));
  const size_t now = used + bytes;
  size_t peak = peak_.load(std::memory_order_relaxed);
  while (peak < now && !peak_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  return true;
}

void MemoryBudget::Release(size_t bytes) {
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

void FaultInjector::Arm(std::string_view site, int64_t after_hits,
                        Status status) {
  MutexLock lock(&mutex_);
  traps_[std::string(site)] = Trap{after_hits, std::move(status)};
}

void FaultInjector::Disarm(std::string_view site) {
  MutexLock lock(&mutex_);
  const auto it = traps_.find(site);
  if (it != traps_.end()) traps_.erase(it);
}

Status FaultInjector::Hit(std::string_view site) {
  MutexLock lock(&mutex_);
  ++hits_[std::string(site)];
  ++total_hits_;
  for (const auto key : {site, std::string_view("*")}) {
    const auto it = traps_.find(key);
    if (it == traps_.end()) continue;
    Trap& trap = it->second;
    if (trap.remaining > 0) {
      --trap.remaining;
      continue;
    }
    return trap.status;
  }
  return Status::OK();
}

int64_t FaultInjector::HitCount(std::string_view site) const {
  MutexLock lock(&mutex_);
  if (site == "*") return total_hits_;
  const auto it = hits_.find(site);
  return it == hits_.end() ? 0 : it->second;
}

Status ExecContext::Check(std::string_view site) const {
  if (injector_ != nullptr) {
    SLAM_RETURN_NOT_OK(injector_->Hit(site));
  }
  if (cancel_ != nullptr && cancel_->cancelled()) {
    return Status::Cancelled("computation cancelled at " + std::string(site));
  }
  if (deadline_ != nullptr && deadline_->Expired()) {
    return Status::DeadlineExceeded(
        StringPrintf("deadline of %gs exceeded at %.*s",
                     deadline_->budget_seconds(),
                     static_cast<int>(site.size()), site.data()));
  }
  return Status::OK();
}

Status ExecContext::CheckBudgetFor(size_t bytes, std::string_view what) const {
  if (budget_ == nullptr) return Status::OK();
  if (!budget_->WouldFit(bytes)) {
    return Status::ResourceExhausted(StringPrintf(
        "%.*s needs ~%zu bytes of auxiliary space but only %zu of the "
        "%zu-byte budget remain",
        static_cast<int>(what.size()), what.data(), bytes,
        budget_->limit_bytes() -
            std::min(budget_->limit_bytes(), budget_->used_bytes()),
        budget_->limit_bytes()));
  }
  return Status::OK();
}

Status ExecContext::ChargeMemory(size_t bytes, std::string_view what) const {
  if (injector_ != nullptr) {
    SLAM_RETURN_NOT_OK(injector_->Hit(what));
  }
  if (budget_ == nullptr || bytes == 0) return Status::OK();
  if (!budget_->TryCharge(bytes)) {
    return Status::ResourceExhausted(StringPrintf(
        "allocating %zu bytes for %.*s would exceed the %zu-byte memory "
        "budget (%zu already in use)",
        bytes, static_cast<int>(what.size()), what.data(),
        budget_->limit_bytes(), budget_->used_bytes()));
  }
  return Status::OK();
}

void ExecContext::ReleaseMemory(size_t bytes) const {
  if (budget_ != nullptr && bytes > 0) budget_->Release(bytes);
}

Status ScopedMemoryCharge::Update(size_t total_bytes) {
  if (exec_ == nullptr) return Status::OK();
  if (total_bytes > charged_) {
    SLAM_RETURN_NOT_OK(exec_->ChargeMemory(total_bytes - charged_, what_));
    charged_ = total_bytes;
  } else if (total_bytes < charged_) {
    exec_->ReleaseMemory(charged_ - total_bytes);
    charged_ = total_bytes;
  }
  return Status::OK();
}

}  // namespace slam
