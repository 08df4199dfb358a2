#include "util/exec_context.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace slam {
namespace {

TEST(CancellationTokenTest, StickyCancel) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTokenTest, ChildSeesParentCancellation) {
  CancellationToken parent;
  CancellationToken child(&parent);
  EXPECT_FALSE(child.cancelled());
  parent.Cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_TRUE(parent.cancelled());
}

TEST(CancellationTokenTest, ChildCancelDoesNotPropagateUp) {
  CancellationToken parent;
  CancellationToken child(&parent);
  child.Cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(parent.cancelled());
}

TEST(MemoryBudgetTest, ChargeReleaseAndPeak) {
  MemoryBudget budget(1000);
  EXPECT_EQ(budget.limit_bytes(), 1000u);
  EXPECT_TRUE(budget.TryCharge(600));
  EXPECT_EQ(budget.used_bytes(), 600u);
  EXPECT_FALSE(budget.TryCharge(500));  // would exceed
  EXPECT_EQ(budget.used_bytes(), 600u);  // failed charge left no residue
  EXPECT_TRUE(budget.TryCharge(400));
  EXPECT_EQ(budget.used_bytes(), 1000u);
  budget.Release(700);
  EXPECT_EQ(budget.used_bytes(), 300u);
  EXPECT_EQ(budget.peak_bytes(), 1000u);  // peak survives the release
  EXPECT_TRUE(budget.WouldFit(700));
  EXPECT_FALSE(budget.WouldFit(701));
}

TEST(MemoryBudgetTest, ConcurrentChargesNeverExceedLimit) {
  MemoryBudget budget(64 * 100);  // room for exactly 100 charges of 64
  std::atomic<int> granted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&budget, &granted] {
      for (int i = 0; i < 50; ++i) {
        if (budget.TryCharge(64)) granted.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(granted.load(), 100);
  EXPECT_EQ(budget.used_bytes(), 64u * 100);
  EXPECT_LE(budget.peak_bytes(), budget.limit_bytes());
}

TEST(FaultInjectorTest, TripsAfterArmedHitsAndIsSticky) {
  FaultInjector injector;
  injector.Arm("site/a", 2, Status::IoError("injected"));
  EXPECT_TRUE(injector.Hit("site/a").ok());
  EXPECT_TRUE(injector.Hit("site/a").ok());
  const Status tripped = injector.Hit("site/a");
  EXPECT_EQ(tripped.code(), StatusCode::kIoError);
  // Sticky: stays tripped on further hits.
  EXPECT_EQ(injector.Hit("site/a").code(), StatusCode::kIoError);
  EXPECT_EQ(injector.HitCount("site/a"), 4);
}

TEST(FaultInjectorTest, WildcardTrapsEverySite) {
  FaultInjector injector;
  injector.Arm("*", 1, Status::Cancelled("injected"));
  EXPECT_TRUE(injector.Hit("one").ok());
  EXPECT_EQ(injector.Hit("two").code(), StatusCode::kCancelled);
  EXPECT_EQ(injector.HitCount("*"), 2);  // global total
  EXPECT_EQ(injector.HitCount("one"), 1);
  EXPECT_EQ(injector.HitCount("never-hit"), 0);
}

TEST(FaultInjectorTest, DisarmClearsTrap) {
  FaultInjector injector;
  injector.Arm("site", 0, Status::Internal("boom"));
  EXPECT_FALSE(injector.Hit("site").ok());
  injector.Disarm("site");
  EXPECT_TRUE(injector.Hit("site").ok());
}

TEST(ExecContextTest, NullMembersMeanUnlimited) {
  ExecContext exec;
  EXPECT_TRUE(exec.Check("anywhere").ok());
  EXPECT_TRUE(exec.CheckBudgetFor(1u << 30, "big").ok());
  EXPECT_TRUE(exec.ChargeMemory(1u << 30, "big").ok());
  EXPECT_TRUE(ExecCheck(nullptr, "anywhere").ok());
  EXPECT_TRUE(ExecChargeMemory(nullptr, 123, "x").ok());
}

TEST(ExecContextTest, CancelledTokenSurfacesAsCancelled) {
  CancellationToken token;
  ExecContext exec;
  exec.set_cancellation(&token);
  EXPECT_TRUE(exec.Check("row").ok());
  token.Cancel();
  const Status st = exec.Check("row");
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.message().find("row"), std::string::npos);
}

TEST(ExecContextTest, ExpiredDeadlineSurfacesAsDeadlineExceeded) {
  const Deadline expired(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ExecContext exec;
  exec.set_deadline(&expired);
  EXPECT_EQ(exec.Check("row").code(), StatusCode::kDeadlineExceeded);
}

TEST(ExecContextTest, NonPositiveDeadlineIsExpiredOnArrival) {
  // "0 seconds" and negative budgets mean an already-passed deadline, not
  // "no deadline": the very first Check must fail before any work runs.
  for (const double budget : {0.0, -0.5}) {
    const Deadline expired(budget);
    ExecContext exec;
    exec.set_deadline(&expired);
    EXPECT_EQ(exec.Check("entry").code(), StatusCode::kDeadlineExceeded)
        << "budget=" << budget;
  }
}

TEST(ExecContextTest, InjectorBeatsCancellationInCheckOrder) {
  CancellationToken token;
  token.Cancel();
  FaultInjector injector;
  injector.Arm("site", 0, Status::IoError("injected first"));
  ExecContext exec;
  exec.set_cancellation(&token);
  exec.set_fault_injector(&injector);
  EXPECT_EQ(exec.Check("site").code(), StatusCode::kIoError);
}

TEST(ExecContextTest, BudgetPreflightAndCharges) {
  MemoryBudget budget(1024);
  ExecContext exec;
  exec.set_memory_budget(&budget);
  EXPECT_TRUE(exec.CheckBudgetFor(1024, "fits").ok());
  const Status too_big = exec.CheckBudgetFor(1025, "kd-tree");
  EXPECT_EQ(too_big.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(too_big.message().find("kd-tree"), std::string::npos);

  EXPECT_TRUE(exec.ChargeMemory(1000, "workspace").ok());
  EXPECT_EQ(exec.ChargeMemory(100, "workspace").code(),
            StatusCode::kResourceExhausted);
  exec.ReleaseMemory(1000);
  EXPECT_EQ(budget.used_bytes(), 0u);
}

TEST(ExecContextTest, ChargeMemoryIsAnInjectionSite) {
  FaultInjector injector;
  injector.Arm("workspace", 0, Status::ResourceExhausted("injected oom"));
  ExecContext exec;  // no budget: only the injector can fail the charge
  exec.set_fault_injector(&injector);
  EXPECT_EQ(exec.ChargeMemory(16, "workspace").code(),
            StatusCode::kResourceExhausted);
}

TEST(ScopedMemoryChargeTest, UpdatesChargeDeltaAndReleasesOnDestruction) {
  MemoryBudget budget(1000);
  ExecContext exec;
  exec.set_memory_budget(&budget);
  {
    ScopedMemoryCharge charge(&exec, "workspace");
    ASSERT_TRUE(charge.Update(400).ok());
    EXPECT_EQ(budget.used_bytes(), 400u);
    ASSERT_TRUE(charge.Update(900).ok());  // grows by 500
    EXPECT_EQ(budget.used_bytes(), 900u);
    ASSERT_TRUE(charge.Update(200).ok());  // shrinks by 700
    EXPECT_EQ(budget.used_bytes(), 200u);
    // A failing grow leaves the existing charge in place.
    EXPECT_EQ(charge.Update(1200).code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(charge.charged_bytes(), 200u);
    EXPECT_EQ(budget.used_bytes(), 200u);
  }
  EXPECT_EQ(budget.used_bytes(), 0u);  // destructor released the rest
  EXPECT_EQ(budget.peak_bytes(), 900u);
}

TEST(ScopedMemoryChargeTest, NullContextIsNoop) {
  ScopedMemoryCharge charge(nullptr, "x");
  EXPECT_TRUE(charge.Update(1u << 30).ok());
  EXPECT_EQ(charge.charged_bytes(), 0u);
}

}  // namespace
}  // namespace slam
