// Cooperative cancellation and deadlines (DESIGN.md §11): run_for,
// cancel_run, LCWS_RUN_TIMEOUT_MS and the watchdog's cancel rung, plus the
// guarantee that a slow stolen branch always runs to completion.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>

#include "sched/dispatch.h"
#include "sched/run_errors.h"
#include "sched/scheduler.h"

namespace lcws {
namespace {

template <typename Sched>
std::uint64_t fib(Sched& sched, unsigned n) {
  if (n < 2) return n;
  if (n < 10) {
    std::uint64_t a = 0, b = 1;
    for (unsigned i = 1; i < n; ++i) {
      const std::uint64_t c = a + b;
      a = b;
      b = c;
    }
    return b;
  }
  std::uint64_t left = 0, right = 0;
  sched.pardo([&] { left = fib(sched, n - 1); },
              [&] { right = fib(sched, n - 2); });
  return left + right;
}

// setenv/unsetenv scope guard; the scheduler reads LCWS_* once at
// construction, so guards must outlive the pool under test.
class scoped_env {
 public:
  scoped_env(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~scoped_env() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

class Cancel : public ::testing::TestWithParam<sched_kind> {};

// Busy-waits for `ms` milliseconds without reaching a scheduling point.
int spin_for(int ms, int result) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < until) {
  }
  return result;
}

// A branch that runs for a long time without a scheduling point is slow,
// not dead: without a deadline the pool waits for it however long it
// takes, and run() returns both branches' results. Completing the join
// any earlier would let the still-running branch write into an unwound
// frame.
TEST_P(Cancel, SlowStolenBranchRunsToCompletion) {
  with_scheduler(GetParam(), 2, [&](auto& sched) {
    std::pair<int, int> got{0, 0};
    EXPECT_NO_THROW(sched.run([&] {
      sched.pardo([&] { got.first = spin_for(50, 1); },
                  [&] { got.second = spin_for(300, 2); });
    })) << to_string(GetParam());
    EXPECT_EQ(got, std::make_pair(1, 2)) << to_string(GetParam());
    EXPECT_FALSE(sched.run_cancel_requested()) << to_string(GetParam());
  });
}

// run_for: a computation that would run forever is collapsed at the
// deadline — every pardo from then on refuses the fork — and the error
// surfaces at the run_for call. The pool is immediately reusable.
TEST_P(Cancel, RunForDeadlineCancelsRunawayAndPoolStaysUsable) {
  const sched_kind kind = GetParam();
  with_scheduler(kind, 4, [&](auto& sched) {
    sched.reset_counters();
    EXPECT_THROW(sched.run_for(std::chrono::milliseconds(50),
                               [&] {
                                 // Distinct per-branch locals: the right
                                 // branch may run on a thief concurrently
                                 // with the left on this thread.
                                 for (;;) {
                                   std::uint64_t l = 0, r = 0;
                                   sched.pardo([&] { l = fib(sched, 12); },
                                               [&] { r = fib(sched, 12); });
                                   (void)(l + r);
                                 }
                               }),
                 run_cancelled_error)
        << to_string(kind);
    EXPECT_TRUE(sched.run_cancel_requested()) << to_string(kind);
    EXPECT_EQ(sched.profile().totals.runs_cancelled.get(), 1u)
        << to_string(kind);
    // The token rearms on the next run: same pool, clean completion.
    EXPECT_EQ(sched.run([&] { return fib(sched, 16); }), 987u)
        << to_string(kind);
    EXPECT_FALSE(sched.run_cancel_requested()) << to_string(kind);
  });
}

// LCWS_RUN_TIMEOUT_MS: every plain run() carries the deadline.
TEST(CancelWs, EnvRunTimeoutAppliesToPlainRun) {
  scoped_env timeout("LCWS_RUN_TIMEOUT_MS", "50");
  ws_scheduler sched(4);
  EXPECT_THROW(sched.run([&] {
    for (;;) {
      std::uint64_t l = 0, r = 0;
      sched.pardo([&] { l = fib(sched, 12); }, [&] { r = fib(sched, 12); });
      (void)(l + r);
    }
  }),
               run_cancelled_error);
  // A short run finishes before its deadline and is unaffected.
  EXPECT_EQ(sched.run([&] { return fib(sched, 16); }), 987u);
}

// cancel_run edge semantics: exactly one cancelling edge per run; calls
// between runs are no-ops; a pardo after the edge refuses the fork.
TEST(CancelWs, CancelRunEdgeIsOncePerRun) {
  ws_scheduler sched(4);
  sched.reset_counters();
  EXPECT_FALSE(sched.cancel_run());  // no active run
  EXPECT_THROW(sched.run([&] {
    EXPECT_FALSE(sched.run_cancel_requested());
    EXPECT_TRUE(sched.cancel_run());    // the edge
    EXPECT_FALSE(sched.cancel_run());   // idempotent within the run
    sched.pardo([] {}, [] {});          // cancellation point -> throws
    ADD_FAILURE() << "pardo after cancel_run must refuse the fork";
  }),
               run_cancelled_error);
  EXPECT_FALSE(sched.cancel_run());  // run is over
  EXPECT_EQ(sched.profile().totals.runs_cancelled.get(), 1u);
  EXPECT_EQ(sched.run([&] { return fib(sched, 16); }), 987u);
}

// Watchdog escalation ladder, first rung (§11): a frozen progress token
// cancels the run cooperatively instead of aborting. User code that polls
// run_cancel_requested() gets to exit cleanly — the run *returns*.
TEST(CancelWs, WatchdogFirstRungCancelsInsteadOfAborting) {
  scoped_env dog("LCWS_WATCHDOG_MS", "200");
  ws_scheduler sched(4);
  sched.reset_counters();
  const std::uint64_t r = sched.run([&]() -> std::uint64_t {
    // Pure user-code spin: no scheduling, so the progress token freezes
    // and the watchdog's first frozen window issues the cancel.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!sched.run_cancel_requested() &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    return 42;
  });
  EXPECT_EQ(r, 42u);
  EXPECT_EQ(sched.profile().totals.runs_cancelled.get(), 1u);
  // The cancel rung sufficed: had it escalated to the abort rung this
  // whole process would be gone.
  EXPECT_EQ(sched.run([&] { return fib(sched, 16); }), 987u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, Cancel, ::testing::ValuesIn(all_sched_kinds),
    [](const ::testing::TestParamInfo<sched_kind>& info) {
      return std::string(to_string(info.param));
    });

}  // namespace
}  // namespace lcws
