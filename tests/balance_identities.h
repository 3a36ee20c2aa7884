// Per-scheduler counter balance identities, shared by the tests that audit
// a pool's books after its runs.
//
// Every pushed job is consumed exactly once, and every original job runs
// exactly once (re-pushes from Lace unexposure are the only double-counted
// pushes). WS-mult consumes through claim winners: its "steals" include
// the claim arbitrations a thief lost (DESIGN.md §9), so its identities
// run through useful_steals and claims_lost instead.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "sched/policies.h"
#include "stats/counters.h"

namespace lcws {

inline void expect_balanced(const stats::op_counters& t, sched_kind kind,
                            const std::string& context) {
  if (kind == sched_kind::wsmult) {
    EXPECT_EQ(t.steals.get(), t.useful_steals.get() + t.claims_lost.get())
        << context;
    EXPECT_EQ(t.pushes.get(), t.pops_private.get() + t.useful_steals.get())
        << context;
  } else {
    EXPECT_EQ(t.pushes.get(),
              t.pops_private.get() + t.pops_public.get() + t.steals.get())
        << context;
  }
  EXPECT_EQ(t.tasks_executed.get(), t.pushes.get() - t.unexposures.get())
      << context;
}

}  // namespace lcws
