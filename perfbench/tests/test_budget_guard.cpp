// The step-budget guard: a grid point whose budget shrinks when n doubles
// (a uint64-overflowed 64 n^5 budget) is rejected before anything is timed.
#include "workloads.hpp"

#include "campaign/registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace perfbench {
namespace {

netcons::campaign::CampaignSpec grid(const std::string& protocol, int n) {
  netcons::campaign::CampaignSpec spec;
  spec.units.push_back(
      netcons::campaign::Unit::protocol(protocol, *netcons::campaign::make_protocol(protocol)));
  spec.ns = {n};
  return spec;
}

TEST(StepBudgetGuard, AcceptsTheWorkloadSizes) {
  EXPECT_NO_THROW(check_step_budgets(grid("simple-global-line", 1024)));
  EXPECT_NO_THROW(check_step_budgets(grid("global-star", 4096)));
  EXPECT_NO_THROW(check_step_budgets(grid("cycle-cover", 4096)));
  EXPECT_NO_THROW(check_step_budgets(grid("spanning-net", 4096)));
}

TEST(StepBudgetGuard, RejectsOverflowedBudgets) {
  // 64 n^5 wraps above n ~ 3100 (the known defect the guard fences off).
  for (const char* protocol : {"simple-global-line", "global-ring"}) {
    try {
      check_step_budgets(grid(protocol, 4096));
      ADD_FAILURE() << protocol << " at n = 4096 was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(protocol), std::string::npos) << error.what();
    }
  }
}

}  // namespace
}  // namespace perfbench
