/// \file test_fluid.cpp
/// \brief Unit tests for the fluid transfer model (sim/fluid).

#include "sim/fluid.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace cloudwf::sim {
namespace {

/// The flows that complete when \p net advances to \p now.
std::vector<FlowId> advance(FluidNetwork& net, Seconds now) {
  std::vector<FlowId> completed;
  net.advance(now, completed);
  return completed;
}

TEST(Fluid, SingleFlowRunsAtCap) {
  FluidNetwork net(100.0, 0.0);
  (void)net.start_flow(1000.0, 0.0);
  EXPECT_DOUBLE_EQ(net.next_completion(), 10.0);
  const auto done = advance(net, 10.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(net.active_count(), 0u);
}

TEST(Fluid, IdleNetworkHasInfiniteNextCompletion) {
  FluidNetwork net(100.0, 0.0);
  EXPECT_TRUE(std::isinf(net.next_completion()));
}

TEST(Fluid, UnlimitedAggregateMeansFullRateEach) {
  FluidNetwork net(100.0, 0.0);
  (void)net.start_flow(1000.0, 0.0);
  (void)net.start_flow(1000.0, 0.0);
  EXPECT_DOUBLE_EQ(net.current_rate(), 100.0);
  EXPECT_DOUBLE_EQ(net.next_completion(), 10.0);
  EXPECT_EQ(advance(net, 10.0).size(), 2u);
}

TEST(Fluid, SharedCapacitySplitsEvenly) {
  FluidNetwork net(100.0, 100.0);  // aggregate == one link
  (void)net.start_flow(1000.0, 0.0);
  (void)net.start_flow(1000.0, 0.0);
  EXPECT_DOUBLE_EQ(net.current_rate(), 50.0);
  EXPECT_DOUBLE_EQ(net.next_completion(), 20.0);
}

TEST(Fluid, RateRecoversWhenFlowCompletes) {
  FluidNetwork net(100.0, 100.0);
  (void)net.start_flow(500.0, 0.0);
  (void)net.start_flow(1000.0, 0.0);
  // Both at rate 50: first done at t=10 with 500 remaining on the second.
  EXPECT_DOUBLE_EQ(net.next_completion(), 10.0);
  EXPECT_EQ(advance(net, 10.0).size(), 1u);
  // Second now alone at rate 100: 500 bytes -> 5 more seconds.
  EXPECT_DOUBLE_EQ(net.current_rate(), 100.0);
  EXPECT_NEAR(net.next_completion(), 15.0, 1e-9);
}

TEST(Fluid, AggregateAboveDemandDoesNotThrottle) {
  FluidNetwork net(100.0, 1000.0);
  for (int i = 0; i < 5; ++i) (void)net.start_flow(100.0, 0.0);
  EXPECT_DOUBLE_EQ(net.current_rate(), 100.0);  // 5 * 100 <= 1000
}

TEST(Fluid, LateStartingFlowSharesRemainder) {
  FluidNetwork net(100.0, 100.0);
  (void)net.start_flow(1000.0, 0.0);
  // Alone for 5 s: 500 bytes done.
  (void)net.start_flow(1000.0, 5.0);
  // Both now at 50: first has 500 left -> done at 5 + 10 = 15.
  EXPECT_DOUBLE_EQ(net.next_completion(), 15.0);
  EXPECT_EQ(advance(net, 15.0).size(), 1u);
  // Second has 1000 - 500 = 500 left, alone at 100 -> done at 20.
  EXPECT_NEAR(net.next_completion(), 20.0, 1e-9);
}

TEST(Fluid, ZeroByteFlowCompletesImmediately) {
  FluidNetwork net(100.0, 0.0);
  const FlowId id = net.start_flow(0.0, 3.0);
  const auto done = advance(net, 3.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], id);
}

TEST(Fluid, CompletionsReportedInStartOrder) {
  FluidNetwork net(100.0, 0.0);
  const FlowId a = net.start_flow(100.0, 0.0);
  const FlowId b = net.start_flow(100.0, 0.0);
  const auto done = advance(net, 1.0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], a);
  EXPECT_EQ(done[1], b);
}

TEST(Fluid, TracksCompletedBytesAndPeak) {
  FluidNetwork net(100.0, 0.0);
  (void)net.start_flow(100.0, 0.0);
  (void)net.start_flow(200.0, 0.0);
  (void)advance(net, 2.0);
  EXPECT_DOUBLE_EQ(net.completed_bytes(), 300.0);
  EXPECT_EQ(net.peak_active(), 2u);
}

TEST(Fluid, TimeMovingBackwardsRejected) {
  FluidNetwork net(100.0, 0.0);
  (void)net.start_flow(100.0, 5.0);
  EXPECT_THROW((void)advance(net, 4.0), InvalidArgument);
}

TEST(Fluid, AdvanceReplacesTheCompletedList) {
  FluidNetwork net(100.0, 0.0);
  const FlowId a = net.start_flow(100.0, 0.0);
  const FlowId b = net.start_flow(300.0, 0.0);
  std::vector<FlowId> completed{invalid_flow, invalid_flow, invalid_flow};
  net.advance(1.0, completed);
  EXPECT_EQ(completed, std::vector<FlowId>{a});
  net.advance(2.0, completed);
  EXPECT_TRUE(completed.empty());
  net.advance(3.0, completed);
  EXPECT_EQ(completed, std::vector<FlowId>{b});
}

TEST(Fluid, ResetRestoresTheFreshState) {
  FluidNetwork used(100.0, 100.0);
  (void)used.start_flow(1000.0, 0.0);
  (void)used.start_flow(500.0, 2.0);
  (void)advance(used, used.next_completion());
  used.reset();
  EXPECT_EQ(used.active_count(), 0u);
  EXPECT_TRUE(std::isinf(used.next_completion()));
  EXPECT_DOUBLE_EQ(used.completed_bytes(), 0.0);
  EXPECT_EQ(used.peak_active(), 0u);

  // The clock restarts at zero: a flow started at t=0 behaves exactly as on
  // a network that never ran.
  FluidNetwork fresh(100.0, 100.0);
  EXPECT_EQ(used.start_flow(400.0, 0.0), fresh.start_flow(400.0, 0.0));
  EXPECT_EQ(used.next_completion(), fresh.next_completion());
  EXPECT_EQ(advance(used, 4.0), advance(fresh, 4.0));
}

TEST(Fluid, InvalidConstructionRejected) {
  EXPECT_THROW(FluidNetwork(0.0, 0.0), InvalidArgument);
  EXPECT_THROW(FluidNetwork(1.0, -1.0), InvalidArgument);
}

TEST(Fluid, NegativeFlowSizeRejected) {
  FluidNetwork net(100.0, 0.0);
  EXPECT_THROW((void)net.start_flow(-1.0, 0.0), InvalidArgument);
}

}  // namespace
}  // namespace cloudwf::sim
