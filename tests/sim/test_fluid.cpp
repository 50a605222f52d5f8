/// \file test_fluid.cpp
/// \brief Unit tests for the fluid transfer model (sim/fluid).

#include "sim/fluid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace cloudwf::sim {
namespace {

/// The fluid network as a linear scan over the active flows in start order:
/// the specification FluidNetwork's heap must match bit for bit.
class ReferenceFluid {
 public:
  ReferenceFluid(BytesPerSec cap, BytesPerSec aggregate) : cap_(cap), aggregate_(aggregate) {}

  FlowId start_flow(Bytes bytes, Seconds now) {
    progress_to(now);
    flows_.push_back(Flow{bytes, bytes});
    active_.push_back(static_cast<FlowId>(flows_.size() - 1));
    peak_active_ = std::max(peak_active_, active_.size());
    return active_.back();
  }

  void reset() { *this = ReferenceFluid(cap_, aggregate_); }

  void advance(Seconds now, std::vector<FlowId>& completed) {
    progress_to(now);
    completed.clear();
    const Bytes tolerance = current_rate() * completion_tolerance;
    std::erase_if(active_, [&](FlowId id) {
      if (flows_[id].remaining > tolerance) return false;
      completed_bytes_ += flows_[id].total;
      completed.push_back(id);
      return true;
    });
  }

  [[nodiscard]] Seconds next_completion() const {
    if (active_.empty()) return std::numeric_limits<Seconds>::infinity();
    Bytes smallest = std::numeric_limits<Bytes>::infinity();
    for (FlowId id : active_) smallest = std::min(smallest, flows_[id].remaining);
    return last_update_ + smallest / current_rate();
  }

  [[nodiscard]] std::size_t active_count() const { return active_.size(); }
  [[nodiscard]] BytesPerSec current_rate() const {
    if (aggregate_ <= 0 || active_.empty()) return cap_;
    return std::min(cap_, aggregate_ / static_cast<double>(active_.size()));
  }
  [[nodiscard]] Bytes completed_bytes() const { return completed_bytes_; }
  [[nodiscard]] std::size_t peak_active() const { return peak_active_; }

 private:
  void progress_to(Seconds now) {
    const Seconds dt = std::max(0.0, now - last_update_);
    if (dt > 0 && !active_.empty()) {
      const Bytes step = current_rate() * dt;
      for (FlowId id : active_) flows_[id].remaining = std::max(0.0, flows_[id].remaining - step);
    }
    last_update_ = std::max(last_update_, now);
  }

  struct Flow {
    Bytes total;
    Bytes remaining;
  };

  BytesPerSec cap_;
  BytesPerSec aggregate_;
  std::vector<Flow> flows_;
  std::vector<FlowId> active_;  // in start order
  Seconds last_update_ = 0;
  Bytes completed_bytes_ = 0;
  std::size_t peak_active_ = 0;
};

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

TEST(Fluid, RemaindersEqualOnlyAfterARoundedStepCompleteTogetherInStartOrder) {
  // b = 1.5·2^40 and a = b + ulp(b) = b + 2^-12: apart, they complete 2^-12 s
  // apart, far beyond the 1 ns tolerance.  A step of half an ulp is a tie
  // in both subtractions, and round-half-to-even sends both to b.  The flow
  // started first has the larger remainder, so it sits below the other one
  // in the heap until the step makes them equal.
  const Bytes b = 1.5 * std::ldexp(1.0, 40);
  const Bytes a = std::nextafter(b, 2 * b);
  const Seconds half_ulp = (a - b) / 2;
  ASSERT_EQ(a - half_ulp, b - half_ulp);

  FluidNetwork net(1.0, 0.0);
  ReferenceFluid reference(1.0, 0.0);
  const FlowId first = net.start_flow(a, 0.0);
  const FlowId second = net.start_flow(b, 0.0);
  (void)reference.start_flow(a, 0.0);
  (void)reference.start_flow(b, 0.0);
  EXPECT_TRUE(advance(net, half_ulp).empty());
  std::vector<FlowId> expected;
  reference.advance(half_ulp, expected);
  EXPECT_TRUE(expected.empty());

  const Seconds end = net.next_completion();
  EXPECT_EQ(end, reference.next_completion());
  EXPECT_EQ(advance(net, end), (std::vector<FlowId>{first, second}));
  reference.advance(end, expected);
  EXPECT_EQ(expected, (std::vector<FlowId>{first, second}));
  EXPECT_EQ(net.completed_bytes(), reference.completed_bytes());
  EXPECT_EQ(net.active_count(), 0u);
}

TEST(Fluid, AdvancingPastAPendingCompletionUnderContentionTrips) {
  FluidNetwork net(100.0, 100.0);
  (void)net.start_flow(1000.0, 0.0);
  (void)net.start_flow(500.0, 0.0);
  // Both at rate 50: the 500-byte flow completes at t=10.
  ASSERT_EQ(net.next_completion(), 10.0);
  EXPECT_THROW((void)advance(net, 11.0), InternalError);
  EXPECT_THROW((void)net.start_flow(1.0, 11.0), InternalError);
  // Without an aggregate the rate does not depend on the flow count, so
  // collecting a completion late is allowed.
  FluidNetwork free(100.0, 0.0);
  (void)free.start_flow(2000.0, 0.0);
  (void)free.start_flow(500.0, 0.0);
  EXPECT_EQ(advance(free, 11.0).size(), 1u);
}

/// Drives FluidNetwork and ReferenceFluid with the same seeded sequence of
/// starts, advances and resets and requires every observable to agree
/// exactly.  Sizes come from a small set, so ties and zero-byte flows are
/// common; advances go to the next completion or to some earlier time.
void expect_matches_reference(BytesPerSec bw, BytesPerSec aggregate, std::uint64_t seed) {
  static constexpr std::array<Bytes, 7> sizes{0.0, 1.0, 1.0 / 3, 2.5, 100.0, 100.0, 1e6 / 7};
  Rng rng(seed);
  FluidNetwork net(bw, aggregate);
  ReferenceFluid reference(bw, aggregate);
  std::vector<FlowId> done;
  std::vector<FlowId> expected;
  Seconds now = 0;
  for (int op = 0; op < 400; ++op) {
    const std::uint64_t kind = rng.below(15);
    const Seconds next = reference.next_completion();
    const Seconds horizon = std::isinf(next) ? now + 10 : next;
    if (kind < 7) {
      // Start now or at a later time not past the next completion.
      if (rng.below(2) == 0) now += rng.uniform() * (horizon - now);
      const Bytes bytes = sizes[rng.below(sizes.size())];
      ASSERT_EQ(net.start_flow(bytes, now), reference.start_flow(bytes, now)) << "op " << op;
    } else if (kind < 14) {
      if (kind < 11) now = horizon; else now += rng.uniform() * (horizon - now);
      net.advance(now, done);
      reference.advance(now, expected);
      ASSERT_EQ(done, expected) << "op " << op << " at t=" << now;
    } else {
      net.reset();
      reference.reset();
      now = 0;
    }
    ASSERT_EQ(net.next_completion(), reference.next_completion()) << "op " << op;
    ASSERT_EQ(net.completed_bytes(), reference.completed_bytes()) << "op " << op;
    ASSERT_EQ(net.active_count(), reference.active_count()) << "op " << op;
    ASSERT_EQ(net.current_rate(), reference.current_rate()) << "op " << op;
    ASSERT_EQ(net.peak_active(), reference.peak_active()) << "op " << op;
  }
}

TEST(Fluid, HeapMatchesLinearScanBitForBit) {
  const BytesPerSec bw = 7.0;
  for (const BytesPerSec aggregate : {0.0, bw, 2 * bw, 4 * bw}) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      SCOPED_TRACE(testing::Message() << "aggregate " << aggregate << ", seed " << seed);
      expect_matches_reference(bw, aggregate, seed);
      if (HasFatalFailure()) return;
    }
  }
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
