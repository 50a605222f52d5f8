/// \file test_eft.cpp
/// \brief Unit tests for EFT estimation, Algorithm 2 (sched/eft, best_host).
///
/// Toy platform: boot 10, bw 1e6; slow (speed 1, $1/s), fast (speed 2, $2/s).

#include "sched/eft.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "sched/best_host.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::sched {
namespace {

TEST(Eft, CandidatesAreUsedVmsPlusOneFreshPerCategory) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EftState state(wf, platform);
  sim::Schedule schedule(wf.task_count());

  auto hosts = state.candidates();
  ASSERT_EQ(hosts.size(), 2u);  // no used VMs yet
  EXPECT_TRUE(hosts[0].fresh);
  EXPECT_TRUE(hosts[1].fresh);

  const dag::TaskId a = wf.find_task("A");
  const PlacementEstimate est = state.estimate(a, hosts[0]);
  state.commit(a, hosts[0], est, schedule);

  hosts = state.candidates();
  ASSERT_EQ(hosts.size(), 3u);  // 1 used + 2 fresh
  EXPECT_FALSE(hosts[0].fresh);
}

TEST(Eft, EstimateOnFreshSlowHostMatchesEquation7) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EftState state(wf, platform);
  sim::Schedule schedule(wf.task_count());

  const dag::TaskId a = wf.find_task("A");
  const HostCandidate fresh_slow{sim::invalid_vm, 0, true};
  const PlacementEstimate est = state.estimate(a, fresh_slow);
  // t_Exec = boot 10 + 100/1 compute + 4e6/1e6 external input.
  EXPECT_DOUBLE_EQ(est.begin, 0.0);
  EXPECT_DOUBLE_EQ(est.exec, 114.0);
  EXPECT_DOUBLE_EQ(est.eft, 114.0);
  // Upload of A's outputs: (1e6 + 2e6)/1e6 = 3 s; billed time excludes the
  // uncharged boot: (114 - 10 + 3) * $1.
  EXPECT_DOUBLE_EQ(est.upload, 3.0);
  EXPECT_DOUBLE_EQ(est.cost, 107.0);
}

TEST(Eft, FastHostHalvesComputeDoublesRate) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EftState state(wf, platform);
  sim::Schedule schedule(wf.task_count());

  const dag::TaskId a = wf.find_task("A");
  const PlacementEstimate est = state.estimate(a, {sim::invalid_vm, 1, true});
  EXPECT_DOUBLE_EQ(est.exec, 10.0 + 50.0 + 4.0);
  EXPECT_DOUBLE_EQ(est.cost, (50.0 + 4.0 + 3.0) * 2.0);
}

TEST(Eft, ReuseSkipsBootAndLocalData) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EftState state(wf, platform);
  sim::Schedule schedule(wf.task_count());

  const dag::TaskId a = wf.find_task("A");
  const dag::TaskId b = wf.find_task("B");
  const HostCandidate fresh_slow{sim::invalid_vm, 0, true};
  const sim::VmId vm = state.commit(a, fresh_slow, state.estimate(a, fresh_slow),
                                    schedule);

  const PlacementEstimate reuse = state.estimate(b, {vm, 0, false});
  // Same host: no boot, A->B data local; begin at A's finish (avail).
  EXPECT_DOUBLE_EQ(reuse.begin, 114.0);
  EXPECT_DOUBLE_EQ(reuse.exec, 200.0);
  EXPECT_DOUBLE_EQ(reuse.eft, 314.0);

  const PlacementEstimate fresh = state.estimate(b, fresh_slow);
  // Fresh host: waits for A->B at DC (114 + 1), then boot + download + compute.
  EXPECT_DOUBLE_EQ(fresh.begin, 115.0);
  EXPECT_DOUBLE_EQ(fresh.exec, 10.0 + 200.0 + 1.0);
  EXPECT_DOUBLE_EQ(fresh.eft, 326.0);
}

TEST(Eft, CommitUpdatesAvailabilityAndAtDc) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EftState state(wf, platform);
  sim::Schedule schedule(wf.task_count());

  const dag::TaskId a = wf.find_task("A");
  const HostCandidate fresh{sim::invalid_vm, 0, true};
  const sim::VmId vm = state.commit(a, fresh, state.estimate(a, fresh), schedule);
  EXPECT_DOUBLE_EQ(state.finish_time(a), 114.0);
  EXPECT_DOUBLE_EQ(state.vm_available(vm), 114.0);
  // Edge A->C (2e6): at DC at 114 + 2.
  const dag::EdgeId ac = wf.in_edges(wf.find_task("C"))[0];
  EXPECT_DOUBLE_EQ(state.at_dc_time(ac), 116.0);
  EXPECT_DOUBLE_EQ(state.planned_makespan(), 114.0);
}

TEST(Eft, UncommittedQueriesThrow) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  const EftState state(wf, platform);
  EXPECT_THROW((void)state.finish_time(0), InvalidArgument);
  EXPECT_THROW((void)state.at_dc_time(0), InvalidArgument);
  EXPECT_THROW((void)state.vm_available(0), InvalidArgument);
}

TEST(Eft, BetterPlacementOrdering) {
  const HostCandidate used{0, 0, false};
  const HostCandidate fresh{sim::invalid_vm, 0, true};
  PlacementEstimate fast{};
  fast.eft = 10;
  fast.cost = 5;
  PlacementEstimate slow{};
  slow.eft = 20;
  slow.cost = 1;
  EXPECT_TRUE(better_placement(fast, used, slow, used));    // EFT first
  PlacementEstimate cheap = fast;
  cheap.cost = 2;
  EXPECT_TRUE(better_placement(cheap, used, fast, used));   // then cost
  EXPECT_TRUE(better_placement(fast, used, fast, fresh));   // then reuse
}

TEST(BestHost, PicksSmallestEftWithoutCap) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EftState state(wf, platform);
  sim::Schedule schedule(wf.task_count());
  const BestHost best = get_best_host(state, wf.find_task("A"), std::nullopt);
  EXPECT_TRUE(best.affordable);
  EXPECT_TRUE(best.host.fresh);
  EXPECT_EQ(best.host.category, 1u);  // fast: EFT 64 < 114
}

TEST(BestHost, BudgetCapForcesSlowerHost) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EftState state(wf, platform);
  sim::Schedule schedule(wf.task_count());
  // Fast costs 114, slow costs 107: a cap at 110 excludes the fast host.
  const BestHost best = get_best_host(state, wf.find_task("A"), 110.0);
  EXPECT_TRUE(best.affordable);
  EXPECT_EQ(best.host.category, 0u);
}

TEST(BestHost, NoAffordableFallsBackToCheapest) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EftState state(wf, platform);
  sim::Schedule schedule(wf.task_count());
  const BestHost best = get_best_host(state, wf.find_task("A"), 1.0);
  EXPECT_FALSE(best.affordable);
  EXPECT_EQ(best.host.category, 0u);  // cheapest
}

// ---------------------------------------------------------------------------
// BestHostTable against a plain BestHostScan over the same row.

/// Randomized mirror of MIN-MIN's ready table.  Values come from small sets
/// so ties are common: equal EFT and cost on different used hosts, on a
/// used and a fresh host, and costs exactly at a cap + money_epsilon.
class TableMirror {
 public:
  static constexpr std::size_t kFresh = 2;

  explicit TableMirror(std::uint64_t seed) : rng_(seed) {
    for (const Dollars cap : caps_) costs_.push_back(cap + money_epsilon);
  }

  PlacementEstimate random_estimate() {
    PlacementEstimate e{};
    e.eft = efts_[pick(efts_.size())];
    e.cost = costs_[pick(costs_.size())];
    return e;
  }

  void push_row() {
    std::vector<PlacementEstimate> row(used_ + kFresh);
    for (PlacementEstimate& e : row) e = random_estimate();
    rows_.push_back(row);
    table_.push_row(row);
  }

  void erase_row(std::size_t position) {
    rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(position));
    table_.erase_row(position);
  }

  /// column == used columns appends one (a fresh commit).
  void update_column(std::size_t column) {
    if (column == used_) {
      for (auto& row : rows_)
        row.insert(row.begin() + static_cast<std::ptrdiff_t>(used_), PlacementEstimate{});
      ++used_;
    }
    table_.update_column(column, [&](std::size_t i) {
      rows_[i][column] = random_estimate();
      return rows_[i][column];
    });
  }

  /// Checks every row under no cap and every test cap (plus a random one).
  void check_all() {
    std::vector<HostCandidate> hosts;
    hosts.reserve(used_ + kFresh);
    for (std::size_t j = 0; j < used_; ++j)
      hosts.push_back({static_cast<sim::VmId>(j), static_cast<platform::CategoryId>(j % kFresh),
                       false});
    for (std::size_t k = 0; k < kFresh; ++k)
      hosts.push_back({sim::invalid_vm, static_cast<platform::CategoryId>(k), true});
    std::vector<std::optional<Dollars>> caps{std::nullopt};
    caps.insert(caps.end(), caps_.begin(), caps_.end());
    caps.emplace_back(std::uniform_real_distribution<Dollars>(0.0, 4.0)(rng_));
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      for (const std::optional<Dollars>& cap : caps) {
        BestHostScan scan(cap);
        for (std::size_t j = 0; j < hosts.size(); ++j) scan.consider(hosts[j], rows_[i][j]);
        const BestHost expected = scan.result();
        const BestHost actual = table_.best(i, hosts, cap);
        ASSERT_EQ(actual.host.fresh, expected.host.fresh) << "row " << i;
        ASSERT_EQ(actual.host.vm, expected.host.vm) << "row " << i;
        ASSERT_EQ(actual.host.category, expected.host.category) << "row " << i;
        ASSERT_EQ(actual.estimate.eft, expected.estimate.eft) << "row " << i;
        ASSERT_EQ(actual.estimate.cost, expected.estimate.cost) << "row " << i;
        ASSERT_EQ(actual.affordable, expected.affordable) << "row " << i;
      }
    }
  }

  std::size_t pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t used() const { return used_; }

 private:
  std::mt19937_64 rng_;
  // 0.25 sits below every cost: a row capped there has no affordable host.
  std::vector<Dollars> caps_{0.25, 1.0, 2.0, 3.0};
  std::vector<Seconds> efts_{1.0, 2.0, 3.0, 4.0};
  std::vector<Dollars> costs_{0.5, 1.0, 1.5, 2.0, 3.5};
  std::size_t used_ = 0;
  std::vector<std::vector<PlacementEstimate>> rows_;  // used columns, then fresh
  BestHostTable table_{kFresh};
};

TEST(BestHostTable, MatchesBestHostScanUnderRandomUpdates) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    TableMirror mirror(seed);
    for (int i = 0; i < 6; ++i) mirror.push_row();
    mirror.check_all();
    // 40 appended columns cross the initial capacity of 8 three times.
    for (int step = 0; step < 160; ++step) {
      const std::size_t op = mirror.pick(8);
      if (op < 2 && mirror.used() < 40) {
        mirror.update_column(mirror.used());
      } else if (op == 2) {
        mirror.push_row();
      } else if (op == 3 && mirror.rows() > 1) {
        mirror.erase_row(mirror.pick(mirror.rows()));
      } else if (mirror.used() > 0) {
        mirror.update_column(mirror.pick(mirror.used()));
      } else {
        mirror.update_column(0);
      }
      mirror.check_all();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(BestHostTable, EmptyUsedSetComparesFreshSlotsOnly) {
  BestHostTable table(2);
  PlacementEstimate slow{};
  slow.eft = 5;
  slow.cost = 1;
  PlacementEstimate fast{};
  fast.eft = 2;
  fast.cost = 3;
  const std::vector<PlacementEstimate> row{slow, fast};
  table.push_row(row);
  const std::vector<HostCandidate> hosts{{sim::invalid_vm, 0, true}, {sim::invalid_vm, 1, true}};
  EXPECT_EQ(table.best(0, hosts, std::nullopt).host.category, 1u);
  EXPECT_EQ(table.best(0, hosts, 2.0).host.category, 0u);
  const BestHost over = table.best(0, hosts, 0.5);
  EXPECT_FALSE(over.affordable);
  EXPECT_EQ(over.host.category, 0u);  // cheapest fallback
}

}  // namespace
}  // namespace cloudwf::sched
