#pragma once

/// \file best_host.hpp
/// \brief getBestHost (Algorithm 2): cheapest-feasible-fastest host choice.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sched/eft.hpp"

namespace cloudwf::obs {
class EventBus;
}  // namespace cloudwf::obs

namespace cloudwf::sched {

/// Outcome of one getBestHost call.
struct BestHost {
  HostCandidate host;
  PlacementEstimate estimate;
  /// True when the chosen host respects the budget cap (always true without
  /// a cap).  When no host is affordable the cheapest one is returned with
  /// affordable = false — the schedule must still complete; feasibility is
  /// judged at the end (the paper reports such runs as budget violations).
  bool affordable = true;
};

/// Streaming selection kernel behind getBestHost.  One scan object is fed
/// (host, estimate) pairs via consider() and yields the Algorithm-2 winner:
/// smallest EFT among hosts within the cap, with the overall-cheapest host
/// as the over-budget fallback.  Factored out so MIN-MIN's memoized rounds
/// and the fresh-estimate path share byte-identical tie-breaking.
class BestHostScan {
 public:
  explicit BestHostScan(std::optional<Dollars> budget_cap) : budget_cap_(budget_cap) {}

  void consider(const HostCandidate& host, const PlacementEstimate& estimate) {
    // Track the overall cheapest placement as the fallback.
    if (!have_cheapest_ || estimate.cost < cheapest_.estimate.cost ||
        (estimate.cost == cheapest_.estimate.cost &&
         better_placement(estimate, host, cheapest_.estimate, cheapest_.host))) {
      have_cheapest_ = true;
      cheapest_.host = host;
      cheapest_.estimate = estimate;
    }
    if (budget_cap_ && estimate.cost > *budget_cap_ + money_epsilon) return;
    if (!have_affordable_ || better_placement(estimate, host, best_.estimate, best_.host)) {
      have_affordable_ = true;
      best_.host = host;
      best_.estimate = estimate;
    }
  }

  [[nodiscard]] BestHost result() const {
    if (have_affordable_) return BestHost{best_.host, best_.estimate, true};
    return BestHost{cheapest_.host, cheapest_.estimate, false};
  }

 private:
  struct Entry {
    HostCandidate host{};
    PlacementEstimate estimate{};
  };
  std::optional<Dollars> budget_cap_;
  Entry best_{};
  Entry cheapest_{};
  bool have_affordable_ = false;
  bool have_cheapest_ = false;
};

/// MIN-MIN's memoized (ready task x candidate host) estimate table, with one
/// tournament tree per row over the used-VM columns (DESIGN.md Section 12).
///
/// Rows are kept in insertion order and addressed by position, like the
/// ready list they mirror.  Columns follow EftState::candidates(): used VMs
/// in ascending id order (so column order is vm-id order), then one fresh
/// slot per category.  Used columns are only ever appended, never removed.
///
/// Each internal tree node holds two leaf indices over its subtree: the
/// better_placement winner and the cheapest leaf (cost, then
/// better_placement — BestHostScan's fallback order).  best() returns
/// exactly what BestHostScan returns over the whole row: plain selection
/// reads the root; a budget cap descends, skipping subtrees whose cheapest
/// leaf is over the cap and stopping at the first subtree whose winner
/// fits.  The few fresh slots are compared directly.
///
/// Selection only reads an estimate's EFT and cost, so that is all a row
/// stores (16 bytes per host plus 8 per tree node); best() returns an
/// estimate with begin, exec and upload left at zero.
class BestHostTable {
 public:
  /// \p fresh_slots is the number of fresh candidates (categories).
  explicit BestHostTable(std::size_t fresh_slots) : fresh_(fresh_slots) {}

  /// Appends a row; \p estimates is aligned with the candidates (used
  /// columns, then fresh slots).  O(capacity).
  void push_row(std::span<const PlacementEstimate> estimates);

  /// Removes the row at \p position, keeping the others in order.
  void erase_row(std::size_t position) {
    rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(position));
  }

  /// Re-estimates used column \p column on every row, in row order:
  /// \p probe(position) yields the row's new estimate.  A column one past
  /// the last used one is appended (a freshly provisioned VM).  Repairs
  /// one leaf-to-root path per row, O(log capacity).
  template <typename Probe>
  void update_column(std::size_t column, Probe&& probe) {
    if (column == used_) append_column();
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const PlacementEstimate estimate = probe(i);
      rows_[i].keys[fresh_ + column] = {estimate.eft, estimate.cost};
      repair(rows_[i], column);
    }
  }

  /// BestHostScan(\p budget_cap) over the row at \p position; \p hosts are
  /// the current candidates.
  [[nodiscard]] BestHost best(std::size_t position, std::span<const HostCandidate> hosts,
                              std::optional<Dollars> budget_cap) const;

 private:
  static constexpr std::uint32_t none = UINT32_MAX;
  /// What selection reads of a PlacementEstimate.
  struct Key {
    Seconds eft = 0;
    Dollars cost = 0;
  };
  /// Leaf (used column) indices; none marks an empty subtree.
  struct Node {
    std::uint32_t winner = none;
    std::uint32_t cheapest = none;
  };
  struct Row {
    std::vector<Key> keys;    // fresh slots, then capacity_ used columns
    std::vector<Node> nodes;  // internal nodes [1, capacity_); [0] unused
  };

  void append_column();
  void build(Row& row) const;
  void repair(Row& row, std::size_t column) const;
  /// Contents of tree node \p index (leaves, index >= capacity_, are implicit).
  [[nodiscard]] Node node(const Row& row, std::size_t index) const;
  [[nodiscard]] Node combine(const Row& row, Node a, Node b) const;
  [[nodiscard]] std::uint32_t affordable_winner(const Row& row, Dollars limit) const;

  std::size_t fresh_;
  std::size_t used_ = 0;
  std::size_t capacity_ = 8;  // leaves per tree
  std::vector<Row> rows_;     // insertion order
};

/// Selects the host with the smallest EFT among those whose cost ct(T,host)
/// stays within \p budget_cap (B_T + pot); without a cap, plain smallest
/// EFT (the baseline MIN-MIN/HEFT behaviour).  Probes every candidate of
/// \p state once; allocation-free.
[[nodiscard]] BestHost get_best_host(const EftState& state, dag::TaskId task,
                                     std::optional<Dollars> budget_cap);

/// Emits one sched_decision observability event for a committed placement:
/// the chosen VM, its category, fresh-vs-reuse, EFT, cost, the size of the
/// candidate set considered, and (when budget-aware) the cap and remaining
/// headroom.  Callers must gate on `bus.enabled()`; the detail string is
/// formatted into a stack buffer (no heap traffic) and is only valid for
/// the duration of the emit.  \p index is the 0-based decision number; it
/// becomes the event's timeline (scheduling precedes simulated time).
void emit_decision(obs::EventBus& bus, std::size_t index, const dag::Workflow& wf,
                   const platform::Platform& platform, dag::TaskId task, sim::VmId vm,
                   const BestHost& best, std::size_t candidate_count,
                   std::optional<Dollars> budget_cap);

}  // namespace cloudwf::sched
