#include "sched/best_host.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "common/error.hpp"
#include "obs/event_bus.hpp"

namespace cloudwf::sched {

BestHost get_best_host(const EftState& state, dag::TaskId task,
                       std::optional<Dollars> budget_cap) {
  const std::span<const HostCandidate> hosts = state.candidates();
  CLOUDWF_ASSERT(!hosts.empty());
  BestHostScan scan(budget_cap);
  for (const HostCandidate& host : hosts) scan.consider(host, state.estimate(task, host));
  return scan.result();
}

namespace {

/// better_placement between two used columns of one row.  Used columns are
/// in vm-id order, so the column stands in for the vm id in the last
/// tie-break.
template <typename Key>
bool beats(const Key* keys, std::uint32_t a, std::uint32_t b) {
  return better_placement({.eft = keys[a].eft, .cost = keys[a].cost}, {a, 0, false},
                          {.eft = keys[b].eft, .cost = keys[b].cost}, {b, 0, false});
}

}  // namespace

void BestHostTable::push_row(std::span<const PlacementEstimate> estimates) {
  CLOUDWF_ASSERT(estimates.size() == used_ + fresh_);
  Row& row = rows_.emplace_back();
  row.keys.resize(fresh_ + capacity_);
  for (std::size_t k = 0; k < fresh_; ++k)
    row.keys[k] = {estimates[used_ + k].eft, estimates[used_ + k].cost};
  for (std::size_t j = 0; j < used_; ++j)
    row.keys[fresh_ + j] = {estimates[j].eft, estimates[j].cost};
  row.nodes.resize(capacity_);
  build(row);
}

void BestHostTable::append_column() {
  if (used_ == capacity_) {
    capacity_ *= 2;
    for (Row& row : rows_) {
      std::vector<Key> keys(fresh_ + capacity_);
      std::copy_n(row.keys.data(), fresh_ + used_, keys.data());
      row.keys = std::move(keys);
      row.nodes = std::vector<Node>(capacity_);
      build(row);
    }
  }
  ++used_;
}

BestHostTable::Node BestHostTable::node(const Row& row, std::size_t index) const {
  if (index < capacity_) return row.nodes[index];
  const std::size_t column = index - capacity_;
  if (column >= used_) return {};
  const auto leaf = static_cast<std::uint32_t>(column);
  return {leaf, leaf};
}

BestHostTable::Node BestHostTable::combine(const Row& row, Node a, Node b) const {
  if (b.winner == none) return a;
  if (a.winner == none) return b;
  const Key* keys = row.keys.data() + fresh_;
  const Dollars cost_a = keys[a.cheapest].cost;
  const Dollars cost_b = keys[b.cheapest].cost;
  Node out = a;
  if (beats(keys, b.winner, a.winner)) out.winner = b.winner;
  if (cost_b < cost_a || (cost_b == cost_a && beats(keys, b.cheapest, a.cheapest)))
    out.cheapest = b.cheapest;
  return out;
}

void BestHostTable::build(Row& row) const {
  for (std::size_t i = capacity_ - 1; i >= 1; --i)
    row.nodes[i] = combine(row, node(row, 2 * i), node(row, 2 * i + 1));
}

void BestHostTable::repair(Row& row, std::size_t column) const {
  for (std::size_t i = (capacity_ + column) / 2; i >= 1; i /= 2)
    row.nodes[i] = combine(row, node(row, 2 * i), node(row, 2 * i + 1));
}

std::uint32_t BestHostTable::affordable_winner(const Row& row, Dollars limit) const {
  // Depth-first over subtrees that can still hold an affordable leaf better
  // than the one found so far.  A subtree's winner is its best leaf, so once
  // it fits, nothing below it can do better.
  const Key* keys = row.keys.data() + fresh_;
  std::uint32_t found = none;
  std::size_t stack[2 * 64];
  std::size_t top = 0;
  stack[top++] = 1;
  while (top > 0) {
    const std::size_t index = stack[--top];
    const Node n = node(row, index);
    if (n.winner == none || keys[n.cheapest].cost > limit) continue;
    if (found != none && !beats(keys, n.winner, found)) continue;
    if (!(keys[n.winner].cost > limit)) {
      found = n.winner;
      continue;
    }
    // An internal node (a leaf's winner is its cheapest leaf, handled
    // above).  Visit the child with the better winner first.
    const Node left = node(row, 2 * index);
    const Node right = node(row, 2 * index + 1);
    const bool right_first =
        right.winner != none && (left.winner == none || beats(keys, right.winner, left.winner));
    stack[top++] = right_first ? 2 * index : 2 * index + 1;
    stack[top++] = right_first ? 2 * index + 1 : 2 * index;
  }
  return found;
}

BestHost BestHostTable::best(std::size_t position, std::span<const HostCandidate> hosts,
                             std::optional<Dollars> budget_cap) const {
  CLOUDWF_ASSERT(hosts.size() == used_ + fresh_);
  const Row& row = rows_[position];
  // Feeding BestHostScan the used columns' affordable winner and cheapest
  // leaf, then every fresh slot, yields the scan over the whole row: the
  // skipped leaves win neither race.
  BestHostScan scan(budget_cap);
  const auto consider = [&](std::size_t candidate, const Key& key) {
    scan.consider(hosts[candidate], {.eft = key.eft, .cost = key.cost});
  };
  const Key* keys = row.keys.data() + fresh_;
  if (used_ > 0) {
    const Node root = node(row, 1);
    const std::uint32_t fit =
        budget_cap ? affordable_winner(row, *budget_cap + money_epsilon) : root.winner;
    if (fit != none) consider(fit, keys[fit]);
    consider(root.cheapest, keys[root.cheapest]);
  }
  for (std::size_t k = 0; k < fresh_; ++k) consider(used_ + k, row.keys[k]);
  return scan.result();
}

namespace {

/// Bounded formatter for the sched_decision detail string.  Appends into a
/// fixed stack buffer, truncating on overflow — a truncated trace detail
/// beats an ostringstream allocation per placement (the enabled-bus
/// overhead benchmark measured that at 27% of the enabled-path cost).
/// `%g` matches the default iostream double formatting the previous
/// implementation produced.
class DetailBuffer {
 public:
  template <typename... Args>
  void append(const char* format, Args... args) {
    if (len_ + 1 >= sizeof(buf_)) return;
    const int n = std::snprintf(&buf_[len_], sizeof(buf_) - len_, format, args...);
    if (n > 0) len_ = std::min(len_ + static_cast<std::size_t>(n), sizeof(buf_) - 1);
  }
  [[nodiscard]] std::string_view view() const { return {&buf_[0], len_}; }

 private:
  char buf_[192] = {};
  std::size_t len_ = 0;
};

}  // namespace

void emit_decision(obs::EventBus& bus, std::size_t index, const dag::Workflow& wf,
                   const platform::Platform& platform, dag::TaskId task, sim::VmId vm,
                   const BestHost& best, std::size_t candidate_count,
                   std::optional<Dollars> budget_cap) {
  DetailBuffer detail;
  detail.append("cat=%s %s candidates=%zu cost=%g",
                platform.category(best.host.category).name.c_str(),
                best.host.fresh ? "fresh" : "reuse", candidate_count, best.estimate.cost);
  if (budget_cap) {
    detail.append(" cap=%g", *budget_cap);
    if (!best.affordable) detail.append(" over-cap");
  }
  bus.emit({.kind = obs::EventKind::sched_decision,
            .time = static_cast<Seconds>(index),
            .vm = static_cast<std::int64_t>(vm),
            .task = static_cast<std::int64_t>(task),
            .name = wf.task(task).name,
            .detail = detail.view(),
            // Remaining headroom of this decision's share (negative when the
            // cheapest fallback blew through the cap).
            .value = budget_cap ? *budget_cap - best.estimate.cost : 0.0,
            .duration = best.estimate.eft});
}

}  // namespace cloudwf::sched
