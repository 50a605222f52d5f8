#include "sim/fluid.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace cloudwf::sim {

FluidNetwork::FluidNetwork(BytesPerSec per_flow_cap, BytesPerSec aggregate_capacity)
    : cap_(per_flow_cap), aggregate_(aggregate_capacity) {
  require(cap_ > 0, "FluidNetwork: per-flow cap must be positive");
  require(aggregate_ >= 0, "FluidNetwork: aggregate capacity must be non-negative");
}

FlowId FluidNetwork::start_flow(Bytes bytes, Seconds now) {
  require(bytes >= 0, "FluidNetwork::start_flow: negative size");
  progress_to(now);
  flows_.push_back(Flow{bytes, bytes, false});
  const auto id = static_cast<FlowId>(flows_.size() - 1);
  active_.push_back(id);  // zero-byte flows complete on the next advance()
  peak_active_ = std::max(peak_active_, active_.size());
  return id;
}

void FluidNetwork::reset() {
  flows_.clear();
  active_.clear();
  last_update_ = 0;
  completed_bytes_ = 0;
  peak_active_ = 0;
}

void FluidNetwork::advance(Seconds now, std::vector<FlowId>& completed) {
  progress_to(now);
  completed.clear();
  // Completion tolerance scaled to rate: one nanosecond of transfer.
  const Bytes tolerance = current_rate() * 1e-9;
  for (auto it = active_.begin(); it != active_.end();) {
    Flow& flow = flows_[*it];
    if (flow.remaining <= tolerance) {
      flow.remaining = 0;
      flow.done = true;
      completed_bytes_ += flow.total;
      completed.push_back(*it);
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
}

Seconds FluidNetwork::next_completion() const {
  if (active_.empty()) return std::numeric_limits<Seconds>::infinity();
  Bytes smallest = std::numeric_limits<Bytes>::infinity();
  for (FlowId id : active_) smallest = std::min(smallest, flows_[id].remaining);
  return last_update_ + smallest / current_rate();
}

BytesPerSec FluidNetwork::current_rate() const {
  if (aggregate_ <= 0 || active_.empty()) return cap_;
  return std::min(cap_, aggregate_ / static_cast<double>(active_.size()));
}

void FluidNetwork::progress_to(Seconds now) {
  require(now + time_epsilon >= last_update_, "FluidNetwork: time went backwards");
  // With a shared aggregate, stepping beyond the earliest completion would
  // let a finished flow keep absorbing bandwidth from the others; the engine
  // must process completions first (relative tolerance absorbs floating-point
  // drift).  Without an aggregate the rate is load-independent, so late
  // collection is harmless and allowed.
  CLOUDWF_ASSERT_MSG(aggregate_ <= 0 || now <= next_completion() + 1e-6 * std::max(1.0, now),
                     "FluidNetwork: advanced past a pending flow completion");
  const Seconds dt = std::max(0.0, now - last_update_);
  if (dt > 0 && !active_.empty()) {
    const Bytes step = current_rate() * dt;
    for (FlowId id : active_) flows_[id].remaining = std::max(0.0, flows_[id].remaining - step);
  }
  last_update_ = std::max(last_update_, now);
}

}  // namespace cloudwf::sim
