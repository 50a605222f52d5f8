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
  totals_.push_back(bytes);
  const auto id = static_cast<FlowId>(totals_.size() - 1);
  active_.push_back(Active{bytes, id});  // zero-byte flows complete on the next advance()
  std::push_heap(active_.begin(), active_.end(), Active::more_remaining);
  peak_active_ = std::max(peak_active_, active_.size());
  return id;
}

void FluidNetwork::reset() {
  totals_.clear();
  active_.clear();
  last_update_ = 0;
  completed_bytes_ = 0;
  peak_active_ = 0;
}

void FluidNetwork::advance(Seconds now, std::vector<FlowId>& completed) {
  progress_to(now);
  completed.clear();
  const Bytes tolerance = current_rate() * completion_tolerance;
  while (!active_.empty() && active_.front().remaining <= tolerance) {
    completed.push_back(active_.front().id);
    std::pop_heap(active_.begin(), active_.end(), Active::more_remaining);
    active_.pop_back();
  }
  // Ids are handed out in start order; sorting restores it for the caller
  // and keeps the completed-bytes sum in the order the flows started.
  std::sort(completed.begin(), completed.end());
  for (FlowId id : completed) completed_bytes_ += totals_[id];
}

Seconds FluidNetwork::next_completion() const {
  if (active_.empty()) return std::numeric_limits<Seconds>::infinity();
  return last_update_ + active_.front().remaining / current_rate();
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
    // One common, monotone step: the heap order survives it (fluid.hpp).
    const Bytes step = current_rate() * dt;
    for (Active& flow : active_) flow.remaining = std::max(0.0, flow.remaining - step);
  }
  last_update_ = std::max(last_update_, now);
}

}  // namespace cloudwf::sim
