#pragma once

/// \file fluid.hpp
/// \brief Fluid (flow-level) transfer model with optional shared capacity.
///
/// Every VM<->datacenter transfer is a flow.  In the paper's base model the
/// datacenter accommodates all requests simultaneously, so each flow runs at
/// the per-link bandwidth `bw`.  The contention mode adds a finite aggregate
/// datacenter capacity C shared max–min fairly: because all flows have the
/// same cap bw, water-filling collapses to rate = min(bw, C / n_active).
/// Rates are recomputed whenever the active-flow set changes, which is the
/// standard progressive-filling fluid approximation SimGrid uses — and what
/// lets us reproduce the paper's LIGO budget-overrun anomaly (Section V-B).

#include <cstdint>
#include <limits>
#include <vector>

#include "common/units.hpp"

namespace cloudwf::sim {

/// Handle of a flow inside a FluidNetwork.
using FlowId = std::uint32_t;

/// Sentinel for "no flow".
inline constexpr FlowId invalid_flow = std::numeric_limits<FlowId>::max();

/// Event-driven fluid network: flows progress at a common rate that depends
/// on how many are active.
class FluidNetwork {
 public:
  /// \p per_flow_cap is the VM link bandwidth; \p aggregate_capacity is the
  /// shared datacenter capacity (0 = unlimited, the paper's base model).
  FluidNetwork(BytesPerSec per_flow_cap, BytesPerSec aggregate_capacity);

  /// Starts a flow of \p bytes at time \p now; returns its id.
  /// Zero-byte flows complete immediately (reported by the next advance()).
  FlowId start_flow(Bytes bytes, Seconds now);

  /// Returns the network to its just-constructed state (no flows, clock at
  /// zero) while keeping its storage, so one network serves many runs.
  void reset();

  /// Advances all flows to \p now (now must not exceed next_completion())
  /// and replaces the contents of \p completed with the flows that
  /// completed at \p now, in start order.
  void advance(Seconds now, std::vector<FlowId>& completed);

  /// Time at which the earliest active flow completes; +inf when idle.
  [[nodiscard]] Seconds next_completion() const;

  [[nodiscard]] std::size_t active_count() const { return active_.size(); }
  /// Current per-flow rate (bytes/s); equals the cap when uncontended.
  [[nodiscard]] BytesPerSec current_rate() const;
  /// Total bytes carried by completed flows.
  [[nodiscard]] Bytes completed_bytes() const { return completed_bytes_; }
  /// Largest active-flow count ever observed (contention diagnostics).
  [[nodiscard]] std::size_t peak_active() const { return peak_active_; }

 private:
  void progress_to(Seconds now);

  struct Flow {
    Bytes total = 0;
    Bytes remaining = 0;
    bool done = false;
  };

  BytesPerSec cap_;
  BytesPerSec aggregate_;  // 0 = unlimited
  std::vector<Flow> flows_;
  std::vector<FlowId> active_;  // in start order
  Seconds last_update_ = 0;
  Bytes completed_bytes_ = 0;
  std::size_t peak_active_ = 0;
};

}  // namespace cloudwf::sim
