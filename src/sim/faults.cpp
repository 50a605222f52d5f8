#include "sim/faults.hpp"

#include <cmath>

#include "common/error.hpp"
#include "sim/simulator.hpp"

namespace cloudwf::sim {

void FaultModel::validate() const {
  require(p_boot_fail >= 0 && p_boot_fail < 1,
          "FaultModel: p_boot_fail must be in [0, 1)");
  require(p_transfer_fail >= 0 && p_transfer_fail < 1,
          "FaultModel: p_transfer_fail must be in [0, 1)");
  require(lambda_crash >= 0 && std::isfinite(lambda_crash),
          "FaultModel: lambda_crash must be finite and non-negative");
  require(acquisition_delay >= 0 && std::isfinite(acquisition_delay),
          "FaultModel: acquisition_delay must be finite and non-negative");
}

void RecoveryPolicy::validate() const {
  require(max_boot_attempts >= 1, "RecoveryPolicy: max_boot_attempts must be >= 1");
  require(transfer_backoff_base >= 0 && std::isfinite(transfer_backoff_base),
          "RecoveryPolicy: transfer_backoff_base must be finite and non-negative");
  require(budget_cap >= 0, "RecoveryPolicy: budget_cap must be non-negative and not NaN");
}

void OnlinePolicy::validate() const {
  require(timeout_sigmas >= 0, "OnlinePolicy: negative timeout_sigmas");
  require(min_speedup >= 1.0, "OnlinePolicy: min_speedup must be >= 1");
  require(budget_cap >= 0, "OnlinePolicy: budget_cap must be non-negative and not NaN");
}

FaultInjector::FaultInjector(const FaultModel& model)
    : model_(model),
      boot_rng_(Rng(model.seed).fork(1)),
      crash_rng_(Rng(model.seed).fork(2)),
      transfer_rng_(Rng(model.seed).fork(3)) {}

bool FaultInjector::boot_fails() {
  if (model_.p_boot_fail <= 0) return false;
  return boot_rng_.uniform() < model_.p_boot_fail;
}

Seconds FaultInjector::crash_after() {
  if (model_.lambda_crash <= 0) return std::numeric_limits<Seconds>::infinity();
  // Exponential inter-arrival; the rate is per billed hour, uptime is billed
  // continuously, so convert to per-second.
  const double u = crash_rng_.uniform();
  return -std::log1p(-u) / (model_.lambda_crash / units::hour);
}

bool FaultInjector::transfer_fails() {
  if (model_.p_transfer_fail <= 0) return false;
  return transfer_rng_.uniform() < model_.p_transfer_fail;
}

}  // namespace cloudwf::sim
