#pragma once

/// \file profile.hpp
/// \brief RAII wall-clock profiling scopes for hot paths.
///
/// Scopes wrap scheduler planning, event-loop dispatch and generator
/// construction.  Disabled (the default) a ProfileScope costs one bool
/// load; enabled it records wall time into a process-wide table printed
/// by profile_report().  Enable via CLOUDWF_PROFILE=1 or the CLI's
/// --profile flag.

#include <chrono>
#include <string>
#include <string_view>

#include "common/json.hpp"

namespace cloudwf::obs {

/// Process-wide switch, initialized once from CLOUDWF_PROFILE ("1"/"true").
[[nodiscard]] bool profiling_enabled();

/// Programmatic override (CLI --profile, benches, tests).
void set_profiling(bool enabled);

/// Adds one timed sample to the named scope's accumulator (thread-safe).
void profile_record(std::string_view name, double seconds);

/// Human-readable table of scopes: calls, total/mean/min/max milliseconds,
/// in first-recorded order.  Empty string when nothing was recorded.
[[nodiscard]] std::string profile_report();

/// {"scopes": {name: {"calls": n, "total_ms": .., "mean_ms": .., ...}}}.
[[nodiscard]] Json profile_json();

/// Clears all recorded scopes (tests, repeated bench iterations).
void profile_reset();

/// Times the enclosing scope under \p name when profiling is enabled at
/// construction.  The enabled flag is captured once so toggling mid-scope
/// cannot unbalance the timer.
class ProfileScope {
 public:
  explicit ProfileScope(std::string_view name)
      : enabled_(profiling_enabled()), name_(name) {
    if (enabled_) start_ = std::chrono::steady_clock::now();
  }

  ~ProfileScope() {
    if (!enabled_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    profile_record(name_, std::chrono::duration<double>(elapsed).count());
  }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  bool enabled_;
  std::string_view name_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace cloudwf::obs
