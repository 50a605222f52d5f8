#include "platform/platform.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace cloudwf::platform {

namespace {

// Finite as well as in range: +inf passes a plain `x > 0`, NaN fails both.
bool positive(double x) { return std::isfinite(x) && x > 0; }
bool non_negative(double x) { return std::isfinite(x) && x >= 0; }

}  // namespace

Platform::Platform(std::string name, std::vector<VmCategory> categories, Seconds boot_delay,
                   BytesPerSec bandwidth, Dollars dc_storage_price_per_byte_second,
                   Dollars dc_transfer_price_per_byte, BytesPerSec dc_aggregate_bandwidth,
                   Seconds billing_quantum)
    : name_(std::move(name)),
      categories_(std::move(categories)),
      boot_delay_(boot_delay),
      bandwidth_(bandwidth),
      dc_storage_price_per_byte_second_(dc_storage_price_per_byte_second),
      dc_transfer_price_per_byte_(dc_transfer_price_per_byte),
      dc_aggregate_bandwidth_(dc_aggregate_bandwidth),
      billing_quantum_(billing_quantum) {
  require(!categories_.empty(), "Platform: at least one VM category required");
  require(non_negative(boot_delay_), "Platform: negative boot delay");
  require(positive(bandwidth_), "Platform: bandwidth must be positive");
  require(non_negative(dc_storage_price_per_byte_second_), "Platform: negative storage price");
  require(non_negative(dc_transfer_price_per_byte_), "Platform: negative transfer price");
  require(non_negative(dc_aggregate_bandwidth_), "Platform: negative aggregate bandwidth");
  require(non_negative(billing_quantum_), "Platform: negative billing quantum");
  for (const VmCategory& c : categories_) {
    require(!c.name.empty(), "Platform: category with empty name");
    // The message names the category, so it is built only on failure.
    const auto check = [&c](bool ok, const char* what) {
      if (!ok) throw InvalidArgument(std::string("Platform: ") + what + " (" + c.name + ")");
    };
    check(positive(c.speed), "category speed must be positive");
    check(positive(c.price_per_second), "category price must be positive");
    check(non_negative(c.setup_cost), "negative setup cost");
    check(c.processors >= 1, "category needs >= 1 processor");
  }

  // The paper sorts categories so that c_h,1 <= c_h,2 <= ... <= c_h,k.
  std::stable_sort(categories_.begin(), categories_.end(),
                   [](const VmCategory& a, const VmCategory& b) {
                     return a.price_per_second < b.price_per_second;
                   });

  InstrPerSec speed_sum = 0;
  for (CategoryId id = 0; id < categories_.size(); ++id) {
    const VmCategory& c = categories_[id];
    speed_sum += c.speed;
    if (c.price_per_second < categories_[cheapest_].price_per_second) cheapest_ = id;
    if (c.speed > categories_[fastest_].speed ||
        (c.speed == categories_[fastest_].speed &&
         c.price_per_second < categories_[fastest_].price_per_second))
      fastest_ = id;
  }
  mean_speed_ = speed_sum / static_cast<double>(categories_.size());
}

const VmCategory& Platform::category(CategoryId id) const {
  require(id < categories_.size(), "Platform::category: id out of range");
  return categories_[id];
}

PlatformBuilder::PlatformBuilder(std::string name) : name_(std::move(name)) {}

PlatformBuilder& PlatformBuilder::add_category(VmCategory category) {
  categories_.push_back(std::move(category));
  return *this;
}

PlatformBuilder& PlatformBuilder::boot_delay(Seconds seconds) {
  boot_delay_ = seconds;
  return *this;
}

PlatformBuilder& PlatformBuilder::bandwidth(BytesPerSec bytes_per_second) {
  bandwidth_ = bytes_per_second;
  return *this;
}

PlatformBuilder& PlatformBuilder::dc_storage_price_per_gb_month(Dollars dollars) {
  dc_storage_ = units::per_gb_month(dollars);
  return *this;
}

PlatformBuilder& PlatformBuilder::dc_transfer_price_per_gb(Dollars dollars) {
  dc_transfer_ = units::per_gb(dollars);
  return *this;
}

PlatformBuilder& PlatformBuilder::dc_aggregate_bandwidth(BytesPerSec bytes_per_second) {
  dc_aggregate_ = bytes_per_second;
  return *this;
}

PlatformBuilder& PlatformBuilder::billing_quantum(Seconds seconds) {
  billing_quantum_ = seconds;
  return *this;
}

Platform PlatformBuilder::build() const {
  return Platform(name_, categories_, boot_delay_, bandwidth_, dc_storage_, dc_transfer_,
                  dc_aggregate_, billing_quantum_);
}

Platform paper_platform() {
  // Reconstructed Table II; see DESIGN.md Section 2 for the rationale.
  return PlatformBuilder("paper-table2")
      .add_category({"small", 1.0, units::per_hour(0.05), 0.005, 1})
      .add_category({"medium", 2.0, units::per_hour(0.10), 0.005, 1})
      .add_category({"large", 4.0, units::per_hour(0.20), 0.005, 1})
      .boot_delay(100.0)
      .bandwidth(125.0 * units::MB)
      .dc_storage_price_per_gb_month(0.022)
      .dc_transfer_price_per_gb(0.055)
      .build();
}

Platform paper_platform_with_contention(double factor) {
  require(factor > 0, "paper_platform_with_contention: factor must be positive");
  return PlatformBuilder("paper-table2-contended")
      .add_category({"small", 1.0, units::per_hour(0.05), 0.005, 1})
      .add_category({"medium", 2.0, units::per_hour(0.10), 0.005, 1})
      .add_category({"large", 4.0, units::per_hour(0.20), 0.005, 1})
      .boot_delay(100.0)
      .bandwidth(125.0 * units::MB)
      .dc_storage_price_per_gb_month(0.022)
      .dc_transfer_price_per_gb(0.055)
      .dc_aggregate_bandwidth(factor * 125.0 * units::MB)
      .build();
}

}  // namespace cloudwf::platform
