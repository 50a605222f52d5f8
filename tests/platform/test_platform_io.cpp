/// \file test_platform_io.cpp
/// \brief Unit tests for platform JSON I/O and billing quanta (platform/io,
/// pricing).

#include "platform/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/error.hpp"
#include "platform/pricing.hpp"

namespace cloudwf::platform {
namespace {

TEST(PlatformIo, ParsesFullDocument) {
  const Platform p = from_json(R"({
    "name": "custom",
    "boot_delay_s": 45,
    "bandwidth_MBps": 250,
    "dc_storage_per_gb_month": 0.023,
    "dc_transfer_per_gb": 0.09,
    "dc_aggregate_bandwidth_MBps": 500,
    "billing_quantum_s": 60,
    "categories": [
      {"name": "small", "speed": 1.0, "price_per_hour": 0.085},
      {"name": "large", "speed": 3.8, "price_per_hour": 0.34,
       "setup_cost": 0.01, "processors": 2}
    ]
  })");
  EXPECT_EQ(p.name(), "custom");
  EXPECT_DOUBLE_EQ(p.boot_delay(), 45.0);
  EXPECT_DOUBLE_EQ(p.bandwidth(), 250e6);
  EXPECT_DOUBLE_EQ(p.dc_aggregate_bandwidth(), 500e6);
  EXPECT_DOUBLE_EQ(p.billing_quantum(), 60.0);
  ASSERT_EQ(p.category_count(), 2u);
  EXPECT_DOUBLE_EQ(p.category(0).price_per_second, 0.085 / 3600.0);
  EXPECT_EQ(p.category(1).processors, 2u);
  EXPECT_DOUBLE_EQ(p.category(1).setup_cost, 0.01);
}

TEST(PlatformIo, DefaultsMatchPaperPlatform) {
  const Platform p = from_json(R"({"categories": [{"name": "c", "speed": 1,
                                                   "price_per_second": 0.001}]})");
  const Platform paper = paper_platform();
  EXPECT_DOUBLE_EQ(p.boot_delay(), paper.boot_delay());
  EXPECT_DOUBLE_EQ(p.bandwidth(), paper.bandwidth());
  EXPECT_DOUBLE_EQ(p.dc_transfer_price_per_byte(), paper.dc_transfer_price_per_byte());
  EXPECT_DOUBLE_EQ(p.billing_quantum(), 0.0);
}

TEST(PlatformIo, RoundTripsPaperPlatform) {
  const Platform original = paper_platform_with_contention(2.0);
  const Platform back = from_json(to_json(original));
  EXPECT_EQ(back.name(), original.name());
  EXPECT_DOUBLE_EQ(back.boot_delay(), original.boot_delay());
  EXPECT_DOUBLE_EQ(back.bandwidth(), original.bandwidth());
  EXPECT_NEAR(back.dc_storage_price_per_byte_second(),
              original.dc_storage_price_per_byte_second(), 1e-24);
  EXPECT_DOUBLE_EQ(back.dc_aggregate_bandwidth(), original.dc_aggregate_bandwidth());
  ASSERT_EQ(back.category_count(), original.category_count());
  for (CategoryId c = 0; c < original.category_count(); ++c) {
    EXPECT_EQ(back.category(c).name, original.category(c).name);
    EXPECT_DOUBLE_EQ(back.category(c).speed, original.category(c).speed);
    EXPECT_NEAR(back.category(c).price_per_second, original.category(c).price_per_second,
                1e-15);
  }
}

TEST(PlatformIo, MissingCategoriesRejected) {
  EXPECT_THROW((void)from_json(R"({"name": "x"})"), InvalidArgument);
}

TEST(PlatformIo, ProcessorsOutsideUint32Rejected) {
  const auto with_processors = [](const std::string& processors) {
    return R"({"categories": [{"name": "c", "speed": 1, "price_per_second": 1, "processors": )" +
           processors + "}]}";
  };
  for (const std::string processors : {"-1", "1.5", "1e12", "4294967296"}) {
    SCOPED_TRACE(processors);
    EXPECT_THROW((void)from_json(with_processors(processors)), ValidationError);
  }
  EXPECT_EQ(from_json(with_processors("4294967295")).category(0).processors, 4294967295u);
}

TEST(PlatformIo, SaveAndLoadFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "cloudwf_platform.json").string();
  save_json(paper_platform(), path);
  const Platform back = load_json(path);
  EXPECT_EQ(back.category_count(), 3u);
  std::remove(path.c_str());
}

TEST(PlatformIo, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_json("/no/such/platform.json"), InvalidArgument);
}

TEST(BillingQuantum, RoundsUpToQuantum) {
  const VmCategory cat{"c", 1.0, 2.0, 0.0, 1};
  // 100.5 s at quantum 60 -> 120 s billed.
  EXPECT_DOUBLE_EQ(vm_cost(cat, 0.0, 100.5, 60.0), 240.0);
  // Exact multiples are not rounded further.
  EXPECT_DOUBLE_EQ(vm_cost(cat, 0.0, 120.0, 60.0), 240.0);
  // Continuous billing when the quantum is 0.
  EXPECT_DOUBLE_EQ(vm_cost(cat, 0.0, 100.5, 0.0), 201.0);
  EXPECT_THROW((void)vm_cost(cat, 0.0, 1.0, -1.0), InvalidArgument);
}

TEST(BillingQuantum, HourlyBillingChargesFullHours) {
  const VmCategory cat{"c", 1.0, 1.0, 0.0, 1};
  EXPECT_DOUBLE_EQ(vm_cost(cat, 0.0, 1.0, 3600.0), 3600.0);  // 1 s -> one hour
  EXPECT_DOUBLE_EQ(vm_cost(cat, 0.0, 3601.0, 3600.0), 7200.0);
}

TEST(BillingQuantum, NegativeQuantumRejectedAtBuild) {
  EXPECT_THROW((void)PlatformBuilder("p")
                   .add_category({"a", 1.0, 1.0, 0, 1})
                   .billing_quantum(-1)
                   .build(),
               InvalidArgument);
}

}  // namespace
}  // namespace cloudwf::platform
