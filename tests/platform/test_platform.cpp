/// \file test_platform.cpp
/// \brief Unit tests for the platform model and pricing (platform/*).

#include "platform/platform.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "platform/pricing.hpp"

namespace cloudwf::platform {
namespace {

TEST(Platform, SortsCategoriesByPrice) {
  const Platform p = PlatformBuilder("p")
                         .add_category({"dear", 4.0, 3.0, 0, 1})
                         .add_category({"cheap", 1.0, 1.0, 0, 1})
                         .add_category({"mid", 2.0, 2.0, 0, 1})
                         .build();
  EXPECT_EQ(p.category(0).name, "cheap");
  EXPECT_EQ(p.category(1).name, "mid");
  EXPECT_EQ(p.category(2).name, "dear");
}

TEST(Platform, CheapestAndFastest) {
  const Platform p = PlatformBuilder("p")
                         .add_category({"a", 3.0, 1.0, 0, 1})
                         .add_category({"b", 2.0, 2.0, 0, 1})
                         .build();
  EXPECT_EQ(p.category(p.cheapest_category()).name, "a");
  EXPECT_EQ(p.category(p.fastest_category()).name, "a");  // fastest too
}

TEST(Platform, MeanSpeed) {
  const Platform p = PlatformBuilder("p")
                         .add_category({"a", 1.0, 1.0, 0, 1})
                         .add_category({"b", 3.0, 2.0, 0, 1})
                         .build();
  EXPECT_DOUBLE_EQ(p.mean_speed(), 2.0);
}

TEST(Platform, PaperPlatformMatchesTable2) {
  const Platform p = paper_platform();
  ASSERT_EQ(p.category_count(), 3u);
  EXPECT_DOUBLE_EQ(p.category(0).speed, 1.0);
  EXPECT_DOUBLE_EQ(p.category(1).speed, 2.0);
  EXPECT_DOUBLE_EQ(p.category(2).speed, 4.0);
  // Cost linear in speed: $/instruction identical across categories.
  EXPECT_DOUBLE_EQ(p.category(0).cost_per_instruction(), p.category(2).cost_per_instruction());
  EXPECT_DOUBLE_EQ(p.category(0).price_per_second, 0.05 / 3600.0);
  EXPECT_DOUBLE_EQ(p.boot_delay(), 100.0);
  EXPECT_DOUBLE_EQ(p.bandwidth(), 125e6);
  EXPECT_FALSE(p.dc_contention_enabled());
  EXPECT_DOUBLE_EQ(p.dc_transfer_price_per_byte(), 0.055 / 1e9);
}

TEST(Platform, ContentionVariantEnablesSharedCapacity) {
  const Platform p = paper_platform_with_contention(2.0);
  EXPECT_TRUE(p.dc_contention_enabled());
  EXPECT_DOUBLE_EQ(p.dc_aggregate_bandwidth(), 250e6);
  EXPECT_THROW((void)paper_platform_with_contention(0.0), InvalidArgument);
}

TEST(Platform, DcRateScalesWithFootprint) {
  const Platform p = paper_platform();
  const Dollars rate_1gb = p.dc_rate_for_footprint(1e9);
  // $0.022 per GB-month prorated to seconds.
  EXPECT_NEAR(rate_1gb, 0.022 / (30.0 * 24 * 3600), 1e-15);
  EXPECT_DOUBLE_EQ(p.dc_rate_for_footprint(2e9), 2 * rate_1gb);
}

TEST(Platform, ValidationRejectsBadInput) {
  EXPECT_THROW((void)PlatformBuilder("p").build(), InvalidArgument);  // no categories
  EXPECT_THROW((void)PlatformBuilder("p").add_category({"a", 0.0, 1.0, 0, 1}).build(),
               InvalidArgument);  // zero speed
  EXPECT_THROW((void)PlatformBuilder("p").add_category({"a", 1.0, 0.0, 0, 1}).build(),
               InvalidArgument);  // zero price
  EXPECT_THROW((void)PlatformBuilder("p").add_category({"a", 1.0, 1.0, 0, 0}).build(),
               InvalidArgument);  // zero processors
  EXPECT_THROW(
      (void)PlatformBuilder("p").add_category({"a", 1.0, 1.0, 0, 1}).boot_delay(-1).build(),
      InvalidArgument);
}

TEST(Platform, ValidationRejectsNonFiniteValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const VmCategory ok{"a", 1.0, 1.0, 0, 1};
  for (const double bad : {inf, nan}) {
    EXPECT_THROW((void)PlatformBuilder("p").add_category({"a", bad, 1.0, 0, 1}).build(),
                 InvalidArgument);  // speed
    EXPECT_THROW((void)PlatformBuilder("p").add_category({"a", 1.0, bad, 0, 1}).build(),
                 InvalidArgument);  // price
    EXPECT_THROW((void)PlatformBuilder("p").add_category({"a", 1.0, 1.0, bad, 1}).build(),
                 InvalidArgument);  // setup cost
    EXPECT_THROW((void)PlatformBuilder("p").add_category(ok).boot_delay(bad).build(),
                 InvalidArgument);
    EXPECT_THROW((void)PlatformBuilder("p").add_category(ok).bandwidth(bad).build(),
                 InvalidArgument);
    EXPECT_THROW((void)PlatformBuilder("p").add_category(ok).billing_quantum(bad).build(),
                 InvalidArgument);
    EXPECT_THROW(
        (void)PlatformBuilder("p").add_category(ok).dc_storage_price_per_gb_month(bad).build(),
        InvalidArgument);
    EXPECT_THROW((void)PlatformBuilder("p").add_category(ok).dc_transfer_price_per_gb(bad).build(),
                 InvalidArgument);
    EXPECT_THROW((void)PlatformBuilder("p").add_category(ok).dc_aggregate_bandwidth(bad).build(),
                 InvalidArgument);
  }
  try {
    (void)PlatformBuilder("p").add_category({"big", inf, 1.0, 0, 1}).build();
    FAIL() << "infinite speed accepted";
  } catch (const InvalidArgument& error) {
    EXPECT_STREQ(error.what(), "Platform: category speed must be positive (big)");
  }
}

TEST(Platform, CategoryOutOfRangeThrows) {
  const Platform p = paper_platform();
  EXPECT_THROW((void)p.category(3), InvalidArgument);
}

TEST(Pricing, VmCostEquation1) {
  const VmCategory cat{"c", 1.0, 2.0, 5.0, 1};
  // (end - start) * c_h + c_ini = 10 * 2 + 5.
  EXPECT_DOUBLE_EQ(vm_cost(cat, 100.0, 110.0), 25.0);
  EXPECT_DOUBLE_EQ(vm_cost(cat, 0.0, 0.0), 5.0);  // setup only
  EXPECT_THROW((void)vm_cost(cat, 10.0, 5.0), InvalidArgument);
}

TEST(Pricing, DatacenterCostEquation2) {
  const Platform p = PlatformBuilder("p")
                         .add_category({"a", 1.0, 1.0, 0, 1})
                         .dc_transfer_price_per_gb(0.1)
                         .dc_storage_price_per_gb_month(0.022)
                         .build();
  const CostBreakdown c = datacenter_cost(p, 1e9, 2e9, 0.0, 3600.0, 1e9);
  EXPECT_DOUBLE_EQ(c.dc_transfer, 0.3);  // 3 GB * $0.1/GB
  EXPECT_NEAR(c.dc_time, 0.022 / (30.0 * 24), 1e-12);  // one hour of one GB
  EXPECT_DOUBLE_EQ(c.vm_time, 0.0);
  EXPECT_DOUBLE_EQ(c.total(), c.dc_transfer + c.dc_time);
}

TEST(Pricing, CostBreakdownAccumulates) {
  CostBreakdown a{1, 2, 3, 4};
  const CostBreakdown b{10, 20, 30, 40};
  a += b;
  EXPECT_DOUBLE_EQ(a.vm_time, 11);
  EXPECT_DOUBLE_EQ(a.total(), 110);
}

}  // namespace
}  // namespace cloudwf::platform
