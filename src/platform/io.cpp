#include "platform/io.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace cloudwf::platform {

Platform from_json(const std::string& text) {
  const Json root = Json::parse(text);
  const auto& obj = root.as_object();
  const auto number_or = [&](std::string_view key, double fallback) {
    const Json* found = obj.find(key);
    return found != nullptr ? found->as_number() : fallback;
  };

  PlatformBuilder builder(obj.contains("name") ? root.at("name").as_string() : "platform");
  builder.boot_delay(number_or("boot_delay_s", 100.0));
  builder.bandwidth(number_or("bandwidth_MBps", 125.0) * units::MB);
  builder.dc_storage_price_per_gb_month(number_or("dc_storage_per_gb_month", 0.022));
  builder.dc_transfer_price_per_gb(number_or("dc_transfer_per_gb", 0.055));
  builder.dc_aggregate_bandwidth(number_or("dc_aggregate_bandwidth_MBps", 0.0) * units::MB);
  builder.billing_quantum(number_or("billing_quantum_s", 0.0));

  require(obj.contains("categories"), "platform::from_json: missing 'categories'");
  for (const Json& jc : root.at("categories").as_array()) {
    const auto& cobj = jc.as_object();
    VmCategory category;
    category.name = jc.at("name").as_string();
    category.speed = jc.at("speed").as_number();
    if (cobj.contains("price_per_hour"))
      category.price_per_second = units::per_hour(jc.at("price_per_hour").as_number());
    else
      category.price_per_second = jc.at("price_per_second").as_number();
    if (const Json* setup = cobj.find("setup_cost")) category.setup_cost = setup->as_number();
    if (const Json* procs = cobj.find("processors"))
      category.processors =
          json_unsigned<std::uint32_t>(procs->as_number(), "platform json: processors");
    builder.add_category(category);
  }
  return builder.build();
}

Platform load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw InvalidArgument("platform::load_json: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_json(buffer.str());
}

std::string to_json(const Platform& platform) {
  Json::Object root;
  root["name"] = platform.name();
  root["boot_delay_s"] = platform.boot_delay();
  root["bandwidth_MBps"] = platform.bandwidth() / units::MB;
  root["dc_storage_per_gb_month"] =
      platform.dc_storage_price_per_byte_second() * units::GB * units::month;
  root["dc_transfer_per_gb"] = platform.dc_transfer_price_per_byte() * units::GB;
  root["dc_aggregate_bandwidth_MBps"] = platform.dc_aggregate_bandwidth() / units::MB;
  root["billing_quantum_s"] = platform.billing_quantum();

  Json::Array categories;
  for (const VmCategory& category : platform.categories()) {
    Json::Object jc;
    jc["name"] = category.name;
    jc["speed"] = category.speed;
    jc["price_per_hour"] = category.price_per_second * units::hour;
    jc["setup_cost"] = category.setup_cost;
    jc["processors"] = static_cast<double>(category.processors);
    categories.emplace_back(std::move(jc));
  }
  root["categories"] = Json(std::move(categories));
  return Json(std::move(root)).dump(2);
}

void save_json(const Platform& platform, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) throw InvalidArgument("platform::save_json: cannot open " + path);
  out << to_json(platform) << '\n';
  if (!out.good()) throw InvalidArgument("platform::save_json: write failed for " + path);
}

}  // namespace cloudwf::platform
