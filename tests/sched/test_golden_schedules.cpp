/// \file test_golden_schedules.cpp
/// \brief Golden schedule-equivalence tests for the scheduler fast path.
///
/// The incremental EftState / memoized MIN-MIN kernels must take *exactly*
/// the decisions of the straightforward seed kernels: every golden file in
/// tests/golden/schedules was generated with the pre-optimization code and
/// each test asserts the current kernel reproduces it bit-identically
/// (schedule_io JSON, assignment + per-VM order + priorities).
///
/// The 24-task JSON goldens are too small to pin a kernel rewrite, so
/// ScheduleHashTest adds one more parameter, the task count, and pins the
/// FNV-1a hash of the same schedule JSON at scale: 90 and 1000 tasks for
/// list schedulers, 90 for refining ones (CG+ at 30), each at 1.05x and
/// 1.5x the single-cheapest-VM cost.  The hashes live in one table,
/// tests/golden/schedule_hashes.txt.
///
/// Regenerate (only when an intentional semantic change is made) with:
///   CLOUDWF_GOLDEN_REGEN=1 ./test_golden_schedules

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include "exp/budget_levels.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sched/cg.hpp"
#include "sched/registry.hpp"
#include "sim/schedule_io.hpp"

#ifndef CLOUDWF_GOLDEN_DIR
#error "CLOUDWF_GOLDEN_DIR must point at tests/golden"
#endif

namespace cloudwf::sched {
namespace {

using Param = std::tuple<std::string, pegasus::WorkflowType>;

std::string golden_path(const Param& param) {
  std::string name = std::get<0>(param) + "_" +
                     std::string(pegasus::to_string(std::get<1>(param))) + ".json";
  return std::string(CLOUDWF_GOLDEN_DIR) + "/schedules/" + name;
}

/// The exact schedule JSON the kernel produces for the pinned scenario:
/// 24-task instance (seed 11, sigma 0.5), paper platform, medium budget.
std::string schedule_json(const Param& param) {
  const dag::Workflow wf = pegasus::generate(std::get<1>(param), {24, 11, 0.5});
  const platform::Platform platform = platform::paper_platform();
  const Dollars budget = exp::compute_budget_levels(wf, platform).medium;
  const SchedulerOutput out =
      make_scheduler(std::get<0>(param))->schedule({wf, platform, budget});
  return sim::schedule_to_json(out.schedule, wf).dump(2) + "\n";
}

bool regenerating() {
  const char* regen = std::getenv("CLOUDWF_GOLDEN_REGEN");
  return regen != nullptr && *regen != '\0';
}

class GoldenScheduleTest : public ::testing::TestWithParam<Param> {};

TEST_P(GoldenScheduleTest, BitIdenticalToSeedKernel) {
  const std::string path = golden_path(GetParam());
  const std::string current = schedule_json(GetParam());

  if (regenerating()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << current;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with CLOUDWF_GOLDEN_REGEN=1 to create it)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(current, expected.str())
      << "schedule diverged from the seed kernel for " << std::get<0>(GetParam());
}

std::vector<Param> all_params() {
  std::vector<Param> params;
  for (const std::string& algorithm : algorithm_names())
    for (const pegasus::WorkflowType type : pegasus::extended_types())
      params.emplace_back(algorithm, type);
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, GoldenScheduleTest, ::testing::ValuesIn(all_params()),
                         [](const ::testing::TestParamInfo<Param>& info) {
                           std::string name =
                               std::get<0>(info.param) + "_" +
                               std::string(pegasus::to_string(std::get<1>(info.param)));
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// ---------------------------------------------------------------------------
// Schedule hashes at scale.

/// (algorithm, family, task count).
using HashParam = std::tuple<std::string, pegasus::WorkflowType, std::size_t>;

constexpr double kHashBudgetFactors[] = {1.05, 1.5};

std::string hash_table_path() { return std::string(CLOUDWF_GOLDEN_DIR) + "/schedule_hashes.txt"; }

/// Table key of one (case, budget factor) pair, e.g. "minmin sipht 1000 1.05".
std::string hash_key(const HashParam& param, double factor) {
  char buf[32];
  std::snprintf(buf, sizeof buf, " %zu %.2f", std::get<2>(param), factor);
  return std::get<0>(param) + " " + std::string(pegasus::to_string(std::get<1>(param))) + buf;
}

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : text) hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

/// key -> hash, as stored one "key hash" pair per line ('#' lines skipped).
std::map<std::string, std::string> read_hash_table() {
  std::map<std::string, std::string> table;
  std::ifstream in(hash_table_path());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t split = line.rfind(' ');
    if (split != std::string::npos) table[line.substr(0, split)] = line.substr(split + 1);
  }
  return table;
}

void write_hash_table(const std::map<std::string, std::string>& table) {
  std::ofstream out(hash_table_path(), std::ios::binary | std::ios::trunc);
  out << "# algorithm family tasks budget/single_vm_cost fnv1a64(schedule_to_json)\n"
         "# Instances: pegasus::generate(family, {tasks, 11, 0.5}), paper platform.\n"
         "# Regenerate with CLOUDWF_GOLDEN_REGEN=1 ./test_golden_schedules\n";
  for (const auto& [key, hash] : table) out << key << ' ' << hash << '\n';
}

class ScheduleHashTest : public ::testing::TestWithParam<HashParam> {};

TEST_P(ScheduleHashTest, MatchesPinnedHash) {
  const auto& [algorithm, type, tasks] = GetParam();
  const dag::Workflow wf = pegasus::generate(type, {tasks, 11, 0.5});
  const platform::Platform platform = platform::paper_platform();
  const Dollars min_cost = single_vm_cost(wf, platform, platform.cheapest_category());
  const auto scheduler = make_scheduler(algorithm);

  std::map<std::string, std::string> table = read_hash_table();
  for (const double factor : kHashBudgetFactors) {
    const SchedulerOutput out = scheduler->schedule({wf, platform, factor * min_cost});
    const std::string hash = fnv1a_hex(sim::schedule_to_json(out.schedule, wf).dump(2) + "\n");
    const std::string key = hash_key(GetParam(), factor);
    if (regenerating()) {
      table[key] = hash;
      continue;
    }
    const auto pinned = table.find(key);
    ASSERT_NE(pinned, table.end()) << "no pinned hash for '" << key
                                   << "' (run with CLOUDWF_GOLDEN_REGEN=1 to create it)";
    EXPECT_EQ(hash, pinned->second) << "schedule diverged for '" << key << "'";
  }
  if (regenerating()) {
    write_hash_table(table);
    GTEST_SKIP() << "regenerated " << hash_table_path();
  }
}

std::vector<HashParam> hash_params() {
  std::vector<HashParam> params;
  for (const SchedulerInfo& info : scheduler_registry()) {
    std::vector<std::size_t> sizes{90, 1000};
    if (info.refining) sizes = {info.name == "cg-plus" ? std::size_t{30} : std::size_t{90}};
    for (const std::size_t tasks : sizes)
      for (const pegasus::WorkflowType type : pegasus::extended_types())
        params.emplace_back(std::string(info.name), type, tasks);
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AtScale, ScheduleHashTest, ::testing::ValuesIn(hash_params()),
                         [](const ::testing::TestParamInfo<HashParam>& info) {
                           std::string name =
                               std::get<0>(info.param) + "_" +
                               std::string(pegasus::to_string(std::get<1>(info.param))) + "_" +
                               std::to_string(std::get<2>(info.param));
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace cloudwf::sched
