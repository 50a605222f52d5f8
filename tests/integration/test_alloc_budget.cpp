/// \file test_alloc_budget.cpp
/// \brief Heap-allocation budgets of the simulator and the workflow parsers.
///
/// A passing precondition must cost one branch and no allocation (see
/// common/error.hpp).  These tests count the heap allocations of one
/// conservative simulation and of parsing a 1000-task workflow, and hold
/// each under a committed bound, so a check that starts composing its
/// message on every call shows up here as a deterministic count rather
/// than as a few percent of noisy wall time.
///
/// Counts before messages were built only on failure and after it (gcc 12,
/// libstdc++, Release; bounds in parentheses):
///   run_conservative, 90-task CyberShake heft-budg:    3,772 ->    427 (500)
///   dag::from_json, 1000-task CyberShake:            649,701 -> 13,715 (25,000)
///   dag::from_dax, the same instance:                426,885 -> 47,079 (51,500)
///
/// The counter replaces the global operator new, which is why this file is
/// its own test executable.  Under AddressSanitizer or ThreadSanitizer the
/// sanitizer owns operator new, so the count comes from its allocation hook
/// instead (that hook also sees plain malloc calls, which these paths do
/// not make).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#include "dag/dax.hpp"
#include "dag/io.hpp"
#include "exp/budget_levels.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CLOUDWF_ALLOC_HOOK 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CLOUDWF_ALLOC_HOOK 1
#endif
#endif

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

#ifdef CLOUDWF_ALLOC_HOOK
// Declared here rather than through <sanitizer/allocator_interface.h>,
// which gcc does not ship; both runtimes export it.
extern "C" int __sanitizer_install_malloc_and_free_hooks(
    void (*malloc_hook)(const volatile void*, std::size_t),
    void (*free_hook)(const volatile void*));

namespace {
void count_malloc(const volatile void* /*ptr*/, std::size_t /*size*/) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
}
void ignore_free(const volatile void* /*ptr*/) {}
[[maybe_unused]] const int g_hooks_installed =
    __sanitizer_install_malloc_and_free_hooks(&count_malloc, &ignore_free);
}  // namespace
#else
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t /*size*/) noexcept { std::free(ptr); }
#endif

namespace cloudwf {
namespace {

/// Heap allocations made while running \p fn.
template <class Fn>
std::size_t allocations_of(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocBudget, ConservativeRunOf90TaskCyberShake) {
  sim::set_post_run_check(nullptr);
  const dag::Workflow wf = pegasus::generate(pegasus::WorkflowType::cybershake, {90, 1, 0.5});
  const platform::Platform platform = platform::paper_platform();
  const Dollars budget = exp::compute_budget_levels(wf, platform).medium;
  const sched::SchedulerOutput out =
      sched::make_scheduler("heft-budg")->schedule({wf, platform, budget});
  const sim::Simulator simulator(wf, platform);
  const Seconds warm = simulator.run_conservative(out.schedule).makespan;

  Seconds makespan = 0;
  const std::size_t count =
      allocations_of([&] { makespan = simulator.run_conservative(out.schedule).makespan; });
  RecordProperty("allocations", std::to_string(count));
  EXPECT_EQ(makespan, warm);
  EXPECT_GT(count, 0u) << "the allocation counter is not wired";
  EXPECT_LE(count, 500u);
}

class ParseBudget : public ::testing::Test {
 protected:
  const dag::Workflow wf_ =
      pegasus::generate(pegasus::WorkflowType::cybershake, {1000, 1, 0.5});
};

TEST_F(ParseBudget, FromJsonOf1000TaskCyberShake) {
  const std::string text = dag::to_json(wf_);
  std::size_t tasks = 0;
  const std::size_t count = allocations_of([&] { tasks = dag::from_json(text).task_count(); });
  RecordProperty("allocations", std::to_string(count));
  EXPECT_EQ(tasks, wf_.task_count());
  EXPECT_LE(count, 25'000u);
}

TEST_F(ParseBudget, FromDaxOf1000TaskCyberShake) {
  const std::string text = dag::to_dax(wf_);
  std::size_t tasks = 0;
  const std::size_t count = allocations_of([&] { tasks = dag::from_dax(text).task_count(); });
  RecordProperty("allocations", std::to_string(count));
  EXPECT_EQ(tasks, wf_.task_count());
  EXPECT_LE(count, 51'500u);
}

}  // namespace
}  // namespace cloudwf
