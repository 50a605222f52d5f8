#pragma once

/// \file schedule.hpp
/// \brief Static schedule representation shared by schedulers and simulator.
///
/// A Schedule maps every workflow task to a provisioned VM instance and fixes
/// the execution order on each VM.  Order is derived from per-task priorities
/// (HEFT's bottom level, or the decision order of MIN-MIN): each VM list is
/// kept sorted by non-increasing priority, so re-assigning a task during the
/// HEFTBUDG+/CG+ refinement loops lands it at a deterministic position.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "dag/task.hpp"
#include "dag/workflow.hpp"
#include "platform/platform.hpp"

namespace cloudwf::sim {

/// Index of a provisioned VM instance within one Schedule.
using VmId = std::uint32_t;

/// Sentinel for "no VM".
inline constexpr VmId invalid_vm = std::numeric_limits<VmId>::max();

/// One provisioned VM: its category and its ordered task list.
struct VmPlan {
  platform::CategoryId category = 0;
  std::vector<dag::TaskId> tasks;  ///< execution order (non-increasing priority)
};

/// Task-to-VM mapping plus per-VM execution order.
class Schedule {
 public:
  /// Creates an empty schedule for a workflow of \p task_count tasks.
  explicit Schedule(std::size_t task_count);

  // ---- construction -------------------------------------------------------

  /// Provisions a new VM of \p category; returns its id.
  VmId add_vm(platform::CategoryId category);

  /// Sets the ordering priority of \p task; must precede its assignment.
  /// Higher priority runs earlier on a VM.  If never set, assignment order
  /// is used (each assignment gets a strictly decreasing default priority).
  void set_priority(dag::TaskId task, double priority);

  /// Assigns \p task to \p vm, inserting by priority; task must be unassigned.
  void assign(dag::TaskId task, VmId vm);

  /// Re-assigns \p task to \p vm (refinement loops); keeps its priority.
  void move(dag::TaskId task, VmId vm);

  // ---- queries -------------------------------------------------------------

  [[nodiscard]] std::size_t task_count() const { return assignment_.size(); }
  [[nodiscard]] std::size_t vm_count() const { return vms_.size(); }
  /// VMs with at least one task.
  [[nodiscard]] std::size_t used_vm_count() const;
  [[nodiscard]] bool assigned(dag::TaskId task) const;
  /// All tasks assigned?
  [[nodiscard]] bool complete() const;
  [[nodiscard]] VmId vm_of(dag::TaskId task) const;
  [[nodiscard]] platform::CategoryId vm_category(VmId vm) const;
  [[nodiscard]] std::span<const dag::TaskId> vm_tasks(VmId vm) const;
  [[nodiscard]] double priority(dag::TaskId task) const;
  /// Where assign/move would insert \p task into \p vm's list: before the
  /// first task of strictly lower priority.  \p task must not be on \p vm.
  [[nodiscard]] std::size_t insert_position(dag::TaskId task, VmId vm) const;

  /// Returns a copy without empty VMs (ids re-numbered).
  [[nodiscard]] Schedule compacted() const;

  /// Structural validation against \p wf: every task assigned, VM categories
  /// in range for \p platform, and same-VM dependent tasks ordered
  /// consistently.  Throws ValidationError on failure.
  void validate(const dag::Workflow& wf, const platform::Platform& platform) const;

 private:
  void insert_ordered(dag::TaskId task, VmId vm);

  std::vector<VmPlan> vms_;
  std::vector<VmId> assignment_;      // per task; invalid_vm when unassigned
  std::vector<double> priority_;      // per task
  std::vector<bool> priority_set_;    // per task
  double next_default_priority_ = 0;  // strictly decreasing default
};

/// Throws the ValidationError Schedule::validate reports when the consumer
/// of \p edge sits before its producer on one VM.
[[noreturn]] void throw_same_vm_order_error(const dag::Workflow& wf, const dag::Edge& edge);

}  // namespace cloudwf::sim
