#include "sim/schedule.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cloudwf::sim {

Schedule::Schedule(std::size_t task_count)
    : assignment_(task_count, invalid_vm),
      priority_(task_count, 0.0),
      priority_set_(task_count, false) {}

VmId Schedule::add_vm(platform::CategoryId category) {
  vms_.push_back(VmPlan{category, {}});
  return static_cast<VmId>(vms_.size() - 1);
}

void Schedule::set_priority(dag::TaskId task, double priority) {
  require(task < assignment_.size(), "Schedule::set_priority: task out of range");
  require(assignment_[task] == invalid_vm, "Schedule::set_priority: task already assigned");
  priority_[task] = priority;
  priority_set_[task] = true;
}

void Schedule::assign(dag::TaskId task, VmId vm) {
  require(task < assignment_.size(), "Schedule::assign: task out of range");
  require(vm < vms_.size(), "Schedule::assign: vm out of range");
  require(assignment_[task] == invalid_vm, "Schedule::assign: task already assigned");
  if (!priority_set_[task]) {
    next_default_priority_ -= 1.0;
    priority_[task] = next_default_priority_;
    priority_set_[task] = true;
  }
  assignment_[task] = vm;
  insert_ordered(task, vm);
}

void Schedule::move(dag::TaskId task, VmId vm) {
  require(task < assignment_.size(), "Schedule::move: task out of range");
  require(vm < vms_.size(), "Schedule::move: vm out of range");
  require(assignment_[task] != invalid_vm, "Schedule::move: task not assigned yet");
  auto& old_tasks = vms_[assignment_[task]].tasks;
  old_tasks.erase(std::find(old_tasks.begin(), old_tasks.end(), task));
  assignment_[task] = vm;
  insert_ordered(task, vm);
}

std::size_t Schedule::used_vm_count() const {
  std::size_t used = 0;
  for (const VmPlan& vm : vms_)
    if (!vm.tasks.empty()) ++used;
  return used;
}

bool Schedule::assigned(dag::TaskId task) const {
  require(task < assignment_.size(), "Schedule::assigned: task out of range");
  return assignment_[task] != invalid_vm;
}

bool Schedule::complete() const {
  return std::all_of(assignment_.begin(), assignment_.end(),
                     [](VmId vm) { return vm != invalid_vm; });
}

VmId Schedule::vm_of(dag::TaskId task) const {
  require(task < assignment_.size(), "Schedule::vm_of: task out of range");
  require(assignment_[task] != invalid_vm, "Schedule::vm_of: task not assigned");
  return assignment_[task];
}

platform::CategoryId Schedule::vm_category(VmId vm) const {
  require(vm < vms_.size(), "Schedule::vm_category: vm out of range");
  return vms_[vm].category;
}

std::span<const dag::TaskId> Schedule::vm_tasks(VmId vm) const {
  require(vm < vms_.size(), "Schedule::vm_tasks: vm out of range");
  return vms_[vm].tasks;
}

double Schedule::priority(dag::TaskId task) const {
  require(task < assignment_.size(), "Schedule::priority: task out of range");
  return priority_[task];
}

Schedule Schedule::compacted() const {
  Schedule out(assignment_.size());
  out.priority_ = priority_;
  out.priority_set_ = priority_set_;
  out.next_default_priority_ = next_default_priority_;
  std::vector<VmId> remap(vms_.size(), invalid_vm);
  for (VmId vm = 0; vm < vms_.size(); ++vm) {
    if (vms_[vm].tasks.empty()) continue;
    remap[vm] = out.add_vm(vms_[vm].category);
    out.vms_[remap[vm]].tasks = vms_[vm].tasks;
  }
  for (std::size_t t = 0; t < assignment_.size(); ++t)
    if (assignment_[t] != invalid_vm) out.assignment_[t] = remap[assignment_[t]];
  return out;
}

void Schedule::validate(const dag::Workflow& wf, const platform::Platform& platform) const {
  cloudwf::validate(wf.task_count() == assignment_.size(),
                    "Schedule::validate: task count differs from workflow");
  cloudwf::validate(complete(), "Schedule::validate: unassigned tasks remain");
  for (const VmPlan& vm : vms_)
    cloudwf::validate(vm.category < platform.category_count(),
                      "Schedule::validate: VM category out of range");

  // Same-VM dependencies must appear in producer-before-consumer order.
  std::vector<std::size_t> position(wf.task_count(), 0);
  for (const VmPlan& vm : vms_)
    for (std::size_t i = 0; i < vm.tasks.size(); ++i) position[vm.tasks[i]] = i;
  for (const dag::Edge& e : wf.edges()) {
    if (assignment_[e.src] == assignment_[e.dst] && position[e.src] >= position[e.dst])
      throw_same_vm_order_error(wf, e);
  }
}

std::size_t Schedule::insert_position(dag::TaskId task, VmId vm) const {
  require(vm < vms_.size(), "Schedule::insert_position: vm out of range");
  const auto& tasks = vms_[vm].tasks;
  // Keep the list sorted by non-increasing priority; equal priorities keep
  // insertion order (stable), which makes refinement moves deterministic.
  const auto it = std::find_if(tasks.begin(), tasks.end(), [&](dag::TaskId other) {
    return priority_[other] < priority_[task];
  });
  return static_cast<std::size_t>(it - tasks.begin());
}

void Schedule::insert_ordered(dag::TaskId task, VmId vm) {
  auto& tasks = vms_[vm].tasks;
  tasks.insert(tasks.begin() + static_cast<std::ptrdiff_t>(insert_position(task, vm)), task);
}

void throw_same_vm_order_error(const dag::Workflow& wf, const dag::Edge& edge) {
  throw ValidationError("Schedule::validate: task " + wf.task(edge.dst).name +
                        " ordered before its same-VM predecessor " + wf.task(edge.src).name);
}

}  // namespace cloudwf::sim
