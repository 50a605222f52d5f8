#include "dag/workflow.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"

namespace cloudwf::dag {

Workflow::Workflow(std::string name) : name_(std::move(name)) {}

// Messages that name a task are only built on failure: construction calls
// these checks once per task and edge, so an eager std::string per check
// would dominate loading a large workflow.

TaskId Workflow::add_task(std::string name, Instructions mean_weight, Instructions weight_stddev,
                          std::string type) {
  require_mutable("add_task");
  require(!name.empty(), "Workflow::add_task: empty task name");
  if (!std::isfinite(mean_weight) || !std::isfinite(weight_stddev))
    throw ValidationError("Workflow::add_task: non-finite weight (" + name + ")");
  if (!(mean_weight > 0))
    throw InvalidArgument("Workflow::add_task: mean weight must be positive (" + name + ")");
  if (weight_stddev < 0)
    throw InvalidArgument("Workflow::add_task: negative weight stddev (" + name + ")");
  if (find_task(name) != invalid_task)
    throw InvalidArgument("Workflow::add_task: duplicate task name " + name);
  tasks_.push_back(Task{std::move(name), std::move(type), mean_weight, weight_stddev});
  external_input_.push_back(0);
  external_output_.push_back(0);
  in_edges_.emplace_back();
  out_edges_.emplace_back();
  return static_cast<TaskId>(tasks_.size() - 1);
}

EdgeId Workflow::add_edge(TaskId src, TaskId dst, Bytes bytes) {
  require_mutable("add_edge");
  require(src < tasks_.size() && dst < tasks_.size(), "Workflow::add_edge: task id out of range");
  if (src == dst) throw InvalidArgument("Workflow::add_edge: self loop on " + tasks_[src].name);
  validate(std::isfinite(bytes), "Workflow::add_edge: non-finite data size");
  require(bytes >= 0, "Workflow::add_edge: negative data size");
  // Adjacency is kept up to date while building, so the multi-edge check
  // walks src's out-edges only.
  for (const EdgeId e : out_edges_[src]) {
    if (edges_[e].dst == dst)
      throw InvalidArgument("Workflow::add_edge: duplicate edge " + tasks_[src].name + " -> " +
                            tasks_[dst].name);
  }
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{src, dst, bytes});
  out_edges_[src].push_back(id);
  in_edges_[dst].push_back(id);
  return id;
}

void Workflow::add_external_input(TaskId task, Bytes bytes) {
  require_mutable("add_external_input");
  require(task < tasks_.size(), "Workflow::add_external_input: task id out of range");
  validate(std::isfinite(bytes), "Workflow::add_external_input: non-finite data size");
  require(bytes >= 0, "Workflow::add_external_input: negative data size");
  external_input_[task] += bytes;
  external_input_total_ += bytes;
}

void Workflow::add_external_output(TaskId task, Bytes bytes) {
  require_mutable("add_external_output");
  require(task < tasks_.size(), "Workflow::add_external_output: task id out of range");
  validate(std::isfinite(bytes), "Workflow::add_external_output: non-finite data size");
  require(bytes >= 0, "Workflow::add_external_output: negative data size");
  external_output_[task] += bytes;
  external_output_total_ += bytes;
}

void Workflow::freeze() {
  require_mutable("freeze");
  validate(!tasks_.empty(), "Workflow::freeze: no tasks");

  const auto n = tasks_.size();
  entries_.clear();
  exits_.clear();
  for (TaskId t = 0; t < n; ++t) {
    if (in_edges_[t].empty()) entries_.push_back(t);
    if (out_edges_[t].empty()) exits_.push_back(t);
  }

  // Kahn's algorithm; detects cycles.
  topo_order_.clear();
  topo_order_.reserve(n);
  std::vector<std::size_t> pending(n);
  std::deque<TaskId> ready(entries_.begin(), entries_.end());
  for (TaskId t = 0; t < n; ++t) pending[t] = in_edges_[t].size();
  while (!ready.empty()) {
    const TaskId t = ready.front();
    ready.pop_front();
    topo_order_.push_back(t);
    for (EdgeId e : out_edges_[t]) {
      const TaskId succ = edges_[e].dst;
      if (--pending[succ] == 0) ready.push_back(succ);
    }
  }
  if (topo_order_.size() != n)
    throw ValidationError("Workflow::freeze: dependency cycle in " + name_);

  total_mean_weight_ = 0;
  total_conservative_weight_ = 0;
  for (const Task& t : tasks_) {
    total_mean_weight_ += t.mean_weight;
    total_conservative_weight_ += t.conservative_weight();
  }
  total_edge_bytes_ = 0;
  for (const Edge& e : edges_) total_edge_bytes_ += e.bytes;

  frozen_ = true;
}

const Task& Workflow::task(TaskId id) const {
  require(id < tasks_.size(), "Workflow::task: id out of range");
  return tasks_[id];
}

const Edge& Workflow::edge(EdgeId id) const {
  require(id < edges_.size(), "Workflow::edge: id out of range");
  return edges_[id];
}

TaskId Workflow::find_task(std::string_view name) const {
  for (TaskId t = 0; t < tasks_.size(); ++t)
    if (tasks_[t].name == name) return t;
  return invalid_task;
}

std::span<const EdgeId> Workflow::in_edges(TaskId task) const {
  require_frozen("in_edges");
  require(task < tasks_.size(), "Workflow::in_edges: id out of range");
  return in_edges_[task];
}

std::span<const EdgeId> Workflow::out_edges(TaskId task) const {
  require_frozen("out_edges");
  require(task < tasks_.size(), "Workflow::out_edges: id out of range");
  return out_edges_[task];
}

std::span<const TaskId> Workflow::entry_tasks() const {
  require_frozen("entry_tasks");
  return entries_;
}

std::span<const TaskId> Workflow::exit_tasks() const {
  require_frozen("exit_tasks");
  return exits_;
}

std::span<const TaskId> Workflow::topological_order() const {
  require_frozen("topological_order");
  return topo_order_;
}

Bytes Workflow::external_input_of(TaskId task) const {
  require(task < tasks_.size(), "Workflow::external_input_of: id out of range");
  return external_input_[task];
}

Bytes Workflow::external_output_of(TaskId task) const {
  require(task < tasks_.size(), "Workflow::external_output_of: id out of range");
  return external_output_[task];
}

Bytes Workflow::predecessor_bytes(TaskId task) const {
  require_frozen("predecessor_bytes");
  require(task < tasks_.size(), "Workflow::predecessor_bytes: id out of range");
  Bytes total = 0;
  for (EdgeId e : in_edges_[task]) total += edges_[e].bytes;
  return total;
}

void Workflow::require_frozen(const char* fn) const {
  if (!frozen_) throw InvalidArgument(std::string("Workflow::") + fn + ": workflow not frozen");
}

void Workflow::require_mutable(const char* fn) const {
  if (frozen_)
    throw InvalidArgument(std::string("Workflow::") + fn + ": workflow already frozen");
}

}  // namespace cloudwf::dag
