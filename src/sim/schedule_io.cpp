#include "sim/schedule_io.hpp"

#include <fstream>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/error.hpp"

namespace cloudwf::sim {

namespace {

double field_number(const Json::Object& object, std::string_view key, const char* where) {
  const Json* value = object.find(key);
  if (value == nullptr || !value->is_number())
    throw ValidationError("schedule json: " + std::string(where) + " needs numeric '" +
                          std::string(key) + "'");
  return value->as_number();
}

}  // namespace

Json schedule_to_json(const Schedule& schedule, const dag::Workflow& wf) {
  require(wf.task_count() == schedule.task_count(),
          "schedule_to_json: schedule size differs from workflow");
  Json::Object root;
  root["schema"] = "cloudwf-schedule";
  root["version"] = 1;
  root["workflow"] = wf.name();
  root["task_count"] = schedule.task_count();
  Json::Array vms;
  for (VmId v = 0; v < schedule.vm_count(); ++v) {
    Json::Object vm;
    vm["category"] = static_cast<std::size_t>(schedule.vm_category(v));
    Json::Array tasks;
    Json::Array priorities;
    for (const dag::TaskId t : schedule.vm_tasks(v)) {
      tasks.push_back(Json(wf.task(t).name));
      priorities.push_back(Json(schedule.priority(t)));
    }
    vm["tasks"] = Json(std::move(tasks));
    vm["priorities"] = Json(std::move(priorities));
    vms.push_back(Json(std::move(vm)));
  }
  root["vms"] = Json(std::move(vms));
  return Json(std::move(root));
}

Schedule schedule_from_json(const Json& json, const dag::Workflow& wf) {
  cloudwf::validate(json.is_object(), "schedule json: root must be an object");
  const Json::Object& root = json.as_object();
  const Json* schema = root.find("schema");
  cloudwf::validate(schema != nullptr && schema->is_string() &&
                        schema->as_string() == "cloudwf-schedule",
                    "schedule json: missing schema marker 'cloudwf-schedule'");
  const auto task_count = json_unsigned<std::size_t>(field_number(root, "task_count", "root"),
                                                     "schedule json: task_count");
  cloudwf::validate(task_count == wf.task_count(),
                    "schedule json: task_count differs from the workflow");

  Schedule schedule(wf.task_count());
  const Json* vms = root.find("vms");
  cloudwf::validate(vms != nullptr && vms->is_array(), "schedule json: 'vms' must be an array");
  for (const Json& vm_json : vms->as_array()) {
    cloudwf::validate(vm_json.is_object(), "schedule json: vm entry must be an object");
    const Json::Object& vm_object = vm_json.as_object();
    const VmId vm = schedule.add_vm(json_unsigned<platform::CategoryId>(
        field_number(vm_object, "category", "vm entry"), "schedule json: vm category"));

    const Json* tasks = vm_object.find("tasks");
    cloudwf::validate(tasks != nullptr && tasks->is_array(),
                      "schedule json: vm entry needs a 'tasks' array");
    const Json* priorities = vm_object.find("priorities");
    cloudwf::validate(priorities != nullptr && priorities->is_array() &&
                          priorities->as_array().size() == tasks->as_array().size(),
                      "schedule json: 'priorities' must parallel 'tasks'");
    for (std::size_t i = 0; i < tasks->as_array().size(); ++i) {
      const Json& name = tasks->as_array()[i];
      cloudwf::validate(name.is_string(), "schedule json: task names must be strings");
      const dag::TaskId task = wf.find_task(name.as_string());
      if (task == dag::invalid_task)
        throw ValidationError("schedule json: unknown task '" + name.as_string() + "'");
      if (schedule.assigned(task))
        throw ValidationError("schedule json: task '" + name.as_string() + "' assigned twice");
      const Json& priority = priorities->as_array()[i];
      cloudwf::validate(priority.is_number(), "schedule json: priorities must be numbers");
      schedule.set_priority(task, priority.as_number());
      schedule.assign(task, vm);
    }
  }
  return schedule;
}

void save_schedule_json(const Schedule& schedule, const dag::Workflow& wf,
                        const std::string& path) {
  write_file_atomic(path, schedule_to_json(schedule, wf).dump(2) + "\n");
}

Schedule load_schedule_json(const std::string& path, const dag::Workflow& wf) {
  std::ifstream in(path);
  if (!in.good()) throw IoError("cannot open schedule file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return schedule_from_json(Json::parse(buffer.str()), wf);
}

}  // namespace cloudwf::sim
