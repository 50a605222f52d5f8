#include "dag/io.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/units.hpp"

namespace cloudwf::dag {

std::string to_json(const Workflow& wf) {
  Json::Object root;
  root["name"] = wf.name();

  Json::Array tasks;
  tasks.reserve(wf.task_count());
  for (TaskId t = 0; t < wf.task_count(); ++t) {
    const Task& task = wf.task(t);
    Json::Object jt;
    jt["name"] = task.name;
    if (!task.type.empty()) jt["type"] = task.type;
    jt["mean"] = task.mean_weight;
    jt["stddev"] = task.weight_stddev;
    if (wf.external_input_of(t) > 0) jt["external_in"] = wf.external_input_of(t);
    if (wf.external_output_of(t) > 0) jt["external_out"] = wf.external_output_of(t);
    tasks.emplace_back(std::move(jt));
  }
  root["tasks"] = Json(std::move(tasks));

  Json::Array edges;
  edges.reserve(wf.edge_count());
  for (const Edge& e : wf.edges()) {
    Json::Object je;
    je["src"] = wf.task(e.src).name;
    je["dst"] = wf.task(e.dst).name;
    je["bytes"] = e.bytes;
    edges.emplace_back(std::move(je));
  }
  root["edges"] = Json(std::move(edges));

  return Json(std::move(root)).dump(2);
}

Workflow from_json(const std::string& text) {
  const Json root = Json::parse(text);
  const std::string name =
      root.as_object().contains("name") ? root.at("name").as_string() : "workflow";
  Workflow wf(name);

  for (const Json& jt : root.at("tasks").as_array()) {
    const auto& obj = jt.as_object();
    const std::string type = obj.contains("type") ? jt.at("type").as_string() : std::string{};
    const TaskId id = wf.add_task(jt.at("name").as_string(), jt.at("mean").as_number(),
                                  obj.contains("stddev") ? jt.at("stddev").as_number() : 0.0, type);
    if (const Json* in = obj.find("external_in")) wf.add_external_input(id, in->as_number());
    if (const Json* out = obj.find("external_out")) wf.add_external_output(id, out->as_number());
  }

  if (root.as_object().contains("edges")) {
    for (const Json& je : root.at("edges").as_array()) {
      const TaskId src = wf.find_task(je.at("src").as_string());
      const TaskId dst = wf.find_task(je.at("dst").as_string());
      if (src == invalid_task)
        throw InvalidArgument("from_json: unknown edge source " + je.at("src").as_string());
      if (dst == invalid_task)
        throw InvalidArgument("from_json: unknown edge target " + je.at("dst").as_string());
      wf.add_edge(src, dst, je.at("bytes").as_number());
    }
  }

  wf.freeze();
  return wf;
}

void save_json(const Workflow& wf, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) throw InvalidArgument("save_json: cannot open " + path);
  out << to_json(wf) << '\n';
  if (!out.good()) throw InvalidArgument("save_json: write failed for " + path);
}

Workflow load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw InvalidArgument("load_json: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_json(buffer.str());
}

std::string to_dot(const Workflow& wf) {
  std::ostringstream os;
  os << "digraph \"" << wf.name() << "\" {\n";
  os << "  rankdir=TB;\n  node [shape=box, style=rounded];\n";
  for (TaskId t = 0; t < wf.task_count(); ++t) {
    const Task& task = wf.task(t);
    os << "  t" << t << " [label=\"" << task.name;
    if (!task.type.empty()) os << "\\n" << task.type;
    os << "\\nw=" << task.mean_weight << "\"];\n";
  }
  for (const Edge& e : wf.edges()) {
    os << "  t" << e.src << " -> t" << e.dst << " [label=\"" << e.bytes / units::MB
       << " MB\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace cloudwf::dag
