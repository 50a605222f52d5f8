#include "dag/dax.hpp"

#include <array>
#include <charconv>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/xml.hpp"

namespace cloudwf::dag {

namespace {

std::string format_number(double value) {
  std::array<char, 32> buf{};
  const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), value);
  CLOUDWF_ASSERT(ec == std::errc{});
  return std::string(buf.data(), ptr);
}

double parse_number(const std::string& text, const char* what) {
  double value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    throw InvalidArgument("from_dax: invalid " + std::string(what) + " '" + text + "'");
  return value;
}

struct JobFiles {
  // file name -> bytes, per direction
  std::map<std::string, Bytes> inputs;
  std::map<std::string, Bytes> outputs;
};

}  // namespace

Workflow from_dax(const std::string& text, const DaxOptions& options) {
  require(options.reference_speed > 0, "from_dax: reference_speed must be positive");
  require(options.stddev_ratio >= 0, "from_dax: negative stddev_ratio");

  const XmlElement root = parse_xml(text);
  require(root.local_name() == "adag", "from_dax: root element is not <adag>");

  Workflow wf(root.attribute_or("name", "dax-workflow"));

  // Pass 1: jobs.
  std::map<std::string, TaskId> by_id;
  std::vector<JobFiles> files;
  for (const XmlElement* job : root.children_named("job")) {
    const std::string& id = job->attribute("id");
    if (by_id.contains(id)) throw InvalidArgument("from_dax: duplicate job id " + id);
    const double runtime = parse_number(job->attribute_or("runtime", "1"), "runtime");
    const Instructions mean =
        std::max(options.min_weight, runtime * options.reference_speed);
    const TaskId task = wf.add_task(id, mean, options.stddev_ratio * mean,
                                    job->attribute_or("name", ""));
    by_id.emplace(id, task);

    JobFiles jf;
    for (const XmlElement* uses : job->children_named("uses")) {
      const std::string file = uses->attribute_or("file", uses->attribute_or("name", ""));
      if (file.empty())
        throw InvalidArgument("from_dax: <uses> without a file name in job " + id);
      const Bytes size = parse_number(uses->attribute_or("size", "0"), "file size");
      const std::string link = uses->attribute_or("link", "input");
      if (link == "output")
        jf.outputs[file] += size;
      else
        jf.inputs[file] += size;
    }
    files.push_back(std::move(jf));
  }
  require(wf.task_count() > 0, "from_dax: no <job> elements");

  // Pass 2: dependencies with data matching.
  std::set<std::pair<TaskId, TaskId>> seen;
  for (const XmlElement* child : root.children_named("child")) {
    const std::string& child_id = child->attribute("ref");
    const auto child_it = by_id.find(child_id);
    if (child_it == by_id.end())
      throw InvalidArgument("from_dax: <child ref> to unknown job " + child_id);
    for (const XmlElement* parent : child->children_named("parent")) {
      const std::string& parent_id = parent->attribute("ref");
      const auto parent_it = by_id.find(parent_id);
      if (parent_it == by_id.end())
        throw InvalidArgument("from_dax: <parent ref> to unknown job " + parent_id);
      const TaskId src = parent_it->second;
      const TaskId dst = child_it->second;
      if (!seen.insert({src, dst}).second) continue;  // duplicate declaration

      // Edge payload: the parent's output files the child reads.
      Bytes bytes = 0;
      for (const auto& [file, size] : files[src].outputs) {
        const auto used = files[dst].inputs.find(file);
        if (used != files[dst].inputs.end()) bytes += std::max(size, used->second);
      }
      wf.add_edge(src, dst, bytes);
    }
  }

  // Pass 3: external I/O — files without a producer/consumer inside the DAG.
  std::map<std::string, std::size_t> producers;  // file -> producing job count
  std::map<std::string, std::size_t> consumers;
  for (const JobFiles& jf : files) {
    for (const auto& [file, size] : jf.outputs) ++producers[file];
    for (const auto& [file, size] : jf.inputs) ++consumers[file];
  }
  for (TaskId t = 0; t < wf.task_count(); ++t) {
    for (const auto& [file, size] : files[t].inputs)
      if (!producers.contains(file)) wf.add_external_input(t, size);
    for (const auto& [file, size] : files[t].outputs)
      if (!consumers.contains(file)) wf.add_external_output(t, size);
  }

  wf.freeze();
  return wf;
}

Workflow load_dax(const std::string& path, const DaxOptions& options) {
  std::ifstream in(path);
  if (!in.good()) throw InvalidArgument("load_dax: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_dax(buffer.str(), options);
}

std::string to_dax(const Workflow& wf, InstrPerSec reference_speed) {
  require(reference_speed > 0, "to_dax: reference_speed must be positive");
  XmlElement adag("adag");
  adag.add_attribute("xmlns", "http://pegasus.isi.edu/schema/DAX");
  adag.add_attribute("version", "3.3");
  adag.add_attribute("name", wf.name());
  adag.add_attribute("jobCount", std::to_string(wf.task_count()));

  const auto edge_file = [&](EdgeId e) {
    return "edge_" + std::to_string(e) + ".dat";
  };

  for (TaskId t = 0; t < wf.task_count(); ++t) {
    const Task& task = wf.task(t);
    XmlElement& job = adag.add_child("job");
    job.add_attribute("id", task.name);
    if (!task.type.empty()) job.add_attribute("name", task.type);
    job.add_attribute("runtime", format_number(task.mean_weight / reference_speed));

    const auto add_uses = [&](const std::string& file, Bytes size, const char* link) {
      XmlElement& uses = job.add_child("uses");
      uses.add_attribute("file", file);
      uses.add_attribute("link", link);
      uses.add_attribute("size", format_number(size));
    };

    if (wf.external_input_of(t) > 0)
      add_uses("external_in_" + std::to_string(t) + ".dat", wf.external_input_of(t), "input");
    for (EdgeId e : wf.in_edges(t)) add_uses(edge_file(e), wf.edge(e).bytes, "input");
    for (EdgeId e : wf.out_edges(t)) add_uses(edge_file(e), wf.edge(e).bytes, "output");
    if (wf.external_output_of(t) > 0)
      add_uses("external_out_" + std::to_string(t) + ".dat", wf.external_output_of(t), "output");
  }

  for (TaskId t = 0; t < wf.task_count(); ++t) {
    if (wf.in_edges(t).empty()) continue;
    XmlElement& child = adag.add_child("child");
    child.add_attribute("ref", wf.task(t).name);
    for (EdgeId e : wf.in_edges(t)) {
      XmlElement& parent = child.add_child("parent");
      parent.add_attribute("ref", wf.task(wf.edge(e).src).name);
    }
  }

  return "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n" + adag.dump();
}

void save_dax(const Workflow& wf, const std::string& path, InstrPerSec reference_speed) {
  std::ofstream out(path);
  if (!out.good()) throw InvalidArgument("save_dax: cannot open " + path);
  out << to_dax(wf, reference_speed);
  if (!out.good()) throw InvalidArgument("save_dax: write failed for " + path);
}

}  // namespace cloudwf::dag
