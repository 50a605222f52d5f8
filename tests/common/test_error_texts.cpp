/// \file test_error_texts.cpp
/// \brief Exact one-line texts of the library's input and precondition errors.
///
/// Each message below is composed from run-time values (a name, a key, an
/// offset), so its text is easy to change by accident when the check that
/// builds it is rewritten.  One site of every composed kind is pinned here,
/// together with the exception type it throws.

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/xml.hpp"
#include "dag/dax.hpp"
#include "dag/io.hpp"
#include "dag/workflow.hpp"
#include "platform/io.hpp"
#include "sim/schedule.hpp"
#include "sim/schedule_io.hpp"
#include "testing/helpers.hpp"

namespace cloudwf {
namespace {

/// Runs \p fn and returns the what() of the \p E it throws; any other
/// exception escapes and fails the test.
template <class E, class Fn>
std::string error_text(Fn&& fn) {
  try {
    fn();
  } catch (const E& error) {
    return error.what();
  }
  ADD_FAILURE() << "no exception thrown";
  return {};
}

TEST(ErrorText, WorkflowAccessorBeforeFreeze) {
  dag::Workflow wf("w");
  wf.add_task("A", 1.0, 0.0);
  EXPECT_STREQ(error_text<InvalidArgument>([&] { (void)wf.in_edges(0); }).c_str(),
               "Workflow::in_edges: workflow not frozen");
}

TEST(ErrorText, WorkflowMutationAfterFreeze) {
  dag::Workflow wf = testing::chain3();
  EXPECT_STREQ(error_text<InvalidArgument>([&] { wf.add_task("D", 1.0, 0.0); }).c_str(),
               "Workflow::add_task: workflow already frozen");
}

TEST(ErrorText, WorkflowFreezeCycle) {
  dag::Workflow wf("loop");
  const dag::TaskId a = wf.add_task("A", 1.0, 0.0);
  const dag::TaskId b = wf.add_task("B", 1.0, 0.0);
  wf.add_edge(a, b, 0.0);
  wf.add_edge(b, a, 0.0);
  EXPECT_STREQ(error_text<ValidationError>([&] { wf.freeze(); }).c_str(),
               "Workflow::freeze: dependency cycle in loop");
}

TEST(ErrorText, ScheduleValidateSameVmOrder) {
  const auto wf = testing::chain3();
  const auto platform = testing::toy_platform();
  sim::Schedule s(3);
  const sim::VmId vm = s.add_vm(0);
  s.set_priority(0, 1.0);
  s.set_priority(1, 2.0);
  s.set_priority(2, 0.5);
  s.assign(0, vm);
  s.assign(1, vm);
  s.assign(2, vm);
  EXPECT_STREQ(error_text<ValidationError>([&] { s.validate(wf, platform); }).c_str(),
               "Schedule::validate: task B ordered before its same-VM predecessor A");
}

TEST(ErrorText, JsonMissingKey) {
  const Json doc = Json::parse(R"({"a": 1})");
  EXPECT_STREQ(error_text<InvalidArgument>([&] { (void)doc.at("tasks"); }).c_str(),
               "Json: missing key 'tasks'");
}

TEST(ErrorText, JsonParseExpectedCharacter) {
  EXPECT_STREQ(error_text<InvalidArgument>([] { (void)Json::parse(R"({"a"1})"); }).c_str(),
               "Json::parse: expected ':' at offset 4");
  EXPECT_STREQ(error_text<InvalidArgument>([] { (void)Json::parse("[1 2]"); }).c_str(),
               "Json::parse: expected ']' at offset 3");
}

TEST(ErrorText, JsonParseLiteralMessage) {
  EXPECT_STREQ(error_text<InvalidArgument>([] { (void)Json::parse("[1, 2"); }).c_str(),
               "Json::parse: unexpected end of input at offset 5");
  EXPECT_STREQ(error_text<InvalidArgument>([] { (void)Json::parse(R"("a\q")"); }).c_str(),
               "Json::parse: invalid escape character at offset 4");
}

TEST(ErrorText, XmlMismatchedEndTag) {
  EXPECT_STREQ(error_text<InvalidArgument>([] { (void)parse_xml("<a><b></a>"); }).c_str(),
               "parse_xml: mismatched end tag </a> for <b> at offset 9");
}

TEST(ErrorText, XmlUnterminatedElement) {
  EXPECT_STREQ(error_text<InvalidArgument>([] { (void)parse_xml("<a>text"); }).c_str(),
               "parse_xml: unterminated element <a> at offset 3");
  EXPECT_STREQ(error_text<InvalidArgument>([] { (void)parse_xml("<a>&bogus;</a>"); }).c_str(),
               "parse_xml: unknown entity '&bogus;' at offset 3");
}

TEST(ErrorText, XmlMissingAttribute) {
  const XmlElement root = parse_xml(R"(<job name="x"/>)");
  EXPECT_STREQ(error_text<InvalidArgument>([&] { (void)root.attribute("id"); }).c_str(),
               "XmlElement: <job> has no attribute 'id'");
}

TEST(ErrorText, DaxDuplicateJobId) {
  const std::string dax =
      R"(<adag><job id="J1" runtime="1"/><job id="J1" runtime="2"/></adag>)";
  EXPECT_STREQ(error_text<InvalidArgument>([&] { (void)dag::from_dax(dax); }).c_str(),
               "from_dax: duplicate job id J1");
}

TEST(ErrorText, DaxInvalidNumber) {
  const std::string dax = R"(<adag><job id="J1" runtime="1.5s"/></adag>)";
  EXPECT_STREQ(error_text<InvalidArgument>([&] { (void)dag::from_dax(dax); }).c_str(),
               "from_dax: invalid runtime '1.5s'");
}

TEST(ErrorText, DaxUnknownReference) {
  const std::string dax =
      R"(<adag><job id="J1" runtime="1"/><child ref="J1"><parent ref="J9"/></child></adag>)";
  EXPECT_STREQ(error_text<InvalidArgument>([&] { (void)dag::from_dax(dax); }).c_str(),
               "from_dax: <parent ref> to unknown job J9");
}

TEST(ErrorText, DagJsonUnknownEdgeEndpoint) {
  const std::string doc =
      R"({"tasks": [{"name": "A", "mean": 1}], "edges": [{"src": "A", "dst": "Z", "bytes": 0}]})";
  EXPECT_STREQ(error_text<InvalidArgument>([&] { (void)dag::from_json(doc); }).c_str(),
               "from_json: unknown edge target Z");
}

TEST(ErrorText, LoadersCannotOpen) {
  EXPECT_STREQ(
      error_text<InvalidArgument>([] { (void)dag::load_json("/nonexistent/wf.json"); }).c_str(),
      "load_json: cannot open /nonexistent/wf.json");
  EXPECT_STREQ(
      error_text<InvalidArgument>([] { (void)dag::load_dax("/nonexistent/wf.dax"); }).c_str(),
      "load_dax: cannot open /nonexistent/wf.dax");
  EXPECT_STREQ(error_text<InvalidArgument>([] {
                 (void)platform::load_json("/nonexistent/platform.json");
               }).c_str(),
               "platform::load_json: cannot open /nonexistent/platform.json");
}

TEST(ErrorText, ScheduleJsonUnknownTask) {
  const auto wf = testing::chain3();
  const Json doc = Json::parse(
      R"({"schema": "cloudwf-schedule", "version": 1, "task_count": 3,
          "vms": [{"category": 0, "tasks": ["A", "Q"], "priorities": [1, 2]}]})");
  EXPECT_STREQ(error_text<ValidationError>([&] { (void)sim::schedule_from_json(doc, wf); }).c_str(),
               "schedule json: unknown task 'Q'");
}

}  // namespace
}  // namespace cloudwf
