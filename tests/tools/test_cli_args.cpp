/// \file test_cli_args.cpp
/// \brief Unit tests for the command-line parser (tools/cli_args.hpp).

#include "cli_args.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace cloudwf::cli {
namespace {

Args parse(std::vector<const char*> argv, const std::set<std::string>& switches = {}) {
  argv.insert(argv.begin(), "cloudwf");
  return Args(static_cast<int>(argv.size()), const_cast<char**>(argv.data()), switches);
}

TEST(CliArgs, ParsesCommandAndPositionals) {
  const Args args = parse({"convert", "in.json", "out.dax"});
  EXPECT_EQ(args.command(), "convert");
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional_at(0, "in"), "in.json");
  EXPECT_EQ(args.positional_at(1, "out"), "out.dax");
}

TEST(CliArgs, ParsesFlagsWithValues) {
  const Args args = parse({"generate", "--type", "ligo", "--tasks", "60", "--sigma", "0.75"});
  EXPECT_EQ(args.get("type", "x"), "ligo");
  EXPECT_EQ(args.get_size("tasks", 0), 60u);
  EXPECT_DOUBLE_EQ(args.get_double("sigma", 0), 0.75);
  EXPECT_TRUE(args.has("type"));
  EXPECT_FALSE(args.has("seed"));
}

TEST(CliArgs, DefaultsApplyWhenAbsent) {
  const Args args = parse({"generate"});
  EXPECT_EQ(args.get("type", "montage"), "montage");
  EXPECT_EQ(args.get_size("tasks", 90), 90u);
  EXPECT_DOUBLE_EQ(args.get_double("sigma", 0.5), 0.5);
}

TEST(CliArgs, SwitchesTakeNoValue) {
  const Args args = parse({"simulate", "wf.json", "--online", "--reps", "5"}, {"online"});
  EXPECT_TRUE(args.has("online"));
  EXPECT_EQ(args.get_size("reps", 0), 5u);
  EXPECT_EQ(args.positional_at(0, "wf"), "wf.json");
}

TEST(CliArgs, MissingValueRejected) {
  EXPECT_THROW(parse({"generate", "--type"}), InvalidArgument);
}

TEST(CliArgs, MissingPositionalRejected) {
  const Args args = parse({"info"});
  EXPECT_THROW((void)args.positional_at(0, "workflow"), InvalidArgument);
}

TEST(CliArgs, GetListSplitsOnCommas) {
  const Args args = parse({"sweep", "wf.json", "--algorithms", "heft,heft-budg,cg"});
  const auto list = args.get_list("algorithms", "");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "heft");
  EXPECT_EQ(list[2], "cg");
}

TEST(CliArgs, GetListDefaultAndEmptyEntries) {
  const Args args = parse({"sweep", "wf.json"});
  EXPECT_EQ(args.get_list("algorithms", "a,b").size(), 2u);
  const Args trailing = parse({"sweep", "--algorithms", "a,,b,"});
  EXPECT_EQ(trailing.get_list("algorithms", "").size(), 2u);  // empties dropped
}

/// The InvalidArgument text \p read throws on \p args, or "accepted".
template <class Read>
std::string rejection(const Args& args, Read read) {
  try {
    (void)read(args);
  } catch (const InvalidArgument& error) {
    return error.what();
  }
  return "accepted";
}

TEST(CliArgs, SizeFlagsRejectWhatIsNotACount) {
  const auto reps = [](const Args& args) { return args.get_size("reps", 0); };
  EXPECT_EQ(rejection(parse({"simulate", "--reps", "-1"}), reps),
            "--reps: expected a non-negative integer, got '-1'");
  EXPECT_EQ(rejection(parse({"simulate", "--reps", "abc"}), reps),
            "--reps: expected a non-negative integer, got 'abc'");
  EXPECT_EQ(rejection(parse({"simulate", "--reps", "12x"}), reps),
            "--reps: expected a non-negative integer, got '12x'");
  EXPECT_EQ(rejection(parse({"simulate", "--reps", ""}), reps),
            "--reps: expected a non-negative integer, got ''");
  EXPECT_EQ(rejection(parse({"simulate", "--reps", " 5"}), reps),
            "--reps: expected a non-negative integer, got ' 5'");
  EXPECT_EQ(rejection(parse({"simulate", "--reps", "99999999999999999999"}), reps),
            "--reps: '99999999999999999999' is out of range");
}

TEST(CliArgs, SizeFlagsAcceptTheFullRange) {
  EXPECT_EQ(parse({"simulate", "--reps", "0"}).get_size("reps", 7), 0u);
  EXPECT_EQ(parse({"simulate", "--seed", "18446744073709551615"}).get_size("seed", 0),
            18446744073709551615u);
}

TEST(CliArgs, DoubleFlagsRejectWhatIsNotAFiniteNumber) {
  const auto sigma = [](const Args& args) { return args.get_double("sigma", 0); };
  for (const char* text : {"nan", "inf", "-inf", "abc", "0.5x", "", "1,5"})
    EXPECT_EQ(rejection(parse({"generate", "--sigma", text}), sigma),
              std::string("--sigma: expected a finite number, got '") + text + "'")
        << text;
  EXPECT_EQ(rejection(parse({"generate", "--sigma", "1e999"}), sigma),
            "--sigma: '1e999' is out of range");
}

TEST(CliArgs, DoubleFlagsAcceptSignedAndScientificValues) {
  EXPECT_DOUBLE_EQ(parse({"simulate", "--budget", "-2.5"}).get_double("budget", 0), -2.5);
  EXPECT_DOUBLE_EQ(parse({"simulate", "--budget", "1e-3"}).get_double("budget", 0), 1e-3);
  EXPECT_DOUBLE_EQ(parse({"simulate", "--budget", ".5"}).get_double("budget", 0), 0.5);
}

TEST(CliArgs, ThreadsAboveTheCeilingRejected) {
  const auto threads = [](const Args& args) { return args.get_threads(1); };
  EXPECT_EQ(parse({"sweep", "--threads", "1024"}).get_threads(1), max_threads);
  EXPECT_EQ(parse({"sweep", "--threads", "0"}).get_threads(1), 0u);  // hardware concurrency
  EXPECT_EQ(parse({"sweep"}).get_threads(1), 1u);
  EXPECT_EQ(rejection(parse({"sweep", "--threads", "1025"}), threads),
            "--threads: 1025 exceeds the limit of 1024");
  EXPECT_EQ(rejection(parse({"sweep", "--threads", "-4"}), threads),
            "--threads: expected a non-negative integer, got '-4'");
}

TEST(CliArgs, EmptyCommandLine) {
  const Args args = parse({});
  EXPECT_TRUE(args.command().empty());
}

}  // namespace
}  // namespace cloudwf::cli
