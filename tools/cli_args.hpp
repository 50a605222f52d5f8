#pragma once

/// \file cli_args.hpp
/// \brief Tiny command-line parser for the cloudwf tool.
///
/// Grammar: `cloudwf <command> [positional...] [--flag value | --switch]`.
/// Flags may appear anywhere after the command; unknown flags are errors so
/// typos fail loudly.

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace cloudwf::cli {

/// Parsed command line.
class Args {
 public:
  /// \p switches lists flags that take no value.
  Args(int argc, char** argv, const std::set<std::string>& switches) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
    if (!args_.empty()) command_ = args_.front();
    for (std::size_t i = 1; i < args_.size(); ++i) {
      const std::string& arg = args_[i];
      if (arg.rfind("--", 0) == 0) {
        const std::string name = arg.substr(2);
        if (switches.contains(name)) {
          flags_[name] = "true";
        } else {
          if (i + 1 >= args_.size()) throw InvalidArgument("missing value for --" + name);
          flags_[name] = args_[++i];
        }
        seen_.insert(name);
      } else {
        positional_.push_back(arg);
      }
    }
  }

  [[nodiscard]] const std::string& command() const { return command_; }
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  [[nodiscard]] std::string positional_at(std::size_t index, const std::string& what) const {
    if (index >= positional_.size()) throw InvalidArgument("missing argument: " + what);
    return positional_[index];
  }

  [[nodiscard]] bool has(const std::string& name) const { return seen_.contains(name); }

  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
  }

  [[nodiscard]] double get_double(const std::string& name, double fallback) const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }

  [[nodiscard]] std::size_t get_size(const std::string& name, std::size_t fallback) const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? fallback
                              : static_cast<std::size_t>(std::strtoull(it->second.c_str(),
                                                                       nullptr, 10));
  }

  /// Splits a comma-separated flag into entries.
  [[nodiscard]] std::vector<std::string> get_list(const std::string& name,
                                                  const std::string& fallback) const {
    const std::string value = get(name, fallback);
    std::vector<std::string> items;
    std::size_t start = 0;
    while (start <= value.size()) {
      const std::size_t comma = value.find(',', start);
      const std::string item = value.substr(start, comma - start);
      if (!item.empty()) items.push_back(item);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    return items;
  }

 private:
  std::vector<std::string> args_;
  std::string command_;
  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
  std::set<std::string> seen_;
};

}  // namespace cloudwf::cli
