#pragma once

/// \file cli_args.hpp
/// \brief Tiny command-line parser for the cloudwf tool.
///
/// Grammar: `cloudwf <command> [positional...] [--flag value | --switch]`.
/// Flags may appear anywhere after the command; unknown flags are errors so
/// typos fail loudly.  Numeric flags must hold exactly one number: a sign on
/// a count, trailing characters, an out-of-range value or a non-finite
/// double is an InvalidArgument, never a silent wrap-around or zero.

#include <charconv>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace cloudwf::cli {

/// Largest `--threads` accepted.  It is far above the core count of any
/// machine a campaign runs on, and it keeps a mistyped value from asking
/// the operating system for millions of threads.
inline constexpr std::size_t max_threads = 1024;

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

  /// A finite decimal number; throws InvalidArgument on anything else.
  [[nodiscard]] double get_double(const std::string& name, double fallback) const {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return fallback;
    const auto value = parse_number<double>(name, it->second, "a finite number");
    if (!std::isfinite(value)) throw malformed(name, it->second, "a finite number");
    return value;
  }

  /// A non-negative decimal integer; throws InvalidArgument on anything else.
  [[nodiscard]] std::size_t get_size(const std::string& name, std::size_t fallback) const {
    const auto it = flags_.find(name);
    return it == flags_.end()
               ? fallback
               : parse_number<std::size_t>(name, it->second, "a non-negative integer");
  }

  /// `--threads`: a get_size() of at most max_threads (0 = hardware
  /// concurrency).  Checked here, before any thread pool is built.
  [[nodiscard]] std::size_t get_threads(std::size_t fallback) const {
    const std::size_t threads = get_size("threads", fallback);
    if (threads > max_threads)
      throw InvalidArgument("--threads: " + std::to_string(threads) + " exceeds the limit of " +
                            std::to_string(max_threads));
    return threads;
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
  static InvalidArgument malformed(const std::string& name, const std::string& text,
                                   const char* expected) {
    return InvalidArgument("--" + name + ": expected " + expected + ", got '" + text + "'");
  }

  /// The whole of \p text as one number (std::from_chars: no sign on
  /// unsigned types, no leading blanks or '+').
  template <class T>
  static T parse_number(const std::string& name, const std::string& text, const char* expected) {
    T value{};
    const char* last = text.data() + text.size();
    const auto [end, error] = std::from_chars(text.data(), last, value);
    if (error == std::errc::result_out_of_range)
      throw InvalidArgument("--" + name + ": '" + text + "' is out of range");
    if (error != std::errc{} || end != last) throw malformed(name, text, expected);
    return value;
  }

  std::vector<std::string> args_;
  std::string command_;
  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
  std::set<std::string> seen_;
};

}  // namespace cloudwf::cli
