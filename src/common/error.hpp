#pragma once

/// \file error.hpp
/// \brief Error handling primitives shared by all cloudwf modules.
///
/// The library reports contract violations and invalid inputs with
/// exceptions derived from cloudwf::Error.  Internal invariants are guarded
/// with CLOUDWF_ASSERT, which stays active in release builds: simulation
/// results are only trustworthy if the engine's invariants held.
///
/// A check that passes must cost one branch and no allocation, because many
/// of them sit inside accessors the simulator calls per event.  So a literal
/// message goes through require()/validate(), which bind it as a
/// `const char*`; a message composed from run-time values is built behind
/// an `if`, only once the check has failed:
///
///     require(task < size(), "Workflow::task: id out of range");
///     if (!found) throw InvalidArgument("Json: missing key '" + key + "'");
///
/// tests/integration/test_alloc_budget.cpp holds the simulator and the
/// parsers to this with allocation counts.

#include <source_location>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cloudwf {

/// Base class of every exception thrown by the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller passed an argument that violates a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A workflow/schedule/platform failed structural validation.
class ValidationError : public Error {
 public:
  explicit ValidationError(const std::string& what) : Error(what) {}
};

/// An internal invariant was violated; indicates a bug in cloudwf itself.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

/// A filesystem or serialization operation failed (open/write/fsync/rename).
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// A per-run watchdog deadline expired before the evaluation finished.
class TimeoutError : public Error {
 public:
  explicit TimeoutError(const std::string& what) : Error(what) {}
};

/// The harness was asked to stop (SIGINT/SIGTERM); completed work is
/// already journaled, in-flight work is abandoned.  Never captured into a
/// degraded result cell — it always propagates to the caller.
class Interrupted : public Error {
 public:
  explicit Interrupted(const std::string& what) : Error(what) {}
};

/// Coarse error taxonomy recorded with degraded experiment cells so sweeps
/// can report *why* a cell failed without carrying exception objects across
/// serialization boundaries (CSV columns, checkpoint journals).
enum class ErrorKind {
  none,              ///< no error: the run completed
  invalid_argument,  ///< precondition violation (e.g. unknown algorithm)
  validation,        ///< structural validation failure
  internal,          ///< cloudwf invariant violation (a bug)
  io,                ///< filesystem/serialization failure
  timeout,           ///< watchdog deadline expired
  interrupted,       ///< operator-requested stop
  system,            ///< non-cloudwf std::exception (bad_alloc, ...)
  unknown,           ///< unrecognized kind (e.g. from a newer journal)
};

[[nodiscard]] constexpr std::string_view to_string(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::none: return "none";
    case ErrorKind::invalid_argument: return "invalid_argument";
    case ErrorKind::validation: return "validation";
    case ErrorKind::internal: return "internal";
    case ErrorKind::io: return "io";
    case ErrorKind::timeout: return "timeout";
    case ErrorKind::interrupted: return "interrupted";
    case ErrorKind::system: return "system";
    case ErrorKind::unknown: return "unknown";
  }
  return "unknown";
}

/// Inverse of to_string(ErrorKind); unrecognized names map to unknown.
[[nodiscard]] constexpr ErrorKind parse_error_kind(std::string_view name) {
  for (const ErrorKind kind :
       {ErrorKind::none, ErrorKind::invalid_argument, ErrorKind::validation,
        ErrorKind::internal, ErrorKind::io, ErrorKind::timeout, ErrorKind::interrupted,
        ErrorKind::system}) {
    if (name == to_string(kind)) return kind;
  }
  return ErrorKind::unknown;
}

/// Maps a caught exception onto the taxonomy (most specific type wins).
[[nodiscard]] inline ErrorKind classify_error(const std::exception& error) {
  if (dynamic_cast<const TimeoutError*>(&error)) return ErrorKind::timeout;
  if (dynamic_cast<const Interrupted*>(&error)) return ErrorKind::interrupted;
  if (dynamic_cast<const IoError*>(&error)) return ErrorKind::io;
  if (dynamic_cast<const InvalidArgument*>(&error)) return ErrorKind::invalid_argument;
  if (dynamic_cast<const ValidationError*>(&error)) return ErrorKind::validation;
  if (dynamic_cast<const InternalError*>(&error)) return ErrorKind::internal;
  if (dynamic_cast<const Error*>(&error)) return ErrorKind::unknown;
  return ErrorKind::system;
}

namespace detail {

[[noreturn]] inline void assert_fail(std::string_view expr, std::string_view msg,
                                     const std::source_location& loc) {
  std::ostringstream os;
  os << "cloudwf internal assertion failed: (" << expr << ") at " << loc.file_name() << ':'
     << loc.line() << " in " << loc.function_name();
  if (!msg.empty()) os << " — " << msg;
  throw InternalError(os.str());
}

}  // namespace detail

/// Throws InvalidArgument with \p msg unless \p cond holds.  A passing
/// check allocates nothing.
inline void require(bool cond, const char* msg) {
  if (!cond) throw InvalidArgument(msg);
}

/// Throws ValidationError with \p msg unless \p cond holds.  A passing
/// check allocates nothing.
inline void validate(bool cond, const char* msg) {
  if (!cond) throw ValidationError(msg);
}

/// Overloads for a message the caller already holds as a string.  Never
/// compose the argument in the call: it would be built on every call.
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw InvalidArgument(msg);
}

inline void validate(bool cond, const std::string& msg) {
  if (!cond) throw ValidationError(msg);
}

}  // namespace cloudwf

/// Release-mode-active assertion for internal invariants.
#define CLOUDWF_ASSERT(cond)                                                      \
  do {                                                                            \
    if (!(cond))                                                                  \
      ::cloudwf::detail::assert_fail(#cond, "", std::source_location::current()); \
  } while (false)

/// Assertion with an explanatory message.
#define CLOUDWF_ASSERT_MSG(cond, msg)                                              \
  do {                                                                             \
    if (!(cond))                                                                   \
      ::cloudwf::detail::assert_fail(#cond, msg, std::source_location::current()); \
  } while (false)
