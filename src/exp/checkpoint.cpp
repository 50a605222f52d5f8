#include "exp/checkpoint.hpp"

#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "exp/result_fields.hpp"

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace cloudwf::exp {

namespace {

/// The journal encoding of one stored field.
template <class T>
Json to_json(const T& value) {
  if constexpr (std::is_enum_v<T>)
    return std::string(to_string(value));
  else if constexpr (std::is_same_v<T, Summary>)
    return Json::Array(value.values().begin(), value.values().end());
  else
    return value;
}

/// Inverse of to_json into a default-constructed \p out; throws on a
/// mistyped value.
template <class T>
void from_json(const Json& json, std::string_view name, T& out) {
  if constexpr (std::is_same_v<T, RunStatus>)
    out = parse_run_status(json.as_string());
  else if constexpr (std::is_same_v<T, ErrorKind>)
    out = parse_error_kind(json.as_string());
  else if constexpr (std::is_same_v<T, std::string>)
    out = json.as_string();
  else if constexpr (std::is_same_v<T, bool>)
    out = json.as_bool();
  else if constexpr (std::is_same_v<T, std::size_t>)
    out = json_unsigned<std::size_t>(json.as_number(), "journal: " + std::string(name));
  else if constexpr (std::is_same_v<T, double>)
    out = json.as_number();
  else
    for (const Json& v : json.as_array()) out.add(v.as_number());
}

/// FNV-1a 64-bit, fed field-by-field with a separator so adjacent fields
/// cannot alias ("ab"+"c" vs "a"+"bc").
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ULL;
    }
    hash_ ^= 0x1F;  // field separator
    hash_ *= 0x100000001B3ULL;
  }
  void str(std::string_view s) { bytes(s.data(), s.size()); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[static_cast<std::size_t>(i)] = digits[v & 0xF];
  return out;
}

Json eval_result_to_json(const EvalResult& r) {
  Json::Object top;
  Json::Object obs;
  for (const ResultField& field : result_fields) {
    if (field.journal == Journal::none) continue;
    Json& slot = (field.journal == Journal::top ? top : obs)[std::string(field.name)];
    std::visit(
        [&](auto access) {
          if constexpr (std::is_member_object_pointer_v<decltype(access)>)
            slot = to_json(r.*access);
        },
        field.access);
  }
  top["obs"] = Json(std::move(obs));
  return {std::move(top)};
}

EvalResult eval_result_from_json(const Json& json) {
  EvalResult r;
  // Observability aggregates arrived after the journal format shipped;
  // journals written by older builds simply lack the block (fields stay 0).
  const Json* obs = json.as_object().find("obs");
  for (const ResultField& field : result_fields) {
    if (field.journal == Journal::none || (field.journal == Journal::obs && obs == nullptr))
      continue;
    const Json& value = (field.journal == Journal::top ? json : *obs).at(field.name);
    std::visit(
        [&](auto access) {
          if constexpr (std::is_member_object_pointer_v<decltype(access)>)
            from_json(value, field.name, r.*access);
        },
        field.access);
  }
  return r;
}

std::string fingerprint_request(const RunRequest& request, std::uint64_t salt) {
  require(request.wf != nullptr, "fingerprint_request: request without a workflow");
  Fnv1a h;
  h.u64(salt);
  h.str(request.wf->name());
  h.u64(request.wf->task_count());
  h.str(request.algorithm);
  h.f64(request.budget);
  h.str(request.tag);
  const EvalConfig& c = request.config;
  h.u64(c.repetitions);
  h.u64(c.seed);
  h.f64(c.deadline);
  h.f64(c.faults.p_boot_fail);
  h.f64(c.faults.lambda_crash);
  h.f64(c.faults.p_transfer_fail);
  h.f64(c.faults.acquisition_delay);
  h.u64(c.faults.seed);
  h.u64(c.recovery.max_boot_attempts);
  h.u64(c.recovery.max_task_retries);
  h.u64(c.recovery.max_transfer_retries);
  h.f64(c.recovery.transfer_backoff_base);
  h.f64(c.recovery.budget_cap);
  return hex64(h.value());
}

CheckpointJournal::CheckpointJournal(std::string path, bool resume)
    : path_(std::move(path)) {
  if (resume) {
    // Load whatever complete records exist; a torn trailing line (the
    // signature of a mid-append kill) or any other unparseable/incomplete
    // line is skipped and its cell recomputed.
    std::ifstream in(path_, std::ios::binary);
    if (in.good()) {
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        try {
          const Json record = Json::parse(line);
          cache_.insert_or_assign(record.at("fp").as_string(),
                                  eval_result_from_json(record.at("result")));
        } catch (const Error&) {
          ++skipped_lines_;
        }
      }
    }
  }
#ifndef _WIN32
  const int flags = O_WRONLY | O_CREAT | O_CLOEXEC | (resume ? O_APPEND : O_TRUNC);
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0)
    throw IoError("CheckpointJournal: cannot open '" + path_ + "': " + std::strerror(errno));
#else
  throw IoError("CheckpointJournal: not supported on this platform");
#endif
}

CheckpointJournal::~CheckpointJournal() {
#ifndef _WIN32
  if (fd_ >= 0) ::close(fd_);
#endif
}

const EvalResult* CheckpointJournal::find(const std::string& fingerprint) const {
  const auto it = cache_.find(fingerprint);
  return it == cache_.end() ? nullptr : &it->second;
}

void CheckpointJournal::record(const std::string& fingerprint, const EvalResult& result) {
  Json::Object record;
  record["fp"] = fingerprint;
  record["result"] = eval_result_to_json(result);
  const std::string line = Json(std::move(record)).dump() + "\n";
#ifndef _WIN32
  const std::lock_guard lock(append_mutex_);
  // One O_APPEND write per record keeps lines contiguous even if another
  // process shares the journal; fsync makes the cell durable before the
  // runner moves on — a SIGKILL can only ever cost the in-flight cell.
  std::size_t written = 0;
  while (written < line.size()) {
    const ::ssize_t n = ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("CheckpointJournal: write failed for '" + path_ +
                    "': " + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0)
    throw IoError("CheckpointJournal: fsync failed for '" + path_ +
                  "': " + std::strerror(errno));
  ++recorded_;
#else
  (void)fingerprint;
  (void)result;
#endif
}

}  // namespace cloudwf::exp
