#pragma once

/// \file checkpoint.hpp
/// \brief Journaled checkpoint/resume for experiment campaigns.
///
/// A paper-scale campaign is hours of compute; a crash, OOM kill or
/// operator Ctrl-C used to lose all of it.  CheckpointJournal makes every
/// completed EvalResult durable the moment it exists: each cell is
/// serialized to one JSON line, appended to the journal and fsynced, keyed
/// by a deterministic fingerprint of its RunRequest.  A resumed campaign
/// replays journaled cells bit-identically (doubles are serialized via
/// shortest-round-trip formatting) and recomputes only the missing ones.
/// A torn trailing line — the signature of a mid-write kill — is skipped
/// on load and simply recomputed.
///
/// Only `ok` cells are journaled: timed-out or errored cells are retried
/// on resume, which is what an operator restarting a crashed sweep wants.

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/json.hpp"
#include "exp/evaluate.hpp"
#include "exp/runner.hpp"

namespace cloudwf::exp {

/// Serializes every field of \p result (including the raw per-repetition
/// samples, so quantiles replay exactly) into a JSON object.
[[nodiscard]] Json eval_result_to_json(const EvalResult& result);

/// Inverse of eval_result_to_json; throws InvalidArgument on missing or
/// mistyped fields.
[[nodiscard]] EvalResult eval_result_from_json(const Json& json);

/// Deterministic fingerprint of one request: FNV-1a over the workflow
/// identity, algorithm, budget bits, repetition/seed/deadline/fault
/// parameters and tag, mixed with \p salt (a campaign-level config hash).
/// Two requests with the same fingerprint produce bit-identical results.
[[nodiscard]] std::string fingerprint_request(const RunRequest& request,
                                              std::uint64_t salt = 0);

/// \p v as 16 lower-case hex digits: request fingerprints and the config
/// hash in campaign journal file names.
[[nodiscard]] std::string hex64(std::uint64_t v);

/// Append-only JSONL journal of completed cells.
///
/// Thread-safe: record() serializes appends behind a mutex and fsyncs each
/// line, so the file always ends in a prefix of complete records plus at
/// most one torn line.  The lookup cache is immutable after construction,
/// so find() is safe to call concurrently with record().
class CheckpointJournal {
 public:
  /// Opens \p path for appending.  With \p resume, existing complete
  /// records are loaded for replay (a corrupt or torn line is counted in
  /// skipped_lines() and ignored); without it any existing journal is
  /// truncated and the campaign starts fresh.
  CheckpointJournal(std::string path, bool resume);
  ~CheckpointJournal();

  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;

  /// The replayable result for \p fingerprint, or nullptr.
  [[nodiscard]] const EvalResult* find(const std::string& fingerprint) const;

  /// Durably appends one completed cell (flush + fsync before returning).
  void record(const std::string& fingerprint, const EvalResult& result);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t cached() const { return cache_.size(); }
  [[nodiscard]] std::size_t recorded() const { return recorded_; }
  [[nodiscard]] std::size_t skipped_lines() const { return skipped_lines_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::mutex append_mutex_;
  std::unordered_map<std::string, EvalResult> cache_;
  std::size_t recorded_ = 0;
  std::size_t skipped_lines_ = 0;
};

}  // namespace cloudwf::exp
