#pragma once

/// \file result_fields.hpp
/// \brief The one schema of an experimental point's outputs.
///
/// write_results_csv prints the CSV rows of result_fields, the checkpoint
/// journal encodes the journaled ones and campaigns average the ones that
/// name a campaign metric.  Rows are in CSV column order and the journal
/// keeps their relative order, so both byte formats follow from the table.

#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "exp/campaign.hpp"
#include "exp/runner.hpp"

namespace cloudwf::exp {

/// Where the journal keeps a field: the top-level object, the trailing
/// "obs" block (absent in journals of older builds, read as 0) or nowhere,
/// for values derived from other fields or from the request.
enum class Journal { top, obs, none };

/// What a degraded cell (status != ok) shows in a CSV column.
enum class Degraded { value, nan };

/// csv_column of a journal-only row.
inline constexpr int no_column = -1;

/// A stored EvalResult member, or a value derived from the result or its
/// request.  The type is the kind: text (strings, status enums), count
/// (integers and flags, printed by CsvWriter's integer overloads, so 100000
/// never reads 1e+05) or real (doubles; sample arrays are journal-only).
using FieldAccess =
    std::variant<std::string EvalResult::*, RunStatus EvalResult::*, ErrorKind EvalResult::*,
                 bool EvalResult::*, std::size_t EvalResult::*, double EvalResult::*,
                 Summary EvalResult::*, std::string_view (*)(const RunRequest&),
                 std::size_t (*)(const EvalResult&), double (*)(const EvalResult&)>;

/// One row of the schema.
struct ResultField {
  std::string_view name;  ///< CSV column and journal key
  Journal journal;
  int csv_column;  ///< 0-based; the first 27 never move
  Degraded degraded;
  FieldAccess access;
  /// print_campaign_table's name for the cross-instance mean of the field,
  /// the accumulator collecting it and the table's decimal places.
  std::string_view metric = {};
  Accumulator CampaignCell::*cell = nullptr;
  int precision = 2;
};

// clang-format off
inline constexpr ResultField result_fields[] = {
  {"workflow", Journal::none, 0, Degraded::value,
   +[](const RunRequest& q) -> std::string_view { return q.wf->name(); }},
  {"algorithm", Journal::top, 1, Degraded::value, &EvalResult::algorithm},
  {"budget", Journal::top, 2, Degraded::value, &EvalResult::budget},
  {"tag", Journal::none, 3, Degraded::value,
   +[](const RunRequest& q) -> std::string_view { return q.tag; }},
  {"status", Journal::top, 4, Degraded::value, &EvalResult::status},
  {"error_kind", Journal::top, 5, Degraded::value, &EvalResult::error_kind},
  {"error_message", Journal::top, 6, Degraded::value, &EvalResult::error_message},
  {"repetitions", Journal::none, 7, Degraded::value,
   +[](const EvalResult& r) { return r.makespan.count(); }},
  {"predicted_makespan", Journal::top, 8, Degraded::nan, &EvalResult::predicted_makespan},
  {"predicted_cost", Journal::top, 9, Degraded::nan, &EvalResult::predicted_cost},
  {"predicted_feasible", Journal::top, 10, Degraded::value, &EvalResult::predicted_feasible},
  {"used_vms", Journal::top, 11, Degraded::value, &EvalResult::used_vms,
   "vms", &CampaignCell::used_vms},
  {"makespan", Journal::top, no_column, Degraded::value, &EvalResult::makespan},
  {"cost", Journal::top, no_column, Degraded::value, &EvalResult::cost},
  {"makespan_mean", Journal::none, 12, Degraded::nan,
   +[](const EvalResult& r) { return r.makespan.mean(); }, "makespan", &CampaignCell::makespan},
  {"makespan_stddev", Journal::none, 13, Degraded::nan,
   +[](const EvalResult& r) { return r.makespan.stddev(); }},
  {"makespan_p95", Journal::none, 14, Degraded::nan,
   +[](const EvalResult& r) { return r.makespan.quantile(0.95); }},
  {"cost_mean", Journal::none, 15, Degraded::nan,
   +[](const EvalResult& r) { return r.cost.mean(); }, "cost", &CampaignCell::cost, 4},
  {"cost_stddev", Journal::none, 16, Degraded::nan,
   +[](const EvalResult& r) { return r.cost.stddev(); }},
  {"valid_fraction", Journal::top, 17, Degraded::value, &EvalResult::valid_fraction,
   "valid", &CampaignCell::valid},
  {"deadline_fraction", Journal::top, 18, Degraded::value, &EvalResult::deadline_fraction},
  {"objective_fraction", Journal::top, 19, Degraded::value, &EvalResult::objective_fraction},
  {"success_fraction", Journal::top, 20, Degraded::value, &EvalResult::success_fraction},
  {"budget_violation_fraction", Journal::none, 21, Degraded::value,
   +[](const EvalResult& r) { return 1.0 - r.valid_fraction; }},
  {"crashes_mean", Journal::top, 22, Degraded::value, &EvalResult::crashes_mean},
  {"failed_tasks_mean", Journal::top, 23, Degraded::value, &EvalResult::failed_tasks_mean},
  {"recovery_cost_mean", Journal::top, 24, Degraded::value, &EvalResult::recovery_cost_mean},
  {"wasted_compute_mean", Journal::top, 25, Degraded::value, &EvalResult::wasted_compute_mean},
  {"schedule_seconds", Journal::top, 26, Degraded::value, &EvalResult::schedule_seconds,
   "sched_time", &CampaignCell::sched_time},
  {"queue_wait_p50", Journal::obs, 27, Degraded::nan, &EvalResult::queue_wait_p50},
  {"queue_wait_p95", Journal::obs, 28, Degraded::nan, &EvalResult::queue_wait_p95,
   "queue_wait_p95", &CampaignCell::queue_wait_p95},
  {"queue_wait_p99", Journal::obs, 29, Degraded::nan, &EvalResult::queue_wait_p99},
  {"vm_util_mean", Journal::obs, 30, Degraded::nan, &EvalResult::vm_util_mean,
   "util", &CampaignCell::vm_util},
  {"transfer_retries_mean", Journal::obs, 31, Degraded::nan, &EvalResult::transfer_retries_mean,
   "retries", &CampaignCell::transfer_retries},
  {"budget_headroom_mean", Journal::obs, 32, Degraded::nan, &EvalResult::budget_headroom_mean,
   "headroom", &CampaignCell::budget_headroom},
  {"sim_events_per_sec", Journal::obs, 33, Degraded::nan, &EvalResult::sim_events_per_sec},
};
// clang-format on

/// True when the CSV columns are numbered in row order from 0.
consteval bool csv_columns_in_row_order() {
  int next = 0;
  for (const ResultField& field : result_fields)
    if (field.csv_column != no_column && field.csv_column != next++) return false;
  return true;
}
static_assert(csv_columns_in_row_order());

/// Calls \p sink with the value \p field reads for one cell: a stored member
/// or a derived value.
template <class Sink>
void visit_field(const ResultField& field, const RunRequest& request, const EvalResult& result,
                 Sink&& sink) {
  std::visit(
      [&](auto access) {
        if constexpr (std::is_member_object_pointer_v<decltype(access)>)
          sink(result.*access);
        else if constexpr (std::is_invocable_v<decltype(access), const RunRequest&>)
          sink(access(request));
        else
          sink(access(result));
      },
      field.access);
}

}  // namespace cloudwf::exp
