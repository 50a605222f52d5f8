/// \file sipht.cpp
/// \brief SIPHT generator (Bharathi et al.; beyond the paper's three
/// evaluated families).
///
/// Structure: a wide fan of cheap Patser motif searches concatenated by
/// Patser_concate; four heterogeneous analyses (Transterm, Findterm —
/// expensive and data-heavy —, RNAMotif, Blast) run in parallel; everything
/// funnels into the SRNA hub, which fans out to five secondary BLAST/parse
/// jobs collected by SRNA_annotate.  The dominant traits are extreme weight
/// imbalance (Findterm vs Patser is ~100x) and two fan-in barriers.
///
/// Task count: n = p Patser + 12 fixed tasks.

#include <string>

#include "common/error.hpp"
#include "pegasus/detail.hpp"
#include "pegasus/generator.hpp"

namespace cloudwf::pegasus {

namespace {

constexpr Instructions w_patser = 90;
constexpr Instructions w_patser_concat = 250;
constexpr Instructions w_transterm = 2800;
constexpr Instructions w_findterm = 9000;
constexpr Instructions w_rnamotif = 600;
constexpr Instructions w_blast = 3600;
constexpr Instructions w_srna = 1200;
constexpr Instructions w_blast_secondary = 1400;
constexpr Instructions w_annotate = 400;

constexpr Bytes d_genome = 12e6;      ///< genome slice each Patser scans
constexpr Bytes d_motif = 0.5e6;      ///< Patser hits
constexpr Bytes d_analysis = 2e6;     ///< analysis outputs into SRNA
constexpr Bytes d_findterm = 350e6;   ///< Findterm's oversized output
constexpr Bytes d_srna = 5e6;         ///< SRNA candidates to secondary jobs
constexpr Bytes d_out = 8e6;          ///< annotated sRNAs

constexpr std::size_t fixed_tasks = 12;

}  // namespace

dag::Workflow generate_sipht(const GeneratorConfig& config) {
  detail::check_config(config);
  if (config.task_count < fixed_tasks + 1)
    throw InvalidArgument("generate_sipht: task_count must be >= " +
                          std::to_string(fixed_tasks + 1));
  Rng rng(config.seed);
  dag::Workflow wf(detail::instance_name("sipht", config));

  const std::size_t patser_count = config.task_count - fixed_tasks;

  const dag::TaskId concat = detail::add_jittered_task(wf, rng, config, "Patser_concate",
                                                       "Patser_concate", w_patser_concat);
  for (std::size_t p = 0; p < patser_count; ++p) {
    const dag::TaskId patser = detail::add_jittered_task(
        wf, rng, config, "Patser_" + std::to_string(p), "Patser", w_patser);
    wf.add_external_input(patser, detail::jittered_bytes(rng, d_genome));
    wf.add_edge(patser, concat, detail::jittered_bytes(rng, d_motif));
  }

  const dag::TaskId srna =
      detail::add_jittered_task(wf, rng, config, "SRNA", "SRNA", w_srna);
  wf.add_edge(concat, srna, detail::jittered_bytes(rng, d_analysis));

  const struct {
    const char* name;
    Instructions weight;
    Bytes output;
  } analyses[] = {
      {"Transterm", w_transterm, d_analysis},
      {"Findterm", w_findterm, d_findterm},  // the oversized producer
      {"RNAMotif", w_rnamotif, d_analysis},
      {"Blast", w_blast, d_analysis},
  };
  for (const auto& analysis : analyses) {
    const dag::TaskId task =
        detail::add_jittered_task(wf, rng, config, analysis.name, analysis.name, analysis.weight);
    wf.add_external_input(task, detail::jittered_bytes(rng, d_genome));
    wf.add_edge(task, srna, detail::jittered_bytes(rng, analysis.output));
  }

  const dag::TaskId annotate = detail::add_jittered_task(wf, rng, config, "SRNA_annotate",
                                                         "SRNA_annotate", w_annotate);
  for (const char* name : {"Blast_synteny", "Blast_candidate", "Blast_QRNA",
                           "Blast_paralogues", "FFN_parse"}) {
    const dag::TaskId secondary =
        detail::add_jittered_task(wf, rng, config, name, name, w_blast_secondary);
    wf.add_edge(srna, secondary, detail::jittered_bytes(rng, d_srna));
    wf.add_edge(secondary, annotate, detail::jittered_bytes(rng, d_analysis));
  }
  wf.add_external_output(annotate, detail::jittered_bytes(rng, d_out));

  wf.freeze();
  CLOUDWF_ASSERT(wf.task_count() == config.task_count);
  return wf;
}

}  // namespace cloudwf::pegasus
