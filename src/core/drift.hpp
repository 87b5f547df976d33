// Concept-based distribution-shift detection (§5.2.1, Fig. 5) and the
// concept-driven retraining selector (§5.2.2): aggregate batched explanations
// per trace, tag each trace with its top-k concepts, and compare normalized
// concept proportions between two deployments.
#pragma once

#include <string>
#include <vector>

#include "core/explain.hpp"
#include "core/surrogate.hpp"

namespace agua::core {

/// The controller embeddings of the states visited along one trace.
using TraceEmbeddings = std::vector<std::vector<double>>;

/// Mean expected concept intensity of a trace's states under δθ: per concept,
/// E[level]/(k-1) averaged over the trace.
std::vector<double> trace_concept_intensity(const AguaModel& model,
                                            const TraceEmbeddings& trace);

/// Top-k dominant concepts of one trace by absolute intensity.
std::vector<std::size_t> trace_top_concepts(const AguaModel& model,
                                            const TraceEmbeddings& trace,
                                            std::size_t top_k);

struct DriftReport {
  std::vector<std::string> concept_names;
  std::vector<double> proportions_a;  ///< normalized tag counts, dataset A
  std::vector<double> proportions_b;  ///< normalized tag counts, dataset B
  std::vector<double> delta;          ///< B - A per concept
  /// Concept indices whose share grew in B, sorted by decreasing delta —
  /// the "marked in red" set that drives concept-based retraining (§5.2.2).
  std::vector<std::size_t> increased;
  std::vector<std::size_t> decreased;
  /// Per-concept intensity statistics over all traces of both datasets;
  /// traces are tagged by their most *distinctive* concepts (z-scored
  /// intensity), so globally-common concepts do not swamp the tags.
  std::vector<double> intensity_mean;
  std::vector<double> intensity_std;

  std::string format() const;
};

/// Tag one trace with its top-k distinctive concepts under a report's
/// intensity normalization.
std::vector<std::size_t> tag_trace(const AguaModel& model, const TraceEmbeddings& trace,
                                   const DriftReport& report, std::size_t top_k);

/// Compare two deployments at the concept level.
DriftReport detect_concept_drift(const AguaModel& model,
                                 const std::vector<TraceEmbeddings>& dataset_a,
                                 const std::vector<TraceEmbeddings>& dataset_b,
                                 std::size_t top_k = 3);

/// §5.2.2's trace selector: indices of dataset_b traces whose top concepts
/// intersect the report's `increased` set — the under-represented subset to
/// retrain on.
std::vector<std::size_t> select_retraining_traces(
    const AguaModel& model, const std::vector<TraceEmbeddings>& dataset_b,
    const DriftReport& report, std::size_t top_k = 3);

}  // namespace agua::core
