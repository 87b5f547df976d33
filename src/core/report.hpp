// The Agua report: a trust-report-style summary of a trained surrogate,
// parallel to Trustee's report but at the concept level — fidelity, the
// global concept drivers of each output class (from Ω's weights), and the
// concept-label statistics the surrogate was trained against.
#pragma once

#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/surrogate.hpp"

namespace agua::core {

struct AguaReport {
  double train_fidelity = 0.0;
  double test_fidelity = 0.0;
  double majority_baseline = 0.0;
  std::size_t num_concepts = 0;
  std::size_t num_levels = 0;
  std::size_t num_outputs = 0;
  /// Per output class: concept indices sorted by global weight mass
  /// (|W| summed over the concept's levels in that class's row).
  std::vector<std::vector<std::size_t>> top_concepts_per_class;
  /// Matching weight masses.
  std::vector<std::vector<double>> top_weights_per_class;
  /// Mean predicted concept intensity over the test set (per concept).
  std::vector<double> mean_concept_intensity;
  std::vector<std::string> concept_names;

  std::string format(std::size_t top_k = 3) const;
};

/// Build the report for a trained model over train/test rollout datasets.
AguaReport build_report(const AguaModel& model, const Dataset& train, const Dataset& test);

}  // namespace agua::core
