// Concept interventions: the operator-facing capability that concept
// bottlenecks enable (§2.3) — override the predicted similarity level of a
// concept and observe how the surrogate's decision changes. Useful for
// "what-if" debugging ("would the controller still pick the low bitrate if
// network degradation were absent?") and for probing the decision boundary.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/surrogate.hpp"

namespace agua::core {

/// Force one concept to a fixed similarity level (one-hot in its k-block).
struct Intervention {
  std::size_t concept_index = 0;
  std::size_t level = 0;
};

struct InterventionResult {
  std::size_t original_class = 0;
  std::size_t adjusted_class = 0;
  std::vector<double> original_probs;
  std::vector<double> adjusted_probs;
  /// δθ(h) after the overrides were applied.
  std::vector<double> adjusted_concept_probs;

  bool decision_changed() const { return original_class != adjusted_class; }
  std::string format(const concepts::ConceptSet& concept_set,
                     const std::vector<Intervention>& interventions) const;
};

/// Apply the interventions to δθ(h(x)) and re-run Ω.
InterventionResult intervene(const AguaModel& model, const std::vector<double>& embedding,
                             const std::vector<Intervention>& interventions);

/// Search for the single-concept intervention that flips the surrogate's
/// decision to `target_class` with the highest resulting target probability;
/// std::nullopt if no single concept override achieves the flip.
std::optional<Intervention> find_flip(const AguaModel& model,
                                      const std::vector<double>& embedding,
                                      std::size_t target_class);

}  // namespace agua::core
