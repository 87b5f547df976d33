// Agua's surrogate concept-based model (Definition 3.2):
// f'(x) = Ω(δθ(h(x))). Composes the concept and output mapping functions and
// exposes the fidelity metric (eq. 11) over rollout datasets.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "concepts/concept_set.hpp"
#include "core/concept_mapping.hpp"
#include "core/dataset.hpp"
#include "core/output_mapping.hpp"

namespace agua::core {

class AguaModel {
 public:
  AguaModel(concepts::ConceptSet concept_set, ConceptMapping concept_mapping,
            OutputMapping output_mapping);

  // Inference is const (nn::Module::infer caches nothing), so one AguaModel
  // may be queried from several threads at once.

  /// δθ(h): C*k concept-similarity probabilities.
  std::vector<double> concept_probs(const std::vector<double>& embedding) const {
    return concept_mapping_.concept_probs(embedding);
  }

  /// f'(x) logits / probabilities from a controller embedding.
  std::vector<double> logits(const std::vector<double>& embedding) const;
  std::vector<double> output_probs(const std::vector<double>& embedding) const;
  std::size_t predict_class(const std::vector<double>& embedding) const;

  /// Deep copy via an in-memory serialization round-trip; weights are
  /// bitwise identical, so per-input outputs are too. Inference is const, so
  /// no caller needs a clone for thread safety any more. explain_batched's
  /// per-worker clones use it until ROADMAP item 1's harness fix lets their
  /// removal be measured.
  AguaModel clone() const;

  const concepts::ConceptSet& concept_set() const { return concepts_; }
  /// The concept names, built once per model; every Explanation of this
  /// model shares this one immutable list.
  const std::shared_ptr<const std::vector<std::string>>& concept_names() const {
    return concept_names_;
  }
  const ConceptMapping& concept_mapping() const { return concept_mapping_; }
  const OutputMapping& output_mapping() const { return output_mapping_; }
  std::size_t num_concepts() const { return concepts_.size(); }
  std::size_t num_levels() const { return concept_mapping_.config().num_levels; }
  std::size_t num_outputs() const { return output_mapping_.config().num_outputs; }

 private:
  concepts::ConceptSet concepts_;
  std::shared_ptr<const std::vector<std::string>> concept_names_;
  ConceptMapping concept_mapping_;
  OutputMapping output_mapping_;
};

/// Fidelity (eq. 11): fraction of dataset samples where the surrogate's
/// argmax matches the controller's.
double fidelity(const AguaModel& model, const Dataset& dataset);

/// Fidelity of an arbitrary predicted-class sequence (shared helper).
double match_rate(const std::vector<std::size_t>& a, const std::vector<std::size_t>& b);

}  // namespace agua::core
