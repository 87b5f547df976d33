#include "core/intervene.hpp"

#include <sstream>

#include "common/stats.hpp"
#include "common/string_util.hpp"

namespace agua::core {
namespace {

std::vector<double> apply_overrides(const std::vector<double>& concept_probs,
                                    const std::vector<Intervention>& interventions,
                                    std::size_t num_levels) {
  std::vector<double> adjusted = concept_probs;
  for (const Intervention& iv : interventions) {
    const std::size_t base = iv.concept_index * num_levels;
    for (std::size_t j = 0; j < num_levels; ++j) {
      adjusted[base + j] = (j == iv.level) ? 1.0 : 0.0;
    }
  }
  return adjusted;
}

}  // namespace

InterventionResult intervene(const AguaModel& model, const std::vector<double>& embedding,
                             const std::vector<Intervention>& interventions) {
  InterventionResult result;
  const std::vector<double> z = model.concept_probs(embedding);
  const std::vector<double> original_logits = model.output_mapping().logits(z);
  result.original_probs = common::softmax(original_logits);
  result.original_class = common::argmax(original_logits);

  result.adjusted_concept_probs =
      apply_overrides(z, interventions, model.num_levels());
  const std::vector<double> adjusted_logits =
      model.output_mapping().logits(result.adjusted_concept_probs);
  result.adjusted_probs = common::softmax(adjusted_logits);
  result.adjusted_class = common::argmax(adjusted_logits);
  return result;
}

std::string InterventionResult::format(const concepts::ConceptSet& concept_set,
                                       const std::vector<Intervention>& interventions) const {
  std::ostringstream os;
  os << "Intervention:";
  for (const Intervention& iv : interventions) {
    os << " [" << concept_set.at(iv.concept_index).name << " -> level " << iv.level
       << "]";
  }
  os << "\n  decision: " << original_class << " (p="
     << common::format_double(original_probs[original_class], 3) << ") -> "
     << adjusted_class << " (p="
     << common::format_double(adjusted_probs[adjusted_class], 3) << ")"
     << (decision_changed() ? "  [FLIPPED]" : "  [unchanged]") << '\n';
  return os.str();
}

std::optional<Intervention> find_flip(const AguaModel& model,
                                      const std::vector<double>& embedding,
                                      std::size_t target_class) {
  const std::vector<double> z = model.concept_probs(embedding);
  const std::size_t k = model.num_levels();
  std::optional<Intervention> best;
  double best_probability = -1.0;
  for (std::size_t c = 0; c < model.num_concepts(); ++c) {
    for (std::size_t level = 0; level < k; ++level) {
      const Intervention candidate{c, level};
      const std::vector<double> adjusted = apply_overrides(z, {candidate}, k);
      const std::vector<double> logits = model.output_mapping().logits(adjusted);
      if (common::argmax(logits) == target_class) {
        const double p = common::softmax(logits)[target_class];
        if (p > best_probability) {
          best_probability = p;
          best = candidate;
        }
      }
    }
  }
  return best;
}

}  // namespace agua::core
