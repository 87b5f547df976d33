#include "core/report.hpp"

#include <cmath>
#include <sstream>

#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"

namespace agua::core {

AguaReport build_report(const AguaModel& model, const Dataset& train, const Dataset& test) {
  AguaReport report;
  report.train_fidelity = fidelity(model, train);
  report.test_fidelity = fidelity(model, test);
  report.majority_baseline = test.majority_fraction();
  report.num_concepts = model.num_concepts();
  report.num_levels = model.num_levels();
  report.num_outputs = model.num_outputs();
  report.concept_names = model.concept_set().names();

  // Global drivers: per class, aggregate |W| over each concept's levels.
  const std::size_t k = model.num_levels();
  for (std::size_t cls = 0; cls < report.num_outputs; ++cls) {
    const std::vector<double> weights = model.output_mapping().class_weights(cls);
    std::vector<double> mass(report.num_concepts, 0.0);
    for (std::size_t c = 0; c < report.num_concepts; ++c) {
      for (std::size_t j = 0; j < k; ++j) mass[c] += std::abs(weights[c * k + j]);
    }
    const auto order = common::top_k_indices(mass, report.num_concepts);
    std::vector<double> ordered_mass;
    ordered_mass.reserve(order.size());
    for (std::size_t c : order) ordered_mass.push_back(mass[c]);
    report.top_concepts_per_class.push_back(order);
    report.top_weights_per_class.push_back(std::move(ordered_mass));
  }

  // Mean predicted intensity over the test set.
  report.mean_concept_intensity.assign(report.num_concepts, 0.0);
  if (!test.empty()) {
    for (const Sample& sample : test.samples) {
      const auto probs = model.concept_probs(sample.embedding);
      for (std::size_t c = 0; c < report.num_concepts; ++c) {
        for (std::size_t j = 0; j < k; ++j) {
          report.mean_concept_intensity[c] +=
              probs[c * k + j] * static_cast<double>(j) / static_cast<double>(k - 1);
        }
      }
    }
    for (double& v : report.mean_concept_intensity) {
      v /= static_cast<double>(test.size());
    }
  }
  return report;
}

std::string AguaReport::format(std::size_t top_k) const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "Agua report\n"
     << "  surrogate: " << num_concepts << " concepts x " << num_levels
     << " levels -> " << num_outputs << " outputs\n"
     << "  fidelity:  train " << train_fidelity << ", test " << test_fidelity
     << " (majority baseline " << majority_baseline << ")\n"
     << "  global concept drivers per output class (|W| mass):\n";
  for (std::size_t cls = 0; cls < top_concepts_per_class.size(); ++cls) {
    os << "    class " << cls << ": ";
    for (std::size_t i = 0; i < top_k && i < top_concepts_per_class[cls].size(); ++i) {
      if (i > 0) os << ", ";
      const std::size_t c = top_concepts_per_class[cls][i];
      os << concept_names[c] << " ("
         << common::format_double(top_weights_per_class[cls][i], 2) << ")";
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace agua::core
