#include "core/regression.hpp"

#include <algorithm>
#include <cmath>

namespace agua::core {

std::vector<double> make_bins(double lo, double hi, std::size_t n) {
  std::vector<double> bins(n, lo);
  if (n == 0) return bins;
  const double width = (hi - lo) / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    bins[i] = lo + width * (static_cast<double>(i) + 0.5);
  }
  return bins;
}

std::size_t bin_of(double value, double lo, double hi, std::size_t n) {
  if (n == 0 || hi <= lo) return 0;
  const double t = (value - lo) / (hi - lo);
  const auto index = static_cast<std::ptrdiff_t>(t * static_cast<double>(n));
  return static_cast<std::size_t>(
      std::clamp<std::ptrdiff_t>(index, 0, static_cast<std::ptrdiff_t>(n) - 1));
}

double expected_output(const std::vector<double>& class_probs,
                       const std::vector<double>& bins) {
  double acc = 0.0;
  const std::size_t n = std::min(class_probs.size(), bins.size());
  for (std::size_t i = 0; i < n; ++i) acc += class_probs[i] * bins[i];
  return acc;
}

double predict_numeric(const AguaModel& model, const std::vector<double>& embedding,
                       const std::vector<double>& bins) {
  return expected_output(model.output_probs(embedding), bins);
}

double regression_fidelity(const AguaModel& model, const Dataset& dataset,
                           const std::vector<double>& bins, double tolerance) {
  if (dataset.empty()) return 0.0;
  std::size_t within = 0;
  for (const Sample& sample : dataset.samples) {
    const double controller_value = expected_output(sample.output_probs, bins);
    const double surrogate_value = predict_numeric(model, sample.embedding, bins);
    if (std::abs(controller_value - surrogate_value) <= tolerance) ++within;
  }
  return static_cast<double>(within) / static_cast<double>(dataset.size());
}

}  // namespace agua::core
