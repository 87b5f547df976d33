// Regression-controller support (Definition 3.2 / §3.4): "for regression
// controllers, n corresponds to the dimensionality of the discrete bins used
// to approximate the numerical output. In this case, the dot product
// Ω(δθ(h(x))) · bins gives the numerical output."
//
// These helpers build bin centers, convert the surrogate's class
// distribution to a numeric value, and evaluate a tolerance-based fidelity
// for numeric outputs.
#pragma once

#include <cstddef>
#include <vector>

#include "core/dataset.hpp"
#include "core/surrogate.hpp"

namespace agua::core {

/// n bin centers covering [lo, hi] (midpoints of equal-width bins).
std::vector<double> make_bins(double lo, double hi, std::size_t n);

/// The bin index a numeric value falls into (clamped to the range).
std::size_t bin_of(double value, double lo, double hi, std::size_t n);

/// Ω(δθ(h(x))) · bins: the expected numeric output under the surrogate's
/// class distribution.
double expected_output(const std::vector<double>& class_probs,
                       const std::vector<double>& bins);

/// Numeric output of the surrogate for one embedding.
double predict_numeric(const AguaModel& model, const std::vector<double>& embedding,
                       const std::vector<double>& bins);

/// Regression fidelity: fraction of samples whose surrogate numeric output is
/// within `tolerance` of the controller's (the controller's numeric output is
/// its own distribution dotted with the bins).
double regression_fidelity(const AguaModel& model, const Dataset& dataset,
                           const std::vector<double>& bins, double tolerance);

}  // namespace agua::core
