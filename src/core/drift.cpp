#include "core/drift.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "obs/events.hpp"
#include "obs/monitor.hpp"
#include "obs/trace.hpp"

namespace agua::core {
namespace {

// Serving health: each drift report folds its total-variation distance
// between the two deployments' concept proportions into a short rolling
// window; a sustained score above 0.25 (a quarter of the tag mass moved)
// raises an `agua.health.drift` event — the continuous signal behind the
// §5.2.2 retraining trigger.
obs::HealthMonitor& drift_monitor() {
  obs::MonitorOptions options;
  options.window = 8;
  options.min_samples = 1;
  options.max_healthy = 0.25;
  return obs::health_monitor("agua.health.drift", options);
}

std::vector<std::size_t> tag_from_stats(const std::vector<double>& intensity,
                                        const std::vector<double>& mean,
                                        const std::vector<double>& stddev,
                                        std::size_t top_k) {
  std::vector<double> z(intensity.size());
  for (std::size_t c = 0; c < intensity.size(); ++c) {
    z[c] = (intensity[c] - mean[c]) / std::max(1e-9, stddev[c]);
  }
  return common::top_k_indices(z, top_k);
}

}  // namespace

std::vector<double> trace_concept_intensity(const AguaModel& model,
                                            const TraceEmbeddings& trace) {
  static obs::Counter& traces =
      obs::MetricsRegistry::instance().counter("agua.drift.trace_intensity");
  traces.add(1);
  const std::size_t C = model.num_concepts();
  const std::size_t k = model.num_levels();
  std::vector<double> intensity(C, 0.0);
  if (trace.empty()) return intensity;
  for (const auto& embedding : trace) {
    const std::vector<double> probs = model.concept_probs(embedding);
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t j = 0; j < k; ++j) {
        intensity[c] += probs[c * k + j] * static_cast<double>(j) /
                        static_cast<double>(k - 1);
      }
    }
  }
  for (double& v : intensity) v /= static_cast<double>(trace.size());
  return intensity;
}

std::vector<std::size_t> trace_top_concepts(const AguaModel& model,
                                            const TraceEmbeddings& trace,
                                            std::size_t top_k) {
  return common::top_k_indices(trace_concept_intensity(model, trace), top_k);
}

std::vector<std::size_t> tag_trace(const AguaModel& model, const TraceEmbeddings& trace,
                                   const DriftReport& report, std::size_t top_k) {
  return tag_from_stats(trace_concept_intensity(model, trace), report.intensity_mean,
                        report.intensity_std, top_k);
}

DriftReport detect_concept_drift(const AguaModel& model,
                                 const std::vector<TraceEmbeddings>& dataset_a,
                                 const std::vector<TraceEmbeddings>& dataset_b,
                                 std::size_t top_k) {
  obs::TraceSpan span("agua.drift.detect");
  DriftReport report;
  report.concept_names = model.concept_set().names();
  const std::size_t C = model.num_concepts();

  // Per-trace intensity vectors for both datasets.
  std::vector<std::vector<double>> intensities_a;
  std::vector<std::vector<double>> intensities_b;
  for (const TraceEmbeddings& trace : dataset_a) {
    intensities_a.push_back(trace_concept_intensity(model, trace));
  }
  for (const TraceEmbeddings& trace : dataset_b) {
    intensities_b.push_back(trace_concept_intensity(model, trace));
  }

  // Normalization across all traces: tag traces by distinctive concepts.
  report.intensity_mean.assign(C, 0.0);
  report.intensity_std.assign(C, 0.0);
  std::vector<std::vector<double>> per_concept(C);
  for (const auto& v : intensities_a) {
    for (std::size_t c = 0; c < C; ++c) per_concept[c].push_back(v[c]);
  }
  for (const auto& v : intensities_b) {
    for (std::size_t c = 0; c < C; ++c) per_concept[c].push_back(v[c]);
  }
  for (std::size_t c = 0; c < C; ++c) {
    report.intensity_mean[c] = common::mean(per_concept[c]);
    report.intensity_std[c] = common::stddev(per_concept[c]);
  }

  auto proportions = [&](const std::vector<std::vector<double>>& intensities) {
    std::vector<double> counts(C, 0.0);
    for (const auto& v : intensities) {
      for (std::size_t c :
           tag_from_stats(v, report.intensity_mean, report.intensity_std, top_k)) {
        counts[c] += 1.0;
      }
    }
    return common::normalize_counts(counts);
  };
  report.proportions_a = proportions(intensities_a);
  report.proportions_b = proportions(intensities_b);

  report.delta.resize(C);
  for (std::size_t c = 0; c < C; ++c) {
    report.delta[c] = report.proportions_b[c] - report.proportions_a[c];
  }
  std::vector<std::size_t> order(C);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return report.delta[a] > report.delta[b];
  });
  for (std::size_t c : order) {
    if (report.delta[c] > 1e-9) {
      report.increased.push_back(c);
    } else if (report.delta[c] < -1e-9) {
      report.decreased.push_back(c);
    }
  }
  std::reverse(report.decreased.begin(), report.decreased.end());

  // Drift score: total variation distance between the two proportion
  // distributions, 0 (identical) to 1 (disjoint tag mass).
  double score = 0.0;
  for (double d : report.delta) score += std::abs(d);
  score *= 0.5;
  drift_monitor().observe(score);
  obs::event_log().append(
      "drift.report", {{"score", score},
                       {"traces_a", static_cast<double>(dataset_a.size())},
                       {"traces_b", static_cast<double>(dataset_b.size())},
                       {"increased", static_cast<double>(report.increased.size())},
                       {"decreased", static_cast<double>(report.decreased.size())}});
  return report;
}

std::string DriftReport::format() const {
  common::TablePrinter table({"concept", "share A", "share B", "delta"});
  for (std::size_t c = 0; c < concept_names.size(); ++c) {
    table.add_row({concept_names[c], common::format_double(proportions_a[c], 3),
                   common::format_double(proportions_b[c], 3),
                   common::format_double(delta[c], 3)});
  }
  return table.render();
}

std::vector<std::size_t> select_retraining_traces(
    const AguaModel& model, const std::vector<TraceEmbeddings>& dataset_b,
    const DriftReport& report, std::size_t top_k) {
  std::vector<std::size_t> selected;
  for (std::size_t t = 0; t < dataset_b.size(); ++t) {
    const auto tags = tag_trace(model, dataset_b[t], report, top_k);
    for (std::size_t c : tags) {
      if (std::find(report.increased.begin(), report.increased.end(), c) !=
          report.increased.end()) {
        selected.push_back(t);
        break;
      }
    }
  }
  return selected;
}

}  // namespace agua::core
