#include "core/surrogate.hpp"

#include <sstream>

#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "obs/monitor.hpp"
#include "obs/trace.hpp"

namespace agua::core {
namespace {

// Serving health: every fidelity evaluation folds its per-sample
// match/mismatch outcomes into a rolling window; the monitor raises an
// `agua.health.fidelity` event if the rolling match rate drops below the
// paper's ≥ 0.9 operating range (alert threshold 0.85 leaves headroom for
// window noise). The raw forward path (predict_class) stays monitor-free —
// it has no ground truth and must stay within the < 2% overhead budget.
obs::HealthMonitor& fidelity_monitor() {
  obs::MonitorOptions options;
  options.window = 256;
  options.min_samples = 64;
  options.min_healthy = 0.85;
  return obs::health_monitor("agua.health.fidelity", options);
}

}  // namespace

AguaModel::AguaModel(concepts::ConceptSet concept_set, ConceptMapping concept_mapping,
                     OutputMapping output_mapping)
    : concepts_(std::move(concept_set)),
      concept_names_(std::make_shared<const std::vector<std::string>>(concepts_.names())),
      concept_mapping_(std::move(concept_mapping)),
      output_mapping_(std::move(output_mapping)) {}

AguaModel AguaModel::clone() const {
  std::stringstream buffer;
  common::BinaryWriter writer(buffer);
  concept_mapping_.save(writer);
  output_mapping_.save(writer);
  common::BinaryReader reader(buffer);
  ConceptMapping concept_mapping = ConceptMapping::load(reader);
  OutputMapping output_mapping = OutputMapping::load(reader);
  return AguaModel(concepts_, std::move(concept_mapping), std::move(output_mapping));
}

std::vector<double> AguaModel::logits(const std::vector<double>& embedding) const {
  return output_mapping_.logits(concept_mapping_.concept_probs(embedding));
}

std::vector<double> AguaModel::output_probs(const std::vector<double>& embedding) const {
  return common::softmax(logits(embedding));
}

std::size_t AguaModel::predict_class(const std::vector<double>& embedding) const {
  return common::argmax(logits(embedding));
}

double fidelity(const AguaModel& model, const Dataset& dataset) {
  if (dataset.empty()) return 0.0;
  obs::ScopedTimer timer("agua.surrogate.fidelity");
  obs::HealthMonitor& monitor = fidelity_monitor();
  std::size_t matches = 0;
  for (const Sample& sample : dataset.samples) {
    const bool match = model.predict_class(sample.embedding) == sample.output_class;
    if (match) ++matches;
    monitor.observe(match ? 1.0 : 0.0);
  }
  return static_cast<double>(matches) / static_cast<double>(dataset.size());
}

double match_rate(const std::vector<std::size_t>& a, const std::vector<std::size_t>& b) {
  if (a.empty() || a.size() != b.size()) return 0.0;
  std::size_t matches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) ++matches;
  }
  return static_cast<double>(matches) / static_cast<double>(a.size());
}

}  // namespace agua::core
