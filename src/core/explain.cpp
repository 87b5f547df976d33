#include "core/explain.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/fault.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "obs/parallel.hpp"
#include "obs/trace.hpp"

namespace agua::core {
namespace {

constexpr std::size_t kFactual = static_cast<std::size_t>(-1);

/// Core of eq. 7-10 for one embedding and one target class (kFactual: the
/// argmax of this same forward). δθ and Ω each run once.
Explanation explain_one(const AguaModel& model, const std::vector<double>& embedding,
                        std::size_t output_class) {
  static obs::Histogram& latency =
      obs::MetricsRegistry::instance().histogram("agua.explain.single");
  obs::ScopedTimer timer(latency);
  common::fault::throw_point("explain.single");
  Explanation exp;
  const std::size_t C = model.num_concepts();
  const std::size_t k = model.num_levels();
  const OutputMapping& omega = model.output_mapping();
  const std::vector<double> z = model.concept_probs(embedding);
  const std::vector<double> logits = omega.logits(z);
  const std::vector<double> probs = common::softmax(logits);
  exp.predicted_class = common::argmax(logits);
  exp.output_class = output_class == kFactual ? exp.predicted_class : output_class;
  exp.output_probability = probs[exp.output_class];
  exp.concept_names = ConceptNames(model.concept_names());

  // Eq. 8: Hadamard decomposition W^<i> ∘ δ(h(x)) + b_i/(C·k), reading
  // class i's column of W in place.
  const nn::Matrix& weights = omega.weights();
  const double bias_share =
      omega.class_bias(exp.output_class) / static_cast<double>(C * k);
  exp.raw_contributions.resize(C * k);
  for (std::size_t j = 0; j < C * k; ++j) {
    exp.raw_contributions[j] = weights.at(j, exp.output_class) * z[j] + bias_share;
  }
  // Eq. 9/10: softmax over the contribution vector, scaled by the output
  // probability, then aggregated per concept over its k levels. The
  // contributions are standardized first (a softmax temperature choice):
  // with ElasticNet-shrunk weights the raw contributions span a narrow
  // range, and the untempered softmax would wash the ranking out visually.
  std::vector<double> standardized = exp.raw_contributions;
  const double mean = common::mean(standardized);
  const double spread = std::max(1e-9, common::stddev(standardized));
  for (double& v : standardized) v = (v - mean) / spread;
  const std::vector<double> sigma = common::softmax(standardized);
  exp.concept_weights.assign(C, 0.0);
  exp.signed_concept_contributions.assign(C, 0.0);
  exp.dominant_levels.assign(C, 0);
  for (std::size_t c = 0; c < C; ++c) {
    std::size_t best_level = 0;
    for (std::size_t j = 0; j < k; ++j) {
      exp.concept_weights[c] += exp.output_probability * sigma[c * k + j];
      exp.signed_concept_contributions[c] += exp.raw_contributions[c * k + j];
      if (sigma[c * k + j] > sigma[c * k + best_level]) best_level = j;
    }
    // Collapse the k levels into thirds so the annotation reads the same for
    // any quantizer resolution.
    exp.dominant_levels[c] =
        k > 1 ? (3 * best_level) / k : 2;
  }
  return exp;
}

}  // namespace

std::vector<std::size_t> Explanation::top_concepts(std::size_t k) const {
  return common::top_k_indices(concept_weights, k);
}

std::string Explanation::format(std::size_t top_k) const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "Explanation for output class " << output_class
     << " (probability " << output_probability << ", surrogate argmax "
     << predicted_class << ")\n";
  const double max_weight = common::max_value(concept_weights);
  for (std::size_t index : top_concepts(top_k)) {
    const std::string name =
        index < concept_names.size() ? concept_names[index] : "concept-" + std::to_string(index);
    const char* level = "";
    if (index < dominant_levels.size()) {
      static const char* kLevelTags[] = {" (low/absent)", " (medium)", " (high)"};
      level = kLevelTags[std::min<std::size_t>(dominant_levels[index], 2)];
    }
    os << "  " << common::format_double(concept_weights[index], 3) << "  "
       << common::ascii_bar(concept_weights[index],
                            max_weight > 0.0 ? max_weight : 1.0, 30)
       << "  " << name << level << '\n';
  }
  return os.str();
}

Explanation explain_factual(const AguaModel& model, const std::vector<double>& embedding) {
  return explain_one(model, embedding, kFactual);
}

Explanation explain_for_class(const AguaModel& model, const std::vector<double>& embedding,
                              std::size_t output_class) {
  return explain_one(model, embedding, output_class);
}

Explanation explain_batched(const AguaModel& model,
                            const std::vector<std::vector<double>>& embeddings,
                            std::size_t output_class) {
  return explain_batched_isolated(model, embeddings, output_class).aggregate;
}

EachExplainResult explain_each_isolated(const AguaModel& model,
                                        const std::vector<std::vector<double>>& embeddings,
                                        const std::vector<std::size_t>& output_classes) {
  EachExplainResult result;
  result.attempted = embeddings.size();
  result.slots.resize(embeddings.size());
  result.ok.assign(embeddings.size(), 0);
  if (embeddings.empty()) return result;
  obs::TraceSpan span("agua.explain.batch");
  obs::MetricsRegistry::instance().counter("agua.explain.batch.samples")
      .add(embeddings.size());

  // Fan the per-input explanations out across the pool. Each explanation
  // depends only on the (identical) weights of the model that computed it,
  // and callers walk the slots in index order, so both the per-slot results
  // and any aggregate over them are bitwise identical for any pool size.
  //
  // Isolation (§8): each slot validates its input and catches its own
  // exceptions *inside* the worker — a poisoned embedding or a throwing
  // explanation marks one slot failed instead of tearing down the pool.
  common::ThreadPool& pool = common::default_pool();
  std::vector<std::string> slot_error(embeddings.size());
  auto explain_index = [&](const AguaModel& m, std::size_t i) {
    for (double v : embeddings[i]) {
      if (!std::isfinite(v)) {
        slot_error[i] = "non-finite embedding";
        return;
      }
    }
    const std::size_t target = i < output_classes.size() ? output_classes[i] : kFactual;
    if (target != kFactual && target >= m.num_outputs()) {
      slot_error[i] = "output class out of range";
      return;
    }
    try {
      result.slots[i] = target == kFactual ? explain_factual(m, embeddings[i])
                                           : explain_for_class(m, embeddings[i], target);
      result.ok[i] = 1;
    } catch (const std::exception& e) {
      slot_error[i] = e.what();
    }
  };
  if (pool.thread_count() <= 1 || embeddings.size() < 2) {
    for (std::size_t i = 0; i < embeddings.size(); ++i) explain_index(model, i);
  } else {
    // Workers other than the caller run on clones. Inference is const, so
    // they are not needed for safety; they stay until ROADMAP item 1's
    // harness fix lets their removal be measured (see AguaModel::clone).
    std::vector<AguaModel> clones;
    clones.reserve(pool.thread_count() - 1);
    for (std::size_t w = 1; w < pool.thread_count(); ++w) clones.push_back(model.clone());
    obs::parallel_for(pool, "agua.pool.explain_batch", embeddings.size(),
                      [&](std::size_t i, std::size_t worker) {
                        explain_index(worker == 0 ? model : clones[worker - 1], i);
                      });
  }

  for (std::size_t i = 0; i < embeddings.size(); ++i) {
    if (result.ok[i]) {
      ++result.succeeded;
    } else {
      result.errors.push_back(SlotError{i, std::move(slot_error[i])});
    }
  }
  if (!result.errors.empty()) {
    obs::MetricsRegistry::instance().counter("agua.explain.slot_errors")
        .add(result.errors.size());
  }
  return result;
}

Explanation aggregate_explanations(const EachExplainResult& each, std::size_t C,
                                   std::size_t k) {
  Explanation aggregate;
  bool first = true;
  for (std::size_t i = 0; i < each.slots.size(); ++i) {
    if (!each.ok[i]) continue;
    const Explanation& exp = each.slots[i];
    if (first) {
      aggregate = exp;
      first = false;
      continue;
    }
    aggregate.output_probability += exp.output_probability;
    for (std::size_t c = 0; c < aggregate.concept_weights.size(); ++c) {
      aggregate.concept_weights[c] += exp.concept_weights[c];
      aggregate.signed_concept_contributions[c] += exp.signed_concept_contributions[c];
    }
    for (std::size_t j = 0; j < aggregate.raw_contributions.size(); ++j) {
      aggregate.raw_contributions[j] += exp.raw_contributions[j];
    }
  }
  if (each.succeeded == 0) return aggregate;
  const double inv = 1.0 / static_cast<double>(each.succeeded);
  aggregate.output_probability *= inv;
  for (double& w : aggregate.concept_weights) w *= inv;
  for (double& w : aggregate.signed_concept_contributions) w *= inv;
  for (double& w : aggregate.raw_contributions) w *= inv;
  // Re-derive dominant levels from the batch-averaged contributions.
  aggregate.dominant_levels.assign(C, 0);
  for (std::size_t c = 0; c < C; ++c) {
    std::size_t best_level = 0;
    for (std::size_t j = 1; j < k; ++j) {
      if (aggregate.raw_contributions[c * k + j] >
          aggregate.raw_contributions[c * k + best_level]) {
        best_level = j;
      }
    }
    aggregate.dominant_levels[c] = k > 1 ? (3 * best_level) / k : 2;
  }
  return aggregate;
}

BatchExplainResult explain_batched_isolated(
    const AguaModel& model, const std::vector<std::vector<double>>& embeddings,
    std::size_t output_class) {
  BatchExplainResult result;
  result.attempted = embeddings.size();
  if (embeddings.empty()) return result;
  const std::vector<std::size_t> classes(embeddings.size(), output_class);
  EachExplainResult each = explain_each_isolated(model, embeddings, classes);
  result.succeeded = each.succeeded;
  result.errors = std::move(each.errors);
  if (result.succeeded > 0) {
    result.aggregate =
        aggregate_explanations(each, model.num_concepts(), model.num_levels());
  }
  return result;
}

}  // namespace agua::core
