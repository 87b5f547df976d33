#include "core/labeler.hpp"

#include <algorithm>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "obs/parallel.hpp"
#include "obs/trace.hpp"

namespace agua::core {

ConceptLabeler::ConceptLabeler(concepts::ConceptSet concept_set, text::TextEmbedder embedder,
                               text::SimilarityQuantizer quantizer)
    : concepts_(std::move(concept_set)),
      embedder_(std::move(embedder)),
      quantizer_(std::move(quantizer)) {}

std::vector<std::vector<double>> ConceptLabeler::fit(
    const std::vector<std::string>& descriptions, bool calibrate_quantizer) {
  obs::TraceSpan span("agua.labeler.fit");
  std::vector<std::string> corpus = descriptions;
  for (const auto& textual : concepts_.embedding_texts()) corpus.push_back(textual);
  embedder_.fit(corpus);
  concept_embeddings_.clear();
  concept_embeddings_.reserve(concepts_.size());
  for (const auto& textual : concepts_.embedding_texts()) {
    concept_embeddings_.push_back(embedder_.embed(textual));
  }
  // Embeddings (and, for calibration, similarity vectors) are independent
  // const computations per description; fan them out, writing each slot by
  // index.
  const bool calibrate = calibrate_quantizer && !descriptions.empty();
  std::vector<std::vector<double>> embeddings(descriptions.size());
  std::vector<std::vector<double>> description_sims(calibrate ? descriptions.size() : 0);
  if (!descriptions.empty()) {
    obs::parallel_for(common::default_pool(), "agua.pool.labeler_fit", descriptions.size(),
                      [&](std::size_t i, std::size_t) {
                        embeddings[i] = embed(descriptions[i]);
                        if (calibrate) {
                          description_sims[i] = similarities_from_embedding(embeddings[i]);
                        }
                      });
  }
  per_concept_quantizers_.clear();
  if (calibrate) {
    // Replace the fixed cosine bins with *per-concept* corpus percentiles so
    // that every concept's similarity spans all k classes regardless of the
    // embedding family's cosine range (hashed n-gram cosines sit lower than
    // dense-model cosines and vary with concept text length). Scatter the
    // similarity vectors into per-concept columns in index order.
    std::vector<std::vector<double>> sims_per_concept(concepts_.size());
    for (const auto& sims : description_sims) {
      for (std::size_t c = 0; c < sims.size(); ++c) {
        sims_per_concept[c].push_back(sims[c]);
      }
    }
    const std::size_t k = quantizer_.num_levels();
    per_concept_quantizers_.reserve(concepts_.size());
    for (std::size_t c = 0; c < concepts_.size(); ++c) {
      std::vector<double> thresholds;
      for (std::size_t level = 1; level < k; ++level) {
        const double pct = 100.0 * static_cast<double>(level) / static_cast<double>(k);
        thresholds.push_back(common::percentile(sims_per_concept[c], pct));
      }
      bool increasing = true;
      for (std::size_t i = 1; i < thresholds.size(); ++i) {
        if (thresholds[i] <= thresholds[i - 1]) increasing = false;
      }
      // Degenerate (near-constant) similarity: fall back to the global bins.
      per_concept_quantizers_.push_back(
          increasing ? text::SimilarityQuantizer(std::move(thresholds)) : quantizer_);
    }
  }
  return embeddings;
}

std::vector<double> ConceptLabeler::embed(const std::string& description) const {
  return embedder_.embed(description);
}

std::vector<double> ConceptLabeler::similarities(const std::string& description) const {
  return similarities_from_embedding(embed(description));
}

std::vector<double> ConceptLabeler::similarities_from_embedding(
    const std::vector<double>& description_embedding) const {
  static obs::Counter& tags =
      obs::MetricsRegistry::instance().counter("agua.labeler.similarity");
  tags.add(1);
  std::vector<double> sims;
  sims.reserve(concept_embeddings_.size());
  for (const auto& concept_embedding : concept_embeddings_) {
    sims.push_back(text::cosine_similarity(description_embedding, concept_embedding));
  }
  return sims;
}

std::vector<std::size_t> ConceptLabeler::levels(const std::string& description) const {
  return levels_from_similarities(similarities(description));
}

std::vector<std::size_t> ConceptLabeler::levels_from_similarities(
    const std::vector<double>& sims) const {
  std::vector<std::size_t> out;
  out.reserve(sims.size());
  for (std::size_t c = 0; c < sims.size(); ++c) {
    const text::SimilarityQuantizer& q =
        c < per_concept_quantizers_.size() ? per_concept_quantizers_[c] : quantizer_;
    out.push_back(q.quantize(sims[c]));
  }
  return out;
}

}  // namespace agua::core
