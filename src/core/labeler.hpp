// Stage ③ of Fig. 2, "Input Concept Embedding": embeds base concepts and
// input descriptions with a text-embedding model, measures cosine similarity
// (eq. 2), and quantizes into the k similarity classes that supervise the
// concept mapping function.
#pragma once

#include <string>
#include <vector>

#include "concepts/concept_set.hpp"
#include "text/embedder.hpp"
#include "text/similarity.hpp"

namespace agua::core {

class ConceptLabeler {
 public:
  ConceptLabeler(concepts::ConceptSet concept_set, text::TextEmbedder embedder,
                 text::SimilarityQuantizer quantizer);

  /// Fit the embedder's IDF table on the description corpus (plus concept
  /// texts) and cache concept embeddings. Optionally recalibrates the
  /// quantizer thresholds to *per-concept* corpus percentiles so every
  /// concept's similarity spans all k classes — hashed-n-gram cosine scales
  /// vary with concept text length, so a single absolute bin set would pin
  /// most concepts to one class (see DESIGN.md deviations).
  ///
  /// Returns every description's embedding under the fitted embedder, in
  /// order: fit embeds each description once, and callers reuse the result
  /// instead of embedding it again.
  std::vector<std::vector<double>> fit(const std::vector<std::string>& descriptions,
                                       bool calibrate_quantizer);

  /// Embedding of an input description.
  std::vector<double> embed(const std::string& description) const;

  /// Cosine similarity of a description to every base concept (eq. 2, before
  /// quantization).
  std::vector<double> similarities(const std::string& description) const;
  std::vector<double> similarities_from_embedding(
      const std::vector<double>& description_embedding) const;

  /// ψ_k-quantized similarity class per concept.
  std::vector<std::size_t> levels(const std::string& description) const;
  std::vector<std::size_t> levels_from_similarities(
      const std::vector<double>& sims) const;

  const concepts::ConceptSet& concept_set() const { return concepts_; }
  const text::SimilarityQuantizer& quantizer() const { return quantizer_; }
  const text::TextEmbedder& embedder() const { return embedder_; }
  std::size_t num_levels() const { return quantizer_.num_levels(); }

 private:
  concepts::ConceptSet concepts_;
  text::TextEmbedder embedder_;
  text::SimilarityQuantizer quantizer_;
  /// Per-concept calibrated quantizers (empty = use the global quantizer).
  std::vector<text::SimilarityQuantizer> per_concept_quantizers_;
  std::vector<std::vector<double>> concept_embeddings_;
};

}  // namespace agua::core
