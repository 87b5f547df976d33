// Text-embedding substrate standing in for the paper's OpenAI-large /
// BAAI BGE-M3 models (see DESIGN.md substitution table).
//
// The embedder is a feature-hashing model: every token (word, word bigram,
// character trigram) is hashed — with a variant-specific seed — to a handful
// of coordinates with ±1 signs; token weights are log(1+tf) scaled by an
// IDF table fitted on a corpus. The resulting vectors are L2-normalized so
// dot products are cosine similarities.
//
// Two standard parameterizations mirror Table 2's open-source vs
// closed-source embedding stacks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace agua::text {

/// Configuration of a hashed-n-gram embedding model.
struct EmbedderConfig {
  std::size_t dim = 384;       ///< Embedding dimensionality.
  std::uint64_t seed = 1;      ///< Hash seed; distinct seeds = distinct "models".
  std::size_t hashes = 3;      ///< Coordinates each token touches.
  double char_gram_weight = 0.3;  ///< Relative weight of character trigrams.
  bool use_idf = true;         ///< Apply fitted IDF weights (1.0 before fit()).
};

/// Returns the config standing in for the open-source stack (BGE-M3).
EmbedderConfig open_source_embedder_config();

/// Returns the config standing in for the closed-source stack (OpenAI large).
EmbedderConfig closed_source_embedder_config();

class TextEmbedder {
 public:
  explicit TextEmbedder(EmbedderConfig config = {});

  /// Fit document frequencies over a corpus; enables IDF weighting. Counts
  /// over `common::default_pool()`; the table is the same for any pool size,
  /// and a call from inside a pool task counts serially.
  void fit(const std::vector<std::string>& corpus);

  /// Embed a text into an L2-normalized vector of config().dim entries.
  std::vector<double> embed(std::string_view text) const;

  const EmbedderConfig& config() const { return config_; }
  bool fitted() const { return documents_seen_ > 0; }

 private:
  double idf(const std::string& token) const;

  EmbedderConfig config_;
  std::unordered_map<std::string, std::size_t> document_frequency_;
  std::size_t documents_seen_ = 0;
};

/// Cosine similarity of two equal-length vectors (0 if either is zero).
double cosine_similarity(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace agua::text
