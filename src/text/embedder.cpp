#include "text/embedder.hpp"

#include <cmath>
#include <unordered_set>

#include "common/thread_pool.hpp"
#include "obs/parallel.hpp"
#include "obs/trace.hpp"
#include "text/tokenizer.hpp"

namespace agua::text {
namespace {

// FNV-1a with a seed fold, giving variant-specific hash families.
std::uint64_t hash_token(std::string_view token, std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t h = 1469598103934665603ULL ^ (seed * 0x9E3779B97F4A7C15ULL) ^
                    (salt * 0xC2B2AE3D27D4EB4FULL);
  for (char c : token) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

EmbedderConfig open_source_embedder_config() {
  EmbedderConfig cfg;
  cfg.dim = 256;
  cfg.seed = 0xB16E33ULL;  // "bge-m3"
  return cfg;
}

EmbedderConfig closed_source_embedder_config() {
  EmbedderConfig cfg;
  cfg.dim = 384;
  cfg.seed = 0x0A1ALL;  // "oai-large"
  return cfg;
}

TextEmbedder::TextEmbedder(EmbedderConfig config) : config_(config) {}

void TextEmbedder::fit(const std::vector<std::string>& corpus) {
  // Each pool worker counts the documents it claims into its own table; the
  // tables are then summed. The counts are integers, so the result does not
  // depend on which worker counted what. A nested pool region throws, so a
  // fit called from inside a pool task counts on its own thread.
  common::ThreadPool& pool = common::default_pool();
  const bool nested = common::ThreadPool::in_parallel_region();
  std::vector<std::unordered_map<std::string, std::size_t>> counts(
      nested ? 1 : pool.thread_count());
  auto count_document = [&](std::size_t i, std::size_t worker) {
    std::unordered_set<std::string> seen;
    for (auto& token : all_tokens(corpus[i])) seen.insert(std::move(token));
    for (const auto& token : seen) ++counts[worker][token];
  };
  if (nested) {
    for (std::size_t i = 0; i < corpus.size(); ++i) count_document(i, 0);
  } else {
    obs::parallel_for(pool, "agua.pool.embedder_fit", corpus.size(), count_document);
  }
  for (const auto& table : counts) {
    for (const auto& [token, n] : table) document_frequency_[token] += n;
  }
  documents_seen_ += corpus.size();
}

double TextEmbedder::idf(const std::string& token) const {
  if (!config_.use_idf || documents_seen_ == 0) return 1.0;
  const auto it = document_frequency_.find(token);
  const double df = it != document_frequency_.end() ? static_cast<double>(it->second) : 0.0;
  // Smoothed IDF; unseen tokens get the maximum weight.
  return std::log((1.0 + static_cast<double>(documents_seen_)) / (1.0 + df)) + 1.0;
}

std::vector<double> TextEmbedder::embed(std::string_view text) const {
  static obs::Histogram& latency =
      obs::MetricsRegistry::instance().histogram("agua.text.embed");
  obs::ScopedTimer timer(latency);
  std::vector<double> vec(config_.dim, 0.0);
  // Term frequencies over the token stream.
  std::unordered_map<std::string, std::size_t> tf;
  for (auto& token : all_tokens(text)) ++tf[token];
  for (const auto& [token, count] : tf) {
    double weight = std::log1p(static_cast<double>(count)) * idf(token);
    // Character trigrams are softer evidence than words/bigrams; the boundary
    // markers inserted by the tokenizer identify them.
    const bool trigram = token.size() == 3 &&
                         (token.front() == '^' || token.back() == '$');
    if (trigram) weight *= config_.char_gram_weight;
    for (std::size_t k = 0; k < config_.hashes; ++k) {
      const std::uint64_t h = hash_token(token, config_.seed, k);
      const std::size_t index = h % config_.dim;
      const double sign = (h >> 63) ? 1.0 : -1.0;
      vec[index] += sign * weight;
    }
  }
  // L2 normalize so dot product == cosine similarity.
  double norm = 0.0;
  for (double x : vec) norm += x * x;
  if (norm > 0.0) {
    norm = std::sqrt(norm);
    for (double& x : vec) x /= norm;
  }
  return vec;
}

double cosine_similarity(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

}  // namespace agua::text
