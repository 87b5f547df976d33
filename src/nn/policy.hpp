// PolicyNetwork: the controller architecture shared by the three
// learning-enabled systems in the paper — an embedding network h(x) followed
// by a linear output head. Agua's concept mapping consumes h(x) (§3.4), so
// the embedding is a first-class output here.
//
// Supports the three training regimes used in the reproduction: supervised
// cross-entropy (LUCID / behaviour cloning), soft-target distillation, and
// REINFORCE-with-baseline policy gradients (Gelato fine-tuning, Aurora).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "nn/layers.hpp"
#include "nn/optim.hpp"

namespace agua::nn {

class PolicyNetwork {
 public:
  struct Config {
    std::size_t input_dim = 0;
    std::size_t hidden_dim = 64;
    std::size_t embed_dim = 32;
    std::size_t num_outputs = 2;
    /// Per-feature divisors applied before the network (empty = identity).
    std::vector<double> input_scales;
  };

  PolicyNetwork(Config config, common::Rng& rng);

  const Config& config() const { return config_; }

  /// Scale a raw observation by the configured input scales.
  std::vector<double> normalize(const std::vector<double>& input) const;
  Matrix normalize_batch(const Matrix& inputs) const;

  /// h(x): the controller's embedding of one observation.
  std::vector<double> embedding(const std::vector<double>& input) const;
  /// h(x) for a batch (rows).
  Matrix embedding_batch(const Matrix& inputs) const;

  /// Output logits / probabilities for one observation.
  std::vector<double> logits(const std::vector<double>& input) const;
  std::vector<double> output_probs(const std::vector<double>& input) const;

  std::size_t greedy_action(const std::vector<double>& input) const;
  std::size_t sample_action(const std::vector<double>& input, common::Rng& rng) const;

  /// One supervised epoch over shuffled mini-batches; returns mean loss.
  double train_supervised_epoch(const std::vector<std::vector<double>>& inputs,
                                const std::vector<std::size_t>& targets,
                                std::size_t batch_size, SgdOptimizer& optimizer,
                                common::Rng& rng);

  /// One REINFORCE update over a batch of (state, action, advantage).
  /// Returns the monitoring loss.
  double policy_gradient_update(const std::vector<std::vector<double>>& inputs,
                                const std::vector<std::size_t>& actions,
                                const std::vector<double>& advantages,
                                double entropy_coef, SgdOptimizer& optimizer);

  std::vector<Parameter*> parameters();

  void save(common::BinaryWriter& w) const;
  void load(common::BinaryReader& r);

 private:
  Matrix forward_logits(const Matrix& normalized);
  void backward_logits(const Matrix& grad_logits);

  Config config_;
  std::unique_ptr<Sequential> embedding_net_;
  std::unique_ptr<Linear> head_;
};

}  // namespace agua::nn
