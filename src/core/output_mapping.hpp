// Step ⑤ of Fig. 2: the output mapping function Ω (eq. 5) — a single linear
// layer from the concept space back to the controller's output space, trained
// with mini-batch SGD against the controller's output distribution and
// ElasticNet-regularized (eq. 6) with the paper's hyperparameters
// (batch 200, lr 0.075, 500 epochs, α 0.95, coefficient 1e-5).
//
// Ω is the self-interpretable point of explanation: its weight matrix W is
// what explanations decompose (eq. 7/8).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/train_observer.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"

namespace agua::core {

class OutputMapping {
 public:
  struct Config {
    std::size_t concept_dim = 0;  ///< C*k
    std::size_t num_outputs = 0;  ///< n
    // Paper §4 training parameters.
    std::size_t epochs = 500;
    std::size_t batch_size = 200;
    double learning_rate = 0.075;
    double elastic_alpha = 0.95;
    double elastic_coef = 1e-5;
    /// Per-epoch telemetry callback; empty (the default) adds zero work and
    /// keeps training bitwise identical to an observer-free build.
    TrainObserver observer;
    /// Crash-safe checkpointing (DESIGN.md §8); see ConceptMapping::Config.
    std::function<void(const TrainCheckpoint&)> checkpoint_sink;
    std::size_t checkpoint_every = 0;
    const TrainCheckpoint* resume = nullptr;
  };

  OutputMapping(Config config, common::Rng& rng);

  /// Train against the controller's output distributions (soft targets),
  /// minimizing cross-entropy + ElasticNet. Returns the final epoch loss.
  /// Gradients are computed in fixed 16-row chunks over
  /// `common::default_pool()` and reduced in chunk order — bitwise identical
  /// for any pool size (DESIGN.md §7).
  double train(const nn::Matrix& concept_probs, const nn::Matrix& target_probs,
               common::Rng& rng);

  /// Ω(z): raw logits over the n output classes. Const inference
  /// (nn::Module::infer), safe to call from several threads at once.
  std::vector<double> logits(const std::vector<double>& concept_probs) const;
  nn::Matrix logits_batch(const nn::Matrix& concept_probs) const;

  /// W, stored (C*k x n): class i's weights over the concept space are
  /// column i.
  const nn::Matrix& weights() const { return layer_->weight().value; }
  /// Column i of W, copied (weights of output class i over the C*k concept
  /// space).
  std::vector<double> class_weights(std::size_t output_class) const;
  double class_bias(std::size_t output_class) const;

  const Config& config() const { return config_; }

  /// The ElasticNet penalty of the current weights (monitoring / tests).
  double elastic_penalty() const;

  void save(common::BinaryWriter& w) const;
  /// Reads what save() wrote. A width of 0 or above nn::kMaxLoadWidth sets
  /// the reader's failbit before the layer is built.
  static OutputMapping load(common::BinaryReader& r);

 private:
  Config config_;
  std::unique_ptr<nn::Linear> layer_;
};

}  // namespace agua::core
