// Step ④ of Fig. 2: the concept mapping function δθ (eq. 3/4) — a
// Linear → ReLU → LayerNorm → Linear network from the controller's embedding
// space to the C×k concept-similarity space, trained as per-concept
// multi-label classification with the paper's hyperparameters (batch 100,
// lr 0.005, 200 epochs, SGD momentum 0.25).
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

class ConceptMapping {
 public:
  struct Config {
    std::size_t embedding_dim = 0;  ///< H: controller embedding width
    std::size_t num_concepts = 0;   ///< C
    std::size_t num_levels = 3;     ///< k
    std::size_t hidden_dim = 64;
    // Paper §4 training parameters.
    std::size_t epochs = 200;
    std::size_t batch_size = 100;
    double learning_rate = 0.005;
    double momentum = 0.25;
    /// Per-epoch telemetry callback; empty (the default) adds zero work and
    /// keeps training bitwise identical to an observer-free build.
    TrainObserver observer;
    /// Crash-safe checkpointing (DESIGN.md §8). With `checkpoint_every > 0`,
    /// `checkpoint_sink` receives a resumable snapshot after every N-th epoch
    /// and after the final one. `resume` (borrowed; must outlive train())
    /// restores such a snapshot, and the remaining epochs produce weights
    /// bitwise identical to an uninterrupted run.
    std::function<void(const TrainCheckpoint&)> checkpoint_sink;
    std::size_t checkpoint_every = 0;
    const TrainCheckpoint* resume = nullptr;
  };

  ConceptMapping(Config config, common::Rng& rng);

  /// Train against quantized similarity labels (one class per concept per
  /// sample). Returns the final epoch's mean loss. Minibatch gradients are
  /// computed in fixed 16-row chunks fanned out over
  /// `common::default_pool()` and reduced in chunk order, so the result is
  /// bitwise identical for any pool size (DESIGN.md §7).
  double train(const std::vector<std::vector<double>>& embeddings,
               const std::vector<std::vector<std::size_t>>& levels, common::Rng& rng);

  /// δθ(h): per-(concept, level) probabilities (softmax within each concept's
  /// k-block), flattened to C*k. Const inference (nn::Module::infer), safe
  /// to call from several threads at once. Every row counts once in the
  /// `agua.surrogate.forward` counter.
  std::vector<double> concept_probs(const std::vector<double>& embedding) const;
  nn::Matrix concept_probs_batch(const nn::Matrix& embeddings) const;

  /// Per-concept predicted similarity level (argmax within each block).
  std::vector<std::size_t> predict_levels(const std::vector<double>& embedding) const;

  const Config& config() const { return config_; }
  std::size_t output_dim() const { return config_.num_concepts * config_.num_levels; }

  void save(common::BinaryWriter& w) const;
  /// Reads what save() wrote. A width of 0 or above nn::kMaxLoadWidth
  /// (C*k included) sets the reader's failbit before any layer is built.
  static ConceptMapping load(common::BinaryReader& r);

 private:
  nn::Matrix block_softmax(const nn::Matrix& logits) const;

  Config config_;
  std::unique_ptr<nn::Sequential> net_;
};

}  // namespace agua::core
