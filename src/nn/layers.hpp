// Neural-network layers with hand-derived backprop.
//
// The Module protocol: forward() caches whatever the layer needs for the
// gradient pass, backward() consumes the gradient w.r.t. the layer output and
// returns the gradient w.r.t. its input, accumulating parameter gradients.
// Call zero_grad() before accumulating a fresh batch.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "nn/tensor.hpp"

namespace agua::nn {

/// A learnable tensor: value plus accumulated gradient of identical shape.
struct Parameter {
  Matrix value;
  Matrix grad;

  explicit Parameter(Matrix v = {}) : value(std::move(v)), grad(value.rows(), value.cols()) {}

  void zero_grad() { grad.fill(0.0); }
};

/// Base class for differentiable layers.
class Module {
 public:
  virtual ~Module() = default;

  virtual Matrix forward(const Matrix& input) = 0;
  virtual Matrix backward(const Matrix& grad_output) = 0;

  /// All learnable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> parameters() { return {}; }

  virtual void save(common::BinaryWriter& w) const = 0;
  /// Reads what save() wrote into this already built module. Weights whose
  /// shapes differ from the built ones, or a layer count or name that does
  /// not match, set the reader's failbit.
  virtual void load(common::BinaryReader& r) = 0;
  virtual std::string name() const = 0;

  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }
};

/// Fully connected layer: y = x W + b, W is (in x out), b is (1 x out).
class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features, common::Rng& rng);

  Matrix forward(const Matrix& input) override;
  Matrix backward(const Matrix& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  void save(common::BinaryWriter& w) const override;
  void load(common::BinaryReader& r) override;
  std::string name() const override { return "Linear"; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  const Parameter& weight() const { return weight_; }
  const Parameter& bias() const { return bias_; }
  std::size_t in_features() const { return weight_.value.rows(); }
  std::size_t out_features() const { return weight_.value.cols(); }

 private:
  Parameter weight_;
  Parameter bias_;
  Matrix cached_input_;
};

/// Elementwise rectified linear unit.
class ReLU : public Module {
 public:
  Matrix forward(const Matrix& input) override;
  Matrix backward(const Matrix& grad_output) override;
  void save(common::BinaryWriter&) const override {}
  void load(common::BinaryReader&) override {}
  std::string name() const override { return "ReLU"; }

 private:
  Matrix cached_input_;
};

/// Elementwise tanh.
class Tanh : public Module {
 public:
  Matrix forward(const Matrix& input) override;
  Matrix backward(const Matrix& grad_output) override;
  void save(common::BinaryWriter&) const override {}
  void load(common::BinaryReader&) override {}
  std::string name() const override { return "Tanh"; }

 private:
  Matrix cached_output_;
};

/// Per-row layer normalization with learnable gain/offset (Ba et al., 2016).
class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::size_t features, double epsilon = 1e-5);

  Matrix forward(const Matrix& input) override;
  Matrix backward(const Matrix& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }
  void save(common::BinaryWriter& w) const override;
  void load(common::BinaryReader& r) override;
  std::string name() const override { return "LayerNorm"; }

 private:
  Parameter gamma_;
  Parameter beta_;
  double epsilon_;
  Matrix cached_normalized_;
  std::vector<double> cached_inv_std_;
};

/// Ordered container of modules applied front to back.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Append a layer; returns *this for chaining.
  Sequential& add(std::unique_ptr<Module> layer);

  Matrix forward(const Matrix& input) override;
  Matrix backward(const Matrix& grad_output) override;
  std::vector<Parameter*> parameters() override;
  void save(common::BinaryWriter& w) const override;
  void load(common::BinaryReader& r) override;
  std::string name() const override { return "Sequential"; }

  std::size_t layer_count() const { return layers_.size(); }
  Module& layer(std::size_t i) { return *layers_[i]; }

 private:
  std::vector<std::unique_ptr<Module>> layers_;
};

/// Builds the standard 2-layer MLP used across this codebase:
/// Linear(in, hidden) -> ReLU -> Linear(hidden, out).
std::unique_ptr<Sequential> make_mlp(std::size_t in, std::size_t hidden, std::size_t out,
                                     common::Rng& rng);

/// Builds Agua's concept-mapping topology (§4 of the paper):
/// Linear -> ReLU -> LayerNorm -> Linear.
std::unique_ptr<Sequential> make_concept_mapping_net(std::size_t in, std::size_t hidden,
                                                     std::size_t out, common::Rng& rng);

}  // namespace agua::nn
