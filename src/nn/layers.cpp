#include "nn/layers.hpp"

#include <cmath>

namespace agua::nn {
namespace {

bool same_shape(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols();
}

}  // namespace

Linear::Linear(std::size_t in_features, std::size_t out_features, common::Rng& rng)
    : weight_(Matrix(in_features, out_features)), bias_(Matrix(1, out_features)) {
  weight_.value.xavier_init(rng);
}

Matrix Linear::infer(const Matrix& input) const {
  Matrix out = input.matmul(weight_.value);
  out.add_row_broadcast(bias_.value);
  return out;
}

Matrix Linear::forward(const Matrix& input) {
  cached_input_ = input;
  return infer(input);
}

Matrix Linear::backward(const Matrix& grad_output) {
  weight_.grad.add(cached_input_.transpose_matmul(grad_output));
  bias_.grad.add(grad_output.column_sums());
  return grad_output.matmul_transpose(weight_.value);
}

void Linear::save(common::BinaryWriter& w) const {
  weight_.value.save(w);
  bias_.value.save(w);
}

void Linear::load(common::BinaryReader& r) {
  Matrix weight = Matrix::load(r);
  Matrix bias = Matrix::load(r);
  if (!same_shape(weight, weight_.value) || !same_shape(bias, bias_.value)) {
    r.stream().setstate(std::ios::failbit);
    return;
  }
  weight_ = Parameter(std::move(weight));
  bias_ = Parameter(std::move(bias));
}

Matrix ReLU::infer(const Matrix& input) const {
  Matrix out = input;
  out.apply([](double x) { return x > 0.0 ? x : 0.0; });
  return out;
}

Matrix ReLU::forward(const Matrix& input) {
  cached_input_ = input;
  return infer(input);
}

Matrix ReLU::backward(const Matrix& grad_output) {
  Matrix grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (cached_input_.data()[i] <= 0.0) grad.data()[i] = 0.0;
  }
  return grad;
}

Matrix Tanh::infer(const Matrix& input) const {
  Matrix out = input;
  out.apply([](double x) { return std::tanh(x); });
  return out;
}

Matrix Tanh::forward(const Matrix& input) {
  cached_output_ = infer(input);
  return cached_output_;
}

Matrix Tanh::backward(const Matrix& grad_output) {
  Matrix grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const double y = cached_output_.data()[i];
    grad.data()[i] *= (1.0 - y * y);
  }
  return grad;
}

LayerNorm::LayerNorm(std::size_t features, double epsilon)
    : gamma_(Matrix(1, features, 1.0)), beta_(Matrix(1, features, 0.0)), epsilon_(epsilon) {}

Matrix LayerNorm::normalize(const Matrix& input, Matrix* normalized,
                           std::vector<double>* inv_stds) const {
  const std::size_t n = input.cols();
  Matrix out(input.rows(), n);
  for (std::size_t r = 0; r < input.rows(); ++r) {
    const double* x = input.row_data(r);
    double mean = 0.0;
    for (std::size_t j = 0; j < n; ++j) mean += x[j];
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (std::size_t j = 0; j < n; ++j) var += (x[j] - mean) * (x[j] - mean);
    var /= static_cast<double>(n);
    const double inv_std = 1.0 / std::sqrt(var + epsilon_);
    if (inv_stds != nullptr) (*inv_stds)[r] = inv_std;
    double* norm = normalized != nullptr ? normalized->row_data(r) : nullptr;
    double* o = out.row_data(r);
    for (std::size_t j = 0; j < n; ++j) {
      const double v = (x[j] - mean) * inv_std;
      if (norm != nullptr) norm[j] = v;
      o[j] = v * gamma_.value.at(0, j) + beta_.value.at(0, j);
    }
  }
  return out;
}

Matrix LayerNorm::infer(const Matrix& input) const {
  return normalize(input, nullptr, nullptr);
}

Matrix LayerNorm::forward(const Matrix& input) {
  cached_normalized_ = Matrix(input.rows(), input.cols());
  cached_inv_std_.assign(input.rows(), 0.0);
  return normalize(input, &cached_normalized_, &cached_inv_std_);
}

Matrix LayerNorm::backward(const Matrix& grad_output) {
  const std::size_t n = grad_output.cols();
  Matrix grad_in(grad_output.rows(), n);
  for (std::size_t r = 0; r < grad_output.rows(); ++r) {
    const double* g = grad_output.row_data(r);
    const double* norm = cached_normalized_.row_data(r);
    // Parameter gradients.
    for (std::size_t j = 0; j < n; ++j) {
      gamma_.grad.at(0, j) += g[j] * norm[j];
      beta_.grad.at(0, j) += g[j];
    }
    // Gradient through the normalization (standard layer-norm backward).
    double sum_gh = 0.0;       // sum of g * gamma
    double sum_gh_norm = 0.0;  // sum of g * gamma * normalized
    for (std::size_t j = 0; j < n; ++j) {
      const double gh = g[j] * gamma_.value.at(0, j);
      sum_gh += gh;
      sum_gh_norm += gh * norm[j];
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    double* gi = grad_in.row_data(r);
    for (std::size_t j = 0; j < n; ++j) {
      const double gh = g[j] * gamma_.value.at(0, j);
      gi[j] = cached_inv_std_[r] * (gh - inv_n * sum_gh - norm[j] * inv_n * sum_gh_norm);
    }
  }
  return grad_in;
}

void LayerNorm::save(common::BinaryWriter& w) const {
  gamma_.value.save(w);
  beta_.value.save(w);
  w.write_double(epsilon_);
}

void LayerNorm::load(common::BinaryReader& r) {
  Matrix gamma = Matrix::load(r);
  Matrix beta = Matrix::load(r);
  const double epsilon = r.read_double();
  if (!same_shape(gamma, gamma_.value) || !same_shape(beta, beta_.value)) {
    r.stream().setstate(std::ios::failbit);
    return;
  }
  gamma_ = Parameter(std::move(gamma));
  beta_ = Parameter(std::move(beta));
  epsilon_ = epsilon;
}

Sequential& Sequential::add(std::unique_ptr<Module> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

Matrix Sequential::infer(const Matrix& input) const {
  if (layers_.empty()) return input;
  Matrix x = layers_.front()->infer(input);
  for (std::size_t i = 1; i < layers_.size(); ++i) x = layers_[i]->infer(x);
  return x;
}

Matrix Sequential::forward(const Matrix& input) {
  Matrix x = input;
  for (auto& layer : layers_) x = layer->forward(x);
  return x;
}

Matrix Sequential::backward(const Matrix& grad_output) {
  Matrix g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

void Sequential::save(common::BinaryWriter& w) const {
  w.write_u64(layers_.size());
  for (const auto& layer : layers_) {
    w.write_string(layer->name());
    layer->save(w);
  }
}

void Sequential::load(common::BinaryReader& r) {
  // The architecture is built before loading; a mismatch is corruption.
  if (r.read_u64() != layers_.size()) {
    r.stream().setstate(std::ios::failbit);
    return;
  }
  for (auto& layer : layers_) {
    if (r.read_string() != layer->name()) {
      r.stream().setstate(std::ios::failbit);
      return;
    }
    layer->load(r);
  }
}

std::unique_ptr<Sequential> make_mlp(std::size_t in, std::size_t hidden, std::size_t out,
                                     common::Rng& rng) {
  auto net = std::make_unique<Sequential>();
  net->add(std::make_unique<Linear>(in, hidden, rng));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<Linear>(hidden, out, rng));
  return net;
}

std::unique_ptr<Sequential> make_concept_mapping_net(std::size_t in, std::size_t hidden,
                                                     std::size_t out, common::Rng& rng) {
  auto net = std::make_unique<Sequential>();
  net->add(std::make_unique<Linear>(in, hidden, rng));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<LayerNorm>(hidden));
  net->add(std::make_unique<Linear>(hidden, out, rng));
  return net;
}

}  // namespace agua::nn
