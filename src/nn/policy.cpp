#include "nn/policy.hpp"

#include <cassert>

#include "common/stats.hpp"
#include "nn/loss.hpp"

namespace agua::nn {

PolicyNetwork::PolicyNetwork(Config config, common::Rng& rng) : config_(config) {
  embedding_net_ = std::make_unique<Sequential>();
  embedding_net_->add(std::make_unique<Linear>(config_.input_dim, config_.hidden_dim, rng));
  embedding_net_->add(std::make_unique<ReLU>());
  embedding_net_->add(
      std::make_unique<Linear>(config_.hidden_dim, config_.embed_dim, rng));
  embedding_net_->add(std::make_unique<Tanh>());
  head_ = std::make_unique<Linear>(config_.embed_dim, config_.num_outputs, rng);
}

std::vector<double> PolicyNetwork::normalize(const std::vector<double>& input) const {
  if (config_.input_scales.empty()) return input;
  assert(input.size() == config_.input_scales.size());
  std::vector<double> out(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    const double s = config_.input_scales[i];
    out[i] = s != 0.0 ? input[i] / s : input[i];
  }
  return out;
}

Matrix PolicyNetwork::normalize_batch(const Matrix& inputs) const {
  if (config_.input_scales.empty()) return inputs;
  Matrix out = inputs;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    double* row = out.row_data(r);
    for (std::size_t c = 0; c < out.cols(); ++c) {
      const double s = config_.input_scales[c];
      if (s != 0.0) row[c] /= s;
    }
  }
  return out;
}

std::vector<double> PolicyNetwork::embedding(const std::vector<double>& input) const {
  return embedding_net_->infer(Matrix::row_vector(normalize(input))).row(0);
}

Matrix PolicyNetwork::embedding_batch(const Matrix& inputs) const {
  return embedding_net_->infer(normalize_batch(inputs));
}

Matrix PolicyNetwork::forward_logits(const Matrix& normalized) {
  return head_->forward(embedding_net_->forward(normalized));
}

void PolicyNetwork::backward_logits(const Matrix& grad_logits) {
  embedding_net_->backward(head_->backward(grad_logits));
}

std::vector<double> PolicyNetwork::logits(const std::vector<double>& input) const {
  return head_->infer(embedding_net_->infer(Matrix::row_vector(normalize(input)))).row(0);
}

std::vector<double> PolicyNetwork::output_probs(const std::vector<double>& input) const {
  return common::softmax(logits(input));
}

std::size_t PolicyNetwork::greedy_action(const std::vector<double>& input) const {
  return common::argmax(logits(input));
}

std::size_t PolicyNetwork::sample_action(const std::vector<double>& input,
                                         common::Rng& rng) const {
  return rng.categorical(output_probs(input));
}

double PolicyNetwork::train_supervised_epoch(const std::vector<std::vector<double>>& inputs,
                                             const std::vector<std::size_t>& targets,
                                             std::size_t batch_size, SgdOptimizer& optimizer,
                                             common::Rng& rng) {
  assert(inputs.size() == targets.size());
  const auto order = rng.permutation(inputs.size());
  double total_loss = 0.0;
  std::size_t batches = 0;
  for (std::size_t start = 0; start < order.size(); start += batch_size) {
    const std::size_t end = std::min(order.size(), start + batch_size);
    std::vector<std::vector<double>> batch;
    std::vector<std::size_t> batch_targets;
    batch.reserve(end - start);
    for (std::size_t i = start; i < end; ++i) {
      batch.push_back(normalize(inputs[order[i]]));
      batch_targets.push_back(targets[order[i]]);
    }
    optimizer.zero_grad();
    const Matrix logits_batch = forward_logits(Matrix::from_rows(batch));
    Matrix grad;
    total_loss += cross_entropy_loss(logits_batch, batch_targets, grad);
    backward_logits(grad);
    optimizer.step();
    ++batches;
  }
  return batches > 0 ? total_loss / static_cast<double>(batches) : 0.0;
}

double PolicyNetwork::policy_gradient_update(const std::vector<std::vector<double>>& inputs,
                                             const std::vector<std::size_t>& actions,
                                             const std::vector<double>& advantages,
                                             double entropy_coef, SgdOptimizer& optimizer) {
  std::vector<std::vector<double>> normalized;
  normalized.reserve(inputs.size());
  for (const auto& x : inputs) normalized.push_back(normalize(x));
  optimizer.zero_grad();
  const Matrix logits_batch = forward_logits(Matrix::from_rows(normalized));
  Matrix grad;
  const double monitor =
      policy_gradient_loss(logits_batch, actions, advantages, entropy_coef, grad);
  backward_logits(grad);
  optimizer.step();
  return monitor;
}

std::vector<Parameter*> PolicyNetwork::parameters() {
  std::vector<Parameter*> params = embedding_net_->parameters();
  for (Parameter* p : head_->parameters()) params.push_back(p);
  return params;
}

void PolicyNetwork::save(common::BinaryWriter& w) const {
  w.write_u64(config_.input_dim);
  w.write_u64(config_.hidden_dim);
  w.write_u64(config_.embed_dim);
  w.write_u64(config_.num_outputs);
  w.write_doubles(config_.input_scales);
  embedding_net_->save(w);
  head_->save(w);
}

void PolicyNetwork::load(common::BinaryReader& r) {
  config_.input_dim = r.read_u64();
  config_.hidden_dim = r.read_u64();
  config_.embed_dim = r.read_u64();
  config_.num_outputs = r.read_u64();
  config_.input_scales = r.read_doubles();
  embedding_net_->load(r);
  head_->load(r);
}

}  // namespace agua::nn
