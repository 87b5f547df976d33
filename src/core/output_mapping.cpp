#include "core/output_mapping.hpp"

#include <algorithm>

#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "core/train_guard.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "obs/parallel.hpp"

namespace agua::core {
namespace {

// Same fixed chunk width as ConceptMapping::train — see the determinism
// contract in DESIGN.md §7.
constexpr std::size_t kGradChunkRows = 16;

}  // namespace

OutputMapping::OutputMapping(Config config, common::Rng& rng) : config_(config) {
  layer_ = std::make_unique<nn::Linear>(config_.concept_dim, config_.num_outputs, rng);
}

double OutputMapping::train(const nn::Matrix& concept_probs, const nn::Matrix& target_probs,
                            common::Rng& rng) {
  nn::SgdOptimizer::Options opt;
  opt.learning_rate = config_.learning_rate;
  opt.momentum = 0.0;
  opt.gradient_clip = 5.0;
  nn::SgdOptimizer optimizer(layer_->parameters(), opt);
  // The live rate: backed off by the non-finite guard, restored on recovery,
  // and carried through checkpoints.
  double& lr = optimizer.options().learning_rate;
  NonFiniteGuard guard("output", config_.learning_rate);

  // Per-worker layer replicas (Linear caches its forward input), re-synced to
  // the master weights once per step. See ConceptMapping::train for the
  // data-parallel scheme; gradients reduce in fixed chunk order.
  common::ThreadPool& pool = common::default_pool();
  const std::vector<nn::Parameter*> master_params = layer_->parameters();
  std::vector<std::unique_ptr<nn::Linear>> replicas(pool.thread_count());
  std::vector<std::vector<nn::Parameter*>> replica_params(replicas.size());
  {
    common::Rng scratch(0);  // replica init weights are overwritten by syncs
    for (std::size_t w = 0; w < replicas.size(); ++w) {
      replicas[w] =
          std::make_unique<nn::Linear>(config_.concept_dim, config_.num_outputs, scratch);
      replica_params[w] = replicas[w]->parameters();
    }
  }
  std::vector<std::uint64_t> replica_step(replicas.size(), 0);
  std::uint64_t step = 0;
  std::vector<double> chunk_losses;
  std::vector<std::vector<nn::Matrix>> chunk_grads;  // [chunk][param]

  double last_epoch_loss = 0.0;
  std::size_t start_epoch = 0;
  if (config_.resume != nullptr && config_.resume->stage == kCheckpointStageOutput &&
      config_.resume->params.size() == master_params.size()) {
    // Restore the epoch-boundary snapshot — see ConceptMapping::train.
    const TrainCheckpoint& ckpt = *config_.resume;
    for (std::size_t p = 0; p < master_params.size(); ++p) {
      master_params[p]->value = ckpt.params[p];
    }
    optimizer.set_velocity(ckpt.velocity);
    rng.set_state(ckpt.rng);
    lr = ckpt.learning_rate;
    guard.set_total(ckpt.nonfinite_total);
    last_epoch_loss = ckpt.last_epoch_loss;
    start_epoch = static_cast<std::size_t>(ckpt.next_epoch);
  }
  for (std::size_t epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    const auto order = rng.permutation(concept_probs.rows());
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size(); start += config_.batch_size) {
      const std::size_t end = std::min(order.size(), start + config_.batch_size);
      std::vector<std::size_t> batch_indices(order.begin() + static_cast<std::ptrdiff_t>(start),
                                             order.begin() + static_cast<std::ptrdiff_t>(end));
      const nn::Matrix batch = concept_probs.gather_rows(batch_indices);
      const nn::Matrix targets = target_probs.gather_rows(batch_indices);
      const std::size_t batch_rows = batch.rows();
      const std::size_t num_chunks = (batch_rows + kGradChunkRows - 1) / kGradChunkRows;
      ++step;
      chunk_losses.assign(num_chunks, 0.0);
      chunk_grads.resize(num_chunks);

      obs::parallel_for(
          pool, "agua.pool.train_output", num_chunks,
          [&](std::size_t chunk, std::size_t worker) {
            if (replica_step[worker] != step) {
              for (std::size_t p = 0; p < master_params.size(); ++p) {
                replica_params[worker][p]->value = master_params[p]->value;
              }
              replica_step[worker] = step;
            }
            const std::size_t row0 = chunk * kGradChunkRows;
            const std::size_t row1 = std::min(batch_rows, row0 + kGradChunkRows);
            nn::Linear& layer = *replicas[worker];
            layer.zero_grad();
            const nn::Matrix out = layer.forward(batch.slice_rows(row0, row1));
            nn::Matrix grad;
            chunk_losses[chunk] = nn::soft_cross_entropy_loss(
                out, targets.slice_rows(row0, row1), grad, batch_rows);
            layer.backward(grad);
            std::vector<nn::Matrix>& sink = chunk_grads[chunk];
            sink.resize(master_params.size());
            for (std::size_t p = 0; p < master_params.size(); ++p) {
              sink[p] = replica_params[worker][p]->grad;
            }
          });

      optimizer.zero_grad();
      for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
        for (std::size_t p = 0; p < master_params.size(); ++p) {
          master_params[p]->grad.add(chunk_grads[chunk][p]);
        }
      }
      // Fault sites in the serial section, schedule-independent (§8).
      if (common::fault::armed()) {
        chunk_losses[0] = common::fault::poison_point("train.output.loss", chunk_losses[0]);
        if (!master_params.empty() && !master_params[0]->grad.empty()) {
          double& g0 = master_params[0]->grad.data()[0];
          g0 = common::fault::poison_point("train.output.grad", g0);
        }
      }
      if (!guard.admit(chunk_losses, master_params, lr, epoch)) continue;  // skip step
      for (double chunk_loss : chunk_losses) epoch_loss += chunk_loss;
      // ElasticNet subgradient on the master weights, once per step, exactly
      // as the serial recipe applied it.
      nn::apply_elastic_net(layer_->parameters(), config_.elastic_alpha,
                            config_.elastic_coef);
      optimizer.step();
      ++batches;
    }
    last_epoch_loss = batches > 0 ? epoch_loss / static_cast<double>(batches) : 0.0;
    if (config_.observer) {
      // Telemetry only — reads the master state the epoch just produced.
      TrainEpochStats stats;
      stats.epoch = epoch;
      stats.epochs = config_.epochs;
      stats.loss = last_epoch_loss;
      stats.grad_norm = params_l2_norm(master_params, /*grads=*/true);
      stats.weight_norm = params_l2_norm(master_params, /*grads=*/false);
      stats.learning_rate = lr;
      config_.observer(stats);
    }
    if (config_.checkpoint_every > 0 && config_.checkpoint_sink &&
        ((epoch + 1) % config_.checkpoint_every == 0 || epoch + 1 == config_.epochs)) {
      TrainCheckpoint ckpt;
      ckpt.stage = kCheckpointStageOutput;
      ckpt.next_epoch = epoch + 1;
      ckpt.total_epochs = config_.epochs;
      ckpt.last_epoch_loss = last_epoch_loss;
      ckpt.learning_rate = lr;
      ckpt.nonfinite_total = guard.total();
      ckpt.rng = rng.state();
      ckpt.params.reserve(master_params.size());
      for (const nn::Parameter* p : master_params) ckpt.params.push_back(p->value);
      ckpt.velocity = optimizer.velocity();
      config_.checkpoint_sink(ckpt);
    }
  }
  return last_epoch_loss;
}

std::vector<double> OutputMapping::logits(const std::vector<double>& concept_probs) const {
  return layer_->infer(nn::Matrix::row_vector(concept_probs)).row(0);
}

nn::Matrix OutputMapping::logits_batch(const nn::Matrix& concept_probs) const {
  return layer_->infer(concept_probs);
}

std::vector<double> OutputMapping::class_weights(std::size_t output_class) const {
  const nn::Matrix& w = weights();
  std::vector<double> out(w.rows());
  for (std::size_t r = 0; r < w.rows(); ++r) out[r] = w.at(r, output_class);
  return out;
}

double OutputMapping::class_bias(std::size_t output_class) const {
  return layer_->bias().value.at(0, output_class);
}

void OutputMapping::save(common::BinaryWriter& w) const {
  w.write_u64(config_.concept_dim);
  w.write_u64(config_.num_outputs);
  w.write_double(config_.elastic_alpha);
  layer_->save(w);
}

OutputMapping OutputMapping::load(common::BinaryReader& r) {
  Config config;
  config.concept_dim = r.read_u64();
  config.num_outputs = r.read_u64();
  config.elastic_alpha = r.read_double();
  common::Rng scratch(0);  // weights are overwritten by load below
  // The layer is built from these widths before any weight is read.
  if (!nn::loadable_width(config.concept_dim) || !nn::loadable_width(config.num_outputs)) {
    r.stream().setstate(std::ios::failbit);
    return OutputMapping(Config{}, scratch);
  }
  OutputMapping mapping(config, scratch);
  mapping.layer_->load(r);
  return mapping;
}

double OutputMapping::elastic_penalty() const {
  return nn::elastic_net_penalty(
      {const_cast<nn::Parameter*>(&layer_->weight()),
       const_cast<nn::Parameter*>(&layer_->bias())},
      config_.elastic_alpha);
}

}  // namespace agua::core
