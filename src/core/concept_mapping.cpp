#include "core/concept_mapping.hpp"

#include <cassert>
#include <cmath>

#include "common/fault.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/train_guard.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "obs/parallel.hpp"

namespace agua::core {
namespace {

// Row width of one gradient-accumulation chunk. Fixed — independent of the
// pool size — so the chunk partition, and therefore the floating-point
// reduction order, never changes with --threads: training is bitwise
// reproducible across any thread count (DESIGN.md §7).
constexpr std::size_t kGradChunkRows = 16;

// Counts δθ inference rows: one per embedding, wherever δθ runs. Resolved
// once, so a forward costs one relaxed atomic increment.
void count_forwards(std::size_t rows) {
  static obs::Counter& counter =
      obs::MetricsRegistry::instance().counter("agua.surrogate.forward");
  counter.add(rows);
}

}  // namespace

ConceptMapping::ConceptMapping(Config config, common::Rng& rng) : config_(config) {
  net_ = nn::make_concept_mapping_net(config_.embedding_dim, config_.hidden_dim,
                                      output_dim(), rng);
}

double ConceptMapping::train(const std::vector<std::vector<double>>& embeddings,
                             const std::vector<std::vector<std::size_t>>& levels,
                             common::Rng& rng) {
  assert(embeddings.size() == levels.size());
  nn::SgdOptimizer::Options opt;
  opt.learning_rate = config_.learning_rate;
  opt.momentum = config_.momentum;
  opt.gradient_clip = 5.0;
  nn::SgdOptimizer optimizer(net_->parameters(), opt);
  // The live rate: backed off by the non-finite guard, restored on recovery,
  // and carried through checkpoints.
  double& lr = optimizer.options().learning_rate;
  NonFiniteGuard guard("concept", config_.learning_rate);

  // Layers cache forward activations, so concurrent chunks cannot share the
  // master net: each worker runs its own replica, lazily re-synced to the
  // master weights once per optimizer step.
  common::ThreadPool& pool = common::default_pool();
  const std::vector<nn::Parameter*> master_params = net_->parameters();
  std::vector<std::unique_ptr<nn::Sequential>> replicas(pool.thread_count());
  std::vector<std::vector<nn::Parameter*>> replica_params(replicas.size());
  {
    common::Rng scratch(0);  // replica init weights are overwritten by syncs
    for (std::size_t w = 0; w < replicas.size(); ++w) {
      replicas[w] = nn::make_concept_mapping_net(config_.embedding_dim,
                                                 config_.hidden_dim, output_dim(), scratch);
      replica_params[w] = replicas[w]->parameters();
    }
  }
  std::vector<std::uint64_t> replica_step(replicas.size(), 0);
  std::uint64_t step = 0;
  std::vector<double> chunk_losses;
  std::vector<std::vector<nn::Matrix>> chunk_grads;  // [chunk][param]

  double last_epoch_loss = 0.0;
  std::size_t start_epoch = 0;
  if (config_.resume != nullptr && config_.resume->stage == kCheckpointStageConcept &&
      config_.resume->params.size() == master_params.size()) {
    // Restore the epoch-boundary snapshot: weights, momentum, rng stream,
    // schedule position. A completed stage (next_epoch == epochs) skips the
    // loop entirely and returns the recorded loss.
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
    const auto order = rng.permutation(embeddings.size());
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size(); start += config_.batch_size) {
      const std::size_t end = std::min(order.size(), start + config_.batch_size);
      const std::size_t batch_rows = end - start;
      const std::size_t num_chunks = (batch_rows + kGradChunkRows - 1) / kGradChunkRows;
      ++step;
      chunk_losses.assign(num_chunks, 0.0);
      chunk_grads.resize(num_chunks);

      obs::parallel_for(
          pool, "agua.pool.train_concept", num_chunks,
          [&](std::size_t chunk, std::size_t worker) {
            // A worker executes its chunks sequentially, so its replica needs
            // at most one weight sync per step; the master is read-only while
            // the region is in flight.
            if (replica_step[worker] != step) {
              for (std::size_t p = 0; p < master_params.size(); ++p) {
                replica_params[worker][p]->value = master_params[p]->value;
              }
              replica_step[worker] = step;
            }
            const std::size_t row0 = start + chunk * kGradChunkRows;
            const std::size_t row1 = std::min(end, row0 + kGradChunkRows);
            nn::Matrix input(row1 - row0, config_.embedding_dim);
            std::vector<std::vector<std::size_t>> chunk_targets;
            chunk_targets.reserve(row1 - row0);
            for (std::size_t i = row0; i < row1; ++i) {
              input.set_row(i - row0, embeddings[order[i]]);
              chunk_targets.push_back(levels[order[i]]);
            }
            nn::Sequential& net = *replicas[worker];
            net.zero_grad();
            const nn::Matrix logits = net.forward(input);
            nn::Matrix grad;
            // norm_rows = batch_rows: per-chunk losses/grads sum exactly to
            // the batch-averaged quantities.
            chunk_losses[chunk] = nn::multilabel_concept_loss(
                logits, chunk_targets, config_.num_concepts, config_.num_levels, grad,
                batch_rows);
            net.backward(grad);
            std::vector<nn::Matrix>& sink = chunk_grads[chunk];
            sink.resize(master_params.size());
            for (std::size_t p = 0; p < master_params.size(); ++p) {
              sink[p] = replica_params[worker][p]->grad;
            }
          });

      // Fixed-order reduction: chunk 0, 1, 2, ... regardless of which worker
      // computed what, so the summed gradient is bitwise identical for any
      // pool size (including 1).
      optimizer.zero_grad();
      for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
        for (std::size_t p = 0; p < master_params.size(); ++p) {
          master_params[p]->grad.add(chunk_grads[chunk][p]);
        }
      }
      // Fault sites live in this serial section, not inside workers, so
      // nth-hit triggers are schedule-independent (DESIGN.md §8).
      if (common::fault::armed()) {
        chunk_losses[0] = common::fault::poison_point("train.concept.loss", chunk_losses[0]);
        if (!master_params.empty() && !master_params[0]->grad.empty()) {
          double& g0 = master_params[0]->grad.data()[0];
          g0 = common::fault::poison_point("train.concept.grad", g0);
        }
      }
      if (!guard.admit(chunk_losses, master_params, lr, epoch)) continue;  // skip step
      for (double chunk_loss : chunk_losses) epoch_loss += chunk_loss;
      optimizer.step();
      ++batches;
    }
    last_epoch_loss = batches > 0 ? epoch_loss / static_cast<double>(batches) : 0.0;
    if (config_.observer) {
      // Telemetry only — reads the master state the epoch just produced.
      // Guarded so an observer-free run does no extra work at all.
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
      ckpt.stage = kCheckpointStageConcept;
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

nn::Matrix ConceptMapping::block_softmax(const nn::Matrix& logits) const {
  nn::Matrix probs(logits.rows(), logits.cols());
  const std::size_t k = config_.num_levels;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const double* in = logits.row_data(r);
    double* out = probs.row_data(r);
    for (std::size_t c = 0; c < config_.num_concepts; ++c) {
      const std::size_t base = c * k;
      double m = in[base];
      for (std::size_t j = 1; j < k; ++j) m = std::max(m, in[base + j]);
      double total = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        out[base + j] = std::exp(in[base + j] - m);
        total += out[base + j];
      }
      for (std::size_t j = 0; j < k; ++j) out[base + j] /= total;
    }
  }
  return probs;
}

std::vector<double> ConceptMapping::concept_probs(
    const std::vector<double>& embedding) const {
  count_forwards(1);
  return block_softmax(net_->infer(nn::Matrix::row_vector(embedding))).row(0);
}

nn::Matrix ConceptMapping::concept_probs_batch(const nn::Matrix& embeddings) const {
  count_forwards(embeddings.rows());
  return block_softmax(net_->infer(embeddings));
}

void ConceptMapping::save(common::BinaryWriter& w) const {
  w.write_u64(config_.embedding_dim);
  w.write_u64(config_.num_concepts);
  w.write_u64(config_.num_levels);
  w.write_u64(config_.hidden_dim);
  net_->save(w);
}

ConceptMapping ConceptMapping::load(common::BinaryReader& r) {
  Config config;
  config.embedding_dim = r.read_u64();
  config.num_concepts = r.read_u64();
  config.num_levels = r.read_u64();
  config.hidden_dim = r.read_u64();
  common::Rng scratch(0);  // weights are overwritten by load below
  // The net is built from these widths before any weight is read, so an
  // implausible one fails here instead of allocating. C and k are each
  // capped before their product is taken, so it cannot overflow.
  if (!nn::loadable_width(config.embedding_dim) ||
      !nn::loadable_width(config.num_concepts) || !nn::loadable_width(config.num_levels) ||
      !nn::loadable_width(config.hidden_dim) ||
      !nn::loadable_width(config.num_concepts * config.num_levels)) {
    r.stream().setstate(std::ios::failbit);
    return ConceptMapping(Config{}, scratch);
  }
  ConceptMapping mapping(config, scratch);
  mapping.net_->load(r);
  return mapping;
}

std::vector<std::size_t> ConceptMapping::predict_levels(
    const std::vector<double>& embedding) const {
  const std::vector<double> probs = concept_probs(embedding);
  std::vector<std::size_t> out(config_.num_concepts, 0);
  const std::size_t k = config_.num_levels;
  for (std::size_t c = 0; c < config_.num_concepts; ++c) {
    std::size_t best = 0;
    for (std::size_t j = 1; j < k; ++j) {
      if (probs[c * k + j] > probs[c * k + best]) best = j;
    }
    out[c] = best;
  }
  return out;
}

}  // namespace agua::core
