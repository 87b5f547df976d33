#include "core/pipeline.hpp"

#include <cassert>
#include <optional>

#include "common/thread_pool.hpp"
#include "core/checkpoint.hpp"
#include "obs/events.hpp"
#include "obs/parallel.hpp"
#include "obs/trace.hpp"

namespace agua::core {
namespace {

/// Compose a user observer with flight-recorder emission. Returns an empty
/// observer (zero training overhead) when neither is active.
TrainObserver make_epoch_observer(const TrainObserver& user, const char* event_kind) {
  const bool record = obs::event_log().enabled();
  if (!user && !record) return {};
  return [user, record, event_kind](const TrainEpochStats& stats) {
    if (user) user(stats);
    if (record) {
      obs::event_log().append(
          event_kind, {{"epoch", static_cast<double>(stats.epoch)},
                       {"epochs", static_cast<double>(stats.epochs)},
                       {"loss", stats.loss},
                       {"grad_norm", stats.grad_norm},
                       {"weight_norm", stats.weight_norm},
                       {"lr", stats.learning_rate}});
    }
  };
}

/// Checkpoint sink writing crash-safe snapshots to `path`, with telemetry.
std::function<void(const TrainCheckpoint&)> make_checkpoint_sink(std::string path) {
  return [path = std::move(path)](const TrainCheckpoint& ckpt) {
    if (!save_checkpoint_file(path, ckpt)) return;
    obs::MetricsRegistry::instance().counter("agua.checkpoint.saves").add(1);
    obs::event_log().append("checkpoint.save",
                            {{"stage", static_cast<double>(ckpt.stage)},
                             {"next_epoch", static_cast<double>(ckpt.next_epoch)},
                             {"loss", ckpt.last_epoch_loss}});
  };
}

/// Load a resume snapshot for `stage`; nullopt (fresh start) when the file
/// is missing, torn, corrupt, or belongs to a different stage/schedule.
std::optional<TrainCheckpoint> load_resume(const std::string& path, std::uint32_t stage,
                                           std::size_t epochs) {
  auto ckpt = load_checkpoint_file(path);
  if (!ckpt || ckpt->stage != stage || ckpt->total_epochs != epochs) return std::nullopt;
  obs::event_log().append("checkpoint.resume",
                          {{"stage", static_cast<double>(ckpt->stage)},
                           {"next_epoch", static_cast<double>(ckpt->next_epoch)}});
  return ckpt;
}

}  // namespace

AguaConfig paper_agua_config() {
  AguaConfig config;
  config.quantizer_levels = 3;
  config.concept_hidden_dim = 64;
  config.concept_epochs = 200;
  return config;
}

AguaArtifacts train_agua(const Dataset& train, const concepts::ConceptSet& concept_set,
                         const DescribeFn& describe, const AguaConfig& config,
                         common::Rng& rng) {
  assert(!train.empty());
  obs::TraceSpan pipeline_span("agua.pipeline.train");
  obs::MetricsRegistry::instance().counter("agua.pipeline.train.samples").add(train.size());
  obs::event_log().append("pipeline.train.begin",
                          {{"samples", static_cast<double>(train.size())},
                           {"concepts", static_cast<double>(concept_set.size())}});
  AguaArtifacts artifacts;

  // Stage ②: input description generation.
  {
    obs::TraceSpan span("agua.pipeline.describe");
    common::Rng describe_rng = rng.fork(0xDE5C);
    text::DescriberOptions describe_options;
    describe_options.temperature = config.describe_temperature;
    describe_options.rng = config.describe_temperature > 0.0 ? &describe_rng : nullptr;
    artifacts.descriptions.resize(train.size());
    if (describe_options.rng == nullptr) {
      // Deterministic describers are pure functions of the input — fan out.
      obs::parallel_for(common::default_pool(), "agua.pool.describe", train.size(),
                        [&](std::size_t i, std::size_t) {
                          artifacts.descriptions[i] =
                              describe(train.samples[i].input, describe_options);
                        });
    } else {
      // A stochastic describer draws from one shared Rng stream; keep the
      // draws ordered (and the output reproducible) by staying serial.
      for (std::size_t i = 0; i < train.size(); ++i) {
        artifacts.descriptions[i] = describe(train.samples[i].input, describe_options);
      }
    }
  }

  // Stage ③: input concept embedding + similarity quantization.
  {
    obs::TraceSpan span("agua.pipeline.embed_label");
    text::SimilarityQuantizer quantizer = text::SimilarityQuantizer::paper_default();
    if (config.quantizer_levels != 3 && config.quantizer_levels >= 2) {
      // Evenly spaced initial bins; fit() recalibrates them to percentiles.
      std::vector<double> thresholds;
      for (std::size_t i = 1; i < config.quantizer_levels; ++i) {
        thresholds.push_back(static_cast<double>(i) /
                             static_cast<double>(config.quantizer_levels));
      }
      quantizer = text::SimilarityQuantizer(std::move(thresholds));
    }
    artifacts.labeler = std::make_unique<ConceptLabeler>(
        concept_set, text::TextEmbedder(config.embedder), std::move(quantizer));
    // fit embeds every description once; stage ③ reuses those embeddings.
    artifacts.description_embeddings =
        artifacts.labeler->fit(artifacts.descriptions, config.calibrate_quantizer);
    // Similarity tagging is a const per-description lookup on the fitted
    // labeler — fan it out, writing each slot by index.
    artifacts.similarity_levels.resize(train.size());
    obs::parallel_for(common::default_pool(), "agua.pool.embed_label", train.size(),
                      [&](std::size_t i, std::size_t) {
                        const ConceptLabeler& labeler = *artifacts.labeler;
                        artifacts.similarity_levels[i] = labeler.levels_from_similarities(
                            labeler.similarities_from_embedding(
                                artifacts.description_embeddings[i]));
                      });
  }

  // Stage ④: train the concept mapping δθ on (h(x), similarity labels).
  std::vector<std::vector<double>> embeddings;
  embeddings.reserve(train.size());
  for (const Sample& sample : train.samples) embeddings.push_back(sample.embedding);
  ConceptMapping concept_mapping = [&] {
    obs::TraceSpan span("agua.pipeline.train_concept");
    ConceptMapping::Config cm_config;
    cm_config.embedding_dim = train.embedding_dim();
    cm_config.num_concepts = concept_set.size();
    cm_config.num_levels = artifacts.labeler->num_levels();
    cm_config.hidden_dim = config.concept_hidden_dim;
    cm_config.epochs = config.concept_epochs;
    cm_config.batch_size = config.concept_batch_size;
    cm_config.learning_rate = config.concept_learning_rate;
    cm_config.momentum = config.concept_momentum;
    cm_config.observer = make_epoch_observer(config.concept_observer, "train.concept.epoch");
    std::optional<TrainCheckpoint> resume_ckpt;
    if (!config.checkpoint_dir.empty()) {
      const std::string path = config.checkpoint_dir + "/concept.ckpt";
      cm_config.checkpoint_every = config.checkpoint_every;
      cm_config.checkpoint_sink = make_checkpoint_sink(path);
      if (config.resume) {
        resume_ckpt = load_resume(path, kCheckpointStageConcept, cm_config.epochs);
        if (resume_ckpt) cm_config.resume = &*resume_ckpt;
      }
    }
    common::Rng cm_rng = rng.fork(0xC09C);
    ConceptMapping mapping(cm_config, cm_rng);
    artifacts.concept_train_loss =
        mapping.train(embeddings, artifacts.similarity_levels, cm_rng);
    return mapping;
  }();

  // Stage ⑤: train the output mapping Ω on (δθ(h(x)), controller outputs).
  OutputMapping output_mapping = [&] {
    obs::TraceSpan span("agua.pipeline.train_output");
    const nn::Matrix concept_probs =
        concept_mapping.concept_probs_batch(nn::Matrix::from_rows(embeddings));
    std::vector<std::vector<double>> targets;
    targets.reserve(train.size());
    for (const Sample& sample : train.samples) targets.push_back(sample.output_probs);
    OutputMapping::Config om_config;
    om_config.concept_dim = concept_mapping.output_dim();
    om_config.num_outputs = train.num_outputs;
    om_config.epochs = config.output_epochs;
    om_config.batch_size = config.output_batch_size;
    om_config.learning_rate = config.output_learning_rate;
    om_config.elastic_alpha = config.elastic_alpha;
    om_config.elastic_coef = config.elastic_coef;
    om_config.observer = make_epoch_observer(config.output_observer, "train.output.epoch");
    std::optional<TrainCheckpoint> resume_ckpt;
    if (!config.checkpoint_dir.empty()) {
      const std::string path = config.checkpoint_dir + "/output.ckpt";
      om_config.checkpoint_every = config.checkpoint_every;
      om_config.checkpoint_sink = make_checkpoint_sink(path);
      if (config.resume) {
        resume_ckpt = load_resume(path, kCheckpointStageOutput, om_config.epochs);
        if (resume_ckpt) om_config.resume = &*resume_ckpt;
      }
    }
    common::Rng om_rng = rng.fork(0x0A7B);
    OutputMapping mapping(om_config, om_rng);
    artifacts.output_train_loss =
        mapping.train(concept_probs, nn::Matrix::from_rows(targets), om_rng);
    return mapping;
  }();

  artifacts.model = std::make_unique<AguaModel>(concept_set, std::move(concept_mapping),
                                                std::move(output_mapping));
  obs::event_log().append("pipeline.train.end",
                          {{"concept_loss", artifacts.concept_train_loss},
                           {"output_loss", artifacts.output_train_loss}});
  return artifacts;
}

}  // namespace agua::core
