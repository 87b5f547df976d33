// The fault-injection subsystem end to end (DESIGN.md §8): the registry
// itself (spec grammar, modes, triggers, seeded determinism, stats, the
// observer bridge into obs), then every degradation path it drives —
// crash-safe model/checkpoint persistence, training guards with bounded
// retries, checkpoint/resume bitwise equivalence, per-slot explanation
// isolation, and the HTTP server's accept/write resilience. Suites are named
// Fault* so the tsan preset's filter picks them up (CMakePresets.json).
#include "common/fault.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/ddos_bundle.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/checkpoint.hpp"
#include "core/concept_mapping.hpp"
#include "core/explain.hpp"
#include "core/model_io.hpp"
#include "core/output_mapping.hpp"
#include "core/pipeline.hpp"
#include "core/train_guard.hpp"
#include "net/http.hpp"
#include "obs/events.hpp"
#include "obs/fault_telemetry.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"

namespace {

using namespace agua;
namespace fault = agua::common::fault;

/// Fault state and obs state are process-wide; every test starts disarmed
/// with clean metrics/events and leaves nothing armed behind.
class FaultTestBase : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::clear();
    fault::set_seed(0);
    obs::MetricsRegistry::instance().reset();
    obs::event_log().clear();
    obs::event_log().set_enabled(true);
  }
  void TearDown() override {
    fault::clear();
    obs::event_log().set_enabled(false);
  }
};

using FaultTelemetry = FaultTestBase;
using FaultRegistry = FaultTestBase;
using FaultModelIo = FaultTestBase;
using FaultTrain = FaultTestBase;
using FaultCheckpoint = FaultTestBase;
using FaultExplain = FaultTestBase;
using FaultNet = FaultTestBase;
using FaultServe = FaultTestBase;

// ---------------------------------------------------------------------------
// Registry → obs bridge. Runs first in this file: install_fault_telemetry()
// is once-per-process, and later registry tests swap in their own observers.
// ---------------------------------------------------------------------------

TEST_F(FaultTelemetry, FiredFaultBumpsCounterAndEmitsEvent) {
  obs::install_fault_telemetry();
  ASSERT_TRUE(fault::configure("tele.site=error@once"));
  EXPECT_TRUE(fault::fail_point("tele.site"));
  EXPECT_FALSE(fault::fail_point("tele.site"));  // @once is spent

  EXPECT_EQ(obs::MetricsRegistry::instance().counter("agua.fault.injected").value(), 1u);
  EXPECT_EQ(
      obs::MetricsRegistry::instance().counter("agua.fault.injected.error").value(), 1u);

  bool saw_event = false;
  for (const obs::Event& event : obs::event_log().snapshot()) {
    if (event.kind != "fault.injected") continue;
    for (const auto& [key, value] : event.fields) {
      if (key == "site.tele.site" && value == 1.0) saw_event = true;
    }
  }
  EXPECT_TRUE(saw_event) << "no fault.injected event carrying the site name";
}

// ---------------------------------------------------------------------------
// Registry semantics.
// ---------------------------------------------------------------------------

TEST_F(FaultRegistry, DisarmedByDefault) {
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::fail_point("anything"));
  EXPECT_NO_THROW(fault::throw_point("anything"));
  EXPECT_EQ(fault::poison_point("anything", 3.5), 3.5);
  EXPECT_EQ(fault::short_write_point("anything", 100), 100u);
  EXPECT_EQ(fault::total_fires(), 0u);
}

TEST_F(FaultRegistry, RejectsMalformedSpecs) {
  std::string error;
  EXPECT_FALSE(fault::configure("no equals sign here", &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(fault::configure("site=notamode", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(fault::parse_fault_spec("=error", &error).has_value());
  EXPECT_FALSE(fault::parse_fault_spec("site=error@notatrigger", &error).has_value());
}

TEST_F(FaultRegistry, ParsesModesArgsAndTriggers) {
  std::string error;
  const auto spec = fault::parse_fault_spec("io.write=short:0.25@nth:7", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->site, "io.write");
  EXPECT_EQ(spec->mode, fault::Mode::kShortWrite);
  EXPECT_DOUBLE_EQ(spec->arg, 0.25);
  EXPECT_EQ(spec->trigger, fault::FaultSpec::Trigger::kNth);
  EXPECT_EQ(spec->nth, 7u);

  const auto plain = fault::parse_fault_spec("a.b=throw", &error);
  ASSERT_TRUE(plain.has_value()) << error;
  EXPECT_EQ(plain->mode, fault::Mode::kThrow);
  EXPECT_EQ(plain->trigger, fault::FaultSpec::Trigger::kAlways);
}

TEST_F(FaultRegistry, OnceAndNthTriggers) {
  ASSERT_TRUE(fault::configure("x=error@once,y=error@nth:3"));
  EXPECT_TRUE(fault::armed());
  EXPECT_TRUE(fault::fail_point("x"));
  EXPECT_FALSE(fault::fail_point("x"));
  EXPECT_FALSE(fault::fail_point("x"));

  EXPECT_FALSE(fault::fail_point("y"));  // hit 1
  EXPECT_FALSE(fault::fail_point("y"));  // hit 2
  EXPECT_TRUE(fault::fail_point("y"));   // hit 3 fires
  EXPECT_FALSE(fault::fail_point("y"));  // hit 4

  EXPECT_EQ(fault::total_fires(), 2u);
  bool saw_x = false;
  for (const fault::SiteStats& s : fault::stats()) {
    if (s.site != "x") continue;
    saw_x = true;
    EXPECT_EQ(s.hits, 3u);
    EXPECT_EQ(s.fires, 1u);
  }
  EXPECT_TRUE(saw_x);
}

TEST_F(FaultRegistry, ModeHelpersApplySemantics) {
  ASSERT_TRUE(fault::configure("p=nan,s=short:0.5,t=throw@once,d=delay:1"));
  EXPECT_TRUE(std::isnan(fault::poison_point("p", 1.0)));
  EXPECT_EQ(fault::short_write_point("s", 10), 5u);
  EXPECT_EQ(fault::short_write_point("unarmed.site", 10), 10u);
  try {
    fault::throw_point("t");
    FAIL() << "throw_point did not throw";
  } catch (const fault::FaultInjected& e) {
    EXPECT_EQ(e.site(), "t");
  }
  EXPECT_NO_THROW(fault::throw_point("t"));  // @once spent
  fault::delay_point("d");                   // just must not hang or throw
}

TEST_F(FaultRegistry, SeededProbabilityIsReproducible) {
  const auto draw_pattern = [] {
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(fault::fail_point("prob.site"));
    return fired;
  };
  fault::set_seed(7);
  ASSERT_TRUE(fault::configure("prob.site=error@p:0.5"));
  const std::vector<bool> first = draw_pattern();
  fault::clear();
  fault::set_seed(7);
  ASSERT_TRUE(fault::configure("prob.site=error@p:0.5"));
  EXPECT_EQ(draw_pattern(), first);

  std::size_t fires = 0;
  for (bool b : first) fires += b ? 1 : 0;
  EXPECT_GT(fires, 0u);   // p=0.5 over 64 draws: both outcomes show up
  EXPECT_LT(fires, 64u);

  fault::clear();
  fault::set_seed(8);
  ASSERT_TRUE(fault::configure("prob.site=error@p:0.5"));
  EXPECT_NE(draw_pattern(), first) << "different seeds gave identical streams";
}

TEST_F(FaultRegistry, ObserverSeesEveryFire) {
  std::vector<std::pair<std::string, fault::Mode>> seen;
  fault::set_fire_observer([&seen](std::string_view site, fault::Mode mode) {
    seen.emplace_back(std::string(site), mode);
  });
  ASSERT_TRUE(fault::configure("a=error@once,b=nan@once"));
  fault::fail_point("a");
  fault::poison_point("b", 0.0);
  fault::fail_point("a");  // spent, must not notify
  fault::set_fire_observer(nullptr);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, "a");
  EXPECT_EQ(seen[0].second, fault::Mode::kErrorReturn);
  EXPECT_EQ(seen[1].first, "b");
  EXPECT_EQ(seen[1].second, fault::Mode::kNanPoison);
}

// ---------------------------------------------------------------------------
// Crash-safe persistence: a failed save must never leave a torn target or a
// stray temp file behind.
// ---------------------------------------------------------------------------

core::AguaModel make_model(std::uint64_t seed = 1) {
  common::Rng rng(seed);
  core::ConceptMapping::Config cm;
  cm.embedding_dim = 6;
  cm.num_concepts = 8;
  cm.num_levels = 3;
  core::ConceptMapping mapping(cm, rng);
  core::OutputMapping::Config om;
  om.concept_dim = 24;
  om.num_outputs = 4;
  core::OutputMapping output(om, rng);
  return core::AguaModel(concepts::cc_concepts(), std::move(mapping), std::move(output));
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

TEST_F(FaultModelIo, FailedSaveLeavesNoFileBehind) {
  core::AguaModel model = make_model(11);
  const std::string path = testing::TempDir() + "/fault_model_save.bin";
  std::remove(path.c_str());
  for (const char* spec : {"model_io.save.open=error@once",
                           "model_io.save.write=error@once",
                           "model_io.save.write=short:0.5@once",
                           "model_io.save.rename=error@once"}) {
    fault::clear();
    ASSERT_TRUE(fault::configure(spec));
    EXPECT_FALSE(core::save_model_file(path, model)) << spec;
    EXPECT_FALSE(file_exists(path)) << spec << " left a target file";
    EXPECT_FALSE(file_exists(path + ".tmp")) << spec << " left a temp file";
  }
  fault::clear();
  EXPECT_TRUE(core::save_model_file(path, model));
  EXPECT_TRUE(core::load_model_file(path).has_value());
}

TEST_F(FaultModelIo, FailedRewriteKeepsPreviousModelIntact) {
  core::AguaModel old_model = make_model(12);
  core::AguaModel new_model = make_model(13);
  const std::string path = testing::TempDir() + "/fault_model_rewrite.bin";
  ASSERT_TRUE(core::save_model_file(path, old_model));

  for (const char* spec : {"model_io.save.write=error@once",
                           "model_io.save.write=short:0.9@once",
                           "model_io.save.rename=error@once"}) {
    fault::clear();
    ASSERT_TRUE(fault::configure(spec));
    EXPECT_FALSE(core::save_model_file(path, new_model)) << spec;
    EXPECT_FALSE(file_exists(path + ".tmp")) << spec << " left a temp file";
    // The atomic tmp+rename protocol means the old archive is still whole.
    auto loaded = core::load_model_file(path);
    ASSERT_TRUE(loaded.has_value()) << spec << " tore the previous archive";
    const std::vector<double> h = {0.1, -0.2, 0.3, 0.5, -0.4, 0.2};
    EXPECT_EQ(loaded->predict_class(h), old_model.predict_class(h)) << spec;
  }
}

TEST_F(FaultModelIo, InjectedOpenFailureIsTypedIoError) {
  core::AguaModel model = make_model(14);
  const std::string path = testing::TempDir() + "/fault_model_load.bin";
  ASSERT_TRUE(core::save_model_file(path, model));
  ASSERT_TRUE(fault::configure("model_io.load.open=error@once"));
  const core::LoadModelResult result = core::load_model_file_ex(path);
  EXPECT_FALSE(result);
  EXPECT_EQ(result.error.code, core::LoadErrorCode::kIoError);
  EXPECT_TRUE(core::load_model_file_ex(path)) << "fault was @once but load still fails";
}

// ---------------------------------------------------------------------------
// Training guards: non-finite loss is skipped with lr backoff and recovered
// from; a persistent fault is a bounded, typed failure — never a NaN model.
// ---------------------------------------------------------------------------

struct ConceptData {
  std::vector<std::vector<double>> embeddings;
  std::vector<std::vector<std::size_t>> levels;
};

ConceptData make_concept_data(std::size_t n = 80) {
  common::Rng rng(31);
  ConceptData data;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> h(4);
    for (double& x : h) x = rng.uniform(-1.0, 1.0);
    std::vector<std::size_t> l(2);
    l[0] = h[0] < 0.0 ? 0 : 1;
    l[1] = h[1] < 0.0 ? 0 : 1;
    data.embeddings.push_back(std::move(h));
    data.levels.push_back(std::move(l));
  }
  return data;
}

core::ConceptMapping::Config small_concept_config(std::size_t epochs) {
  core::ConceptMapping::Config config;
  config.embedding_dim = 4;
  config.num_concepts = 2;
  config.num_levels = 2;
  config.epochs = epochs;
  config.batch_size = 16;
  return config;
}

TEST_F(FaultTrain, TransientNanLossIsSkippedAndRecovered) {
  const ConceptData data = make_concept_data();
  common::Rng init(3);
  core::ConceptMapping mapping(small_concept_config(6), init);
  ASSERT_TRUE(fault::configure("train.concept.loss=nan@nth:3"));
  common::Rng train_rng(9);
  mapping.train(data.embeddings, data.levels, train_rng);

  EXPECT_EQ(obs::MetricsRegistry::instance().counter("agua.train.nonfinite").value(), 1u);
  bool saw_skip = false;
  bool saw_recover = false;
  for (const obs::Event& event : obs::event_log().snapshot()) {
    if (event.kind == "train.nonfinite") saw_skip = true;
    if (event.kind == "train.recover") saw_recover = true;
  }
  EXPECT_TRUE(saw_skip);
  EXPECT_TRUE(saw_recover);
  // The model that came out is usable: finite blockwise distributions.
  for (double p : mapping.concept_probs(data.embeddings.front())) {
    EXPECT_TRUE(std::isfinite(p));
  }
}

TEST_F(FaultTrain, PersistentNanLossThrowsTyped) {
  const ConceptData data = make_concept_data();
  common::Rng init(4);
  core::ConceptMapping mapping(small_concept_config(30), init);
  ASSERT_TRUE(fault::configure("train.concept.loss=nan"));
  common::Rng train_rng(10);
  EXPECT_THROW(mapping.train(data.embeddings, data.levels, train_rng),
               core::TrainDivergedError);
  EXPECT_GE(obs::MetricsRegistry::instance().counter("agua.train.nonfinite").value(), 8u);
}

TEST_F(FaultTrain, PoisonedGradientIsAlsoCaught) {
  const ConceptData data = make_concept_data();
  common::Rng init(5);
  core::ConceptMapping mapping(small_concept_config(6), init);
  ASSERT_TRUE(fault::configure("train.concept.grad=nan@nth:2"));
  common::Rng train_rng(11);
  mapping.train(data.embeddings, data.levels, train_rng);
  EXPECT_EQ(obs::MetricsRegistry::instance().counter("agua.train.nonfinite").value(), 1u);
}

TEST_F(FaultTrain, OutputStageGuardThrowsOnPersistentNan) {
  common::Rng rng(6);
  core::OutputMapping::Config config;
  config.concept_dim = 4;
  config.num_outputs = 2;
  config.epochs = 30;
  core::OutputMapping mapping(config, rng);
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<double>> targets;
  for (int i = 0; i < 64; ++i) {
    std::vector<double> z(4);
    for (double& x : z) x = rng.uniform(0.0, 1.0);
    targets.push_back(z[0] > 0.5 ? std::vector<double>{0.9, 0.1}
                                 : std::vector<double>{0.1, 0.9});
    inputs.push_back(std::move(z));
  }
  ASSERT_TRUE(fault::configure("train.output.loss=nan"));
  common::Rng train_rng(12);
  EXPECT_THROW(mapping.train(nn::Matrix::from_rows(inputs), nn::Matrix::from_rows(targets),
                             train_rng),
               core::TrainDivergedError);
}

TEST_F(FaultTrain, CleanRunIsBitwiseUnchangedByGuards) {
  // The guard machinery must not perturb floating-point results when nothing
  // fires: two disarmed runs and one run with an unrelated armed site must
  // all produce identical bytes.
  const ConceptData data = make_concept_data();
  const auto train_bytes = [&] {
    common::Rng init(7);
    core::ConceptMapping mapping(small_concept_config(6), init);
    common::Rng train_rng(13);
    mapping.train(data.embeddings, data.levels, train_rng);
    std::ostringstream os;
    common::BinaryWriter w(os);
    mapping.save(w);
    return os.str();
  };
  const std::string baseline = train_bytes();
  EXPECT_EQ(train_bytes(), baseline);
  ASSERT_TRUE(fault::configure("some.unrelated.site=error"));
  EXPECT_EQ(train_bytes(), baseline)
      << "armed-but-miss fault checks changed training arithmetic";
}

// ---------------------------------------------------------------------------
// Checkpoint + resume: interrupting training at an epoch boundary and
// resuming must be bitwise-indistinguishable from never stopping.
// ---------------------------------------------------------------------------

TEST_F(FaultCheckpoint, FileRoundTripPreservesEveryField) {
  core::TrainCheckpoint ckpt;
  ckpt.stage = core::kCheckpointStageConcept;
  ckpt.next_epoch = 7;
  ckpt.total_epochs = 20;
  ckpt.last_epoch_loss = 0.125;
  ckpt.learning_rate = 0.05;
  ckpt.nonfinite_total = 3;
  common::Rng rng(99);
  (void)rng.uniform(0.0, 1.0);
  (void)rng.normal();
  ckpt.rng = rng.state();
  ckpt.params.push_back(nn::Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}}));
  ckpt.velocity.push_back(nn::Matrix::from_rows({{0.1, 0.2}, {0.3, 0.4}}));

  const std::string path = testing::TempDir() + "/fault_ckpt_roundtrip.bin";
  ASSERT_TRUE(core::save_checkpoint_file(path, ckpt));
  const auto loaded = core::load_checkpoint_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->stage, ckpt.stage);
  EXPECT_EQ(loaded->next_epoch, 7u);
  EXPECT_EQ(loaded->total_epochs, 20u);
  EXPECT_DOUBLE_EQ(loaded->last_epoch_loss, 0.125);
  EXPECT_DOUBLE_EQ(loaded->learning_rate, 0.05);
  EXPECT_EQ(loaded->nonfinite_total, 3u);
  ASSERT_EQ(loaded->params.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded->params[0].at(1, 1), 4.0);
  EXPECT_DOUBLE_EQ(loaded->velocity[0].at(0, 1), 0.2);
  // The restored rng continues exactly where the saved one left off.
  common::Rng resumed(1);
  resumed.set_state(loaded->rng);
  EXPECT_DOUBLE_EQ(resumed.uniform(0.0, 1.0), rng.uniform(0.0, 1.0));
}

TEST_F(FaultCheckpoint, MidTrainingResumeIsBitwiseIdentical) {
  const ConceptData data = make_concept_data(96);
  constexpr std::size_t kEpochs = 12;

  // Uninterrupted run, snapshotting every epoch.
  std::vector<core::TrainCheckpoint> snapshots;
  core::ConceptMapping::Config full_config = small_concept_config(kEpochs);
  full_config.checkpoint_every = 1;
  full_config.checkpoint_sink = [&snapshots](const core::TrainCheckpoint& c) {
    snapshots.push_back(c);
  };
  common::Rng init_a(21);
  core::ConceptMapping full(full_config, init_a);
  common::Rng train_a(22);
  full.train(data.embeddings, data.levels, train_a);
  ASSERT_EQ(snapshots.size(), kEpochs);

  // "Killed" after epoch 5, restarted from the snapshot.
  const core::TrainCheckpoint& mid = snapshots[4];
  ASSERT_EQ(mid.next_epoch, 5u);
  core::ConceptMapping::Config resume_config = small_concept_config(kEpochs);
  resume_config.resume = &mid;
  common::Rng init_b(21);
  core::ConceptMapping resumed(resume_config, init_b);
  common::Rng train_b(22);
  resumed.train(data.embeddings, data.levels, train_b);

  const auto bytes = [](const core::ConceptMapping& m) {
    std::ostringstream os;
    common::BinaryWriter w(os);
    m.save(w);
    return os.str();
  };
  EXPECT_EQ(bytes(resumed), bytes(full))
      << "resume from an epoch-boundary checkpoint diverged from the "
         "uninterrupted run";
}

std::string pipeline_model_bytes(const core::AguaArtifacts& artifacts) {
  std::ostringstream os;
  common::BinaryWriter w(os);
  core::save_model(w, *artifacts.model);
  return os.str();
}

core::AguaConfig small_pipeline_config() {
  core::AguaConfig config;
  config.embedder = text::closed_source_embedder_config();
  config.concept_epochs = 6;
  config.output_epochs = 10;
  return config;
}

TEST_F(FaultCheckpoint, PipelineResumeAndCorruptCheckpointBothConverge) {
  apps::DdosBundle bundle = apps::make_ddos_bundle(33, 120, 40);
  const std::string dir = testing::TempDir() + "/fault_pipeline_ckpt";
  ::mkdir(dir.c_str(), 0755);

  core::AguaConfig config = small_pipeline_config();
  config.checkpoint_dir = dir;
  config.checkpoint_every = 2;
  common::Rng rng_a(17);
  const core::AguaArtifacts full = core::train_agua(
      bundle.train, bundle.describer.concept_set(), bundle.describe_fn(), config, rng_a);
  const std::string baseline = pipeline_model_bytes(full);
  ASSERT_TRUE(file_exists(dir + "/concept.ckpt"));
  ASSERT_TRUE(file_exists(dir + "/output.ckpt"));

  // Resume over the completed checkpoints: both stages restore their final
  // snapshot and the model comes out bitwise identical.
  config.resume = true;
  common::Rng rng_b(17);
  const core::AguaArtifacts resumed = core::train_agua(
      bundle.train, bundle.describer.concept_set(), bundle.describe_fn(), config, rng_b);
  EXPECT_EQ(pipeline_model_bytes(resumed), baseline);
  EXPECT_DOUBLE_EQ(resumed.concept_train_loss, full.concept_train_loss);
  EXPECT_DOUBLE_EQ(resumed.output_train_loss, full.output_train_loss);

  // Corrupt checkpoints are not trusted: training silently falls back to a
  // fresh start and still converges to the same model.
  {
    std::ofstream garbage(dir + "/concept.ckpt", std::ios::binary | std::ios::trunc);
    garbage << "definitely not a checkpoint";
  }
  std::remove((dir + "/output.ckpt").c_str());
  common::Rng rng_c(17);
  const core::AguaArtifacts fresh = core::train_agua(
      bundle.train, bundle.describer.concept_set(), bundle.describe_fn(), config, rng_c);
  EXPECT_EQ(pipeline_model_bytes(fresh), baseline);
}

// ---------------------------------------------------------------------------
// Explanation isolation: one bad sample fails alone; the batch aggregate is
// built from the survivors.
// ---------------------------------------------------------------------------

std::vector<std::vector<double>> make_embeddings(std::size_t n) {
  common::Rng rng(41);
  std::vector<std::vector<double>> out;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> h(6);
    for (double& x : h) x = rng.uniform(-1.0, 1.0);
    out.push_back(std::move(h));
  }
  return out;
}

TEST_F(FaultExplain, CleanBatchHasNoErrors) {
  core::AguaModel model = make_model(15);
  const auto embeddings = make_embeddings(3);
  const core::BatchExplainResult result = core::explain_batched_isolated(model, embeddings);
  EXPECT_TRUE(result);
  EXPECT_EQ(result.attempted, 3u);
  EXPECT_EQ(result.succeeded, 3u);
  EXPECT_TRUE(result.errors.empty());
  // And the tolerant path is the same computation as the strict one.
  const core::Explanation strict = core::explain_batched(model, embeddings);
  ASSERT_EQ(result.aggregate.concept_weights.size(), strict.concept_weights.size());
  for (std::size_t i = 0; i < strict.concept_weights.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.aggregate.concept_weights[i], strict.concept_weights[i]);
  }
}

TEST_F(FaultExplain, NonFiniteEmbeddingFailsOnlyItsSlot) {
  core::AguaModel model = make_model(16);
  auto embeddings = make_embeddings(4);
  embeddings[1][2] = std::nan("");
  const core::BatchExplainResult result = core::explain_batched_isolated(model, embeddings);
  EXPECT_TRUE(result);
  EXPECT_EQ(result.succeeded, 3u);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].index, 1u);
  EXPECT_NE(result.errors[0].message.find("non-finite"), std::string::npos);
  for (double w : result.aggregate.concept_weights) EXPECT_TRUE(std::isfinite(w));
}

TEST_F(FaultExplain, InjectedThrowIsIsolatedPerSlot) {
  common::set_default_thread_count(1);  // serial path → deterministic hit order
  core::AguaModel model = make_model(17);
  const auto embeddings = make_embeddings(3);
  ASSERT_TRUE(fault::configure("explain.single=throw@nth:2"));
  const core::BatchExplainResult result = core::explain_batched_isolated(model, embeddings);
  EXPECT_TRUE(result);
  EXPECT_EQ(result.succeeded, 2u);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].index, 1u);
  EXPECT_NE(result.errors[0].message.find("injected fault"), std::string::npos);
  EXPECT_EQ(
      obs::MetricsRegistry::instance().counter("agua.explain.slot_errors").value(), 1u);
}

TEST_F(FaultExplain, AllSlotsFailingIsAnEmptyResult) {
  core::AguaModel model = make_model(18);
  const auto embeddings = make_embeddings(2);
  ASSERT_TRUE(fault::configure("explain.single=throw"));
  const core::BatchExplainResult result = core::explain_batched_isolated(model, embeddings);
  EXPECT_FALSE(result);
  EXPECT_EQ(result.succeeded, 0u);
  EXPECT_EQ(result.errors.size(), 2u);
}

// ---------------------------------------------------------------------------
// Serving resilience: resource exhaustion in the accept loop backs off and
// flags degradation; a failed response write is counted, not fatal.
// ---------------------------------------------------------------------------

void add_ping_handler(net::HttpServer& server) {
  server.handle("GET", "/ping", [](const net::HttpRequest&) {
    return net::HttpResponse::text(200, "pong\n");
  });
}

TEST_F(FaultNet, AcceptExhaustionBacksOffThenRecovers) {
  net::HttpServer server;
  add_ping_handler(server);
  ASSERT_TRUE(fault::configure("net.accept=error"));
  ASSERT_TRUE(server.start());

  // A client parks a connection in the listen queue; every accept attempt is
  // injected EMFILE, so the loop backs off while the connection waits.
  net::HttpClientResponse response;
  bool got_response = false;
  std::thread client([&] {
    got_response = net::http_get("127.0.0.1", server.port(), "/ping", response, 10000);
  });

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().accept_retries < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const net::HttpServerStats degraded = server.stats();
  EXPECT_GE(degraded.accept_retries, 2u);
  EXPECT_TRUE(degraded.degraded);

  // Exhaustion clears → the next retry accepts the queued connection and the
  // server reports itself healthy again.
  fault::clear();
  client.join();
  ASSERT_TRUE(got_response) << "queued client was never served after recovery";
  EXPECT_EQ(response.status, 200);
  EXPECT_FALSE(server.stats().degraded);
}

TEST_F(FaultNet, FailedResponseWriteIsCountedNotFatal) {
  net::HttpServer server;
  add_ping_handler(server);
  ASSERT_TRUE(server.start());
  ASSERT_TRUE(fault::configure("net.write=error@once"));

  net::HttpClientResponse dropped;
  EXPECT_FALSE(net::http_get("127.0.0.1", server.port(), "/ping", dropped))
      << "client somehow got a response the server failed to write";

  net::HttpClientResponse ok;
  ASSERT_TRUE(net::http_get("127.0.0.1", server.port(), "/ping", ok));
  EXPECT_EQ(ok.status, 200);
  const net::HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.write_errors, 1u);
  EXPECT_GE(stats.requests, 2u);
}

// A delay in the serving batch path slows exactly the requests that need a
// batch: cache hits never enter one. The overload smoke drives its SLO burn
// this way.
TEST_F(FaultServe, InjectedBatchDelayIsPaidOnlyByMisses) {
  serve::ExplainService service;
  service.install_model(make_model(19), "fault");
  service.start();
  ASSERT_TRUE(fault::configure("serve.batch=delay:100"));
  net::HttpRequest request;
  request.method = "POST";
  request.path = "/explain";
  request.body = R"({"input": [0.1, -0.4, 0.7, 0.2, 0.5, -0.3]})";
  const auto timed = [&] {
    const auto begin = std::chrono::steady_clock::now();
    const net::HttpResponse response = service.explain_http(request);
    EXPECT_EQ(response.status, 200) << response.body;
    return std::chrono::steady_clock::now() - begin;
  };
  EXPECT_GE(timed(), std::chrono::milliseconds(100));  // the miss rides a batch
  EXPECT_LT(timed(), std::chrono::milliseconds(100));  // the hit does not
  service.stop();
}

}  // namespace
