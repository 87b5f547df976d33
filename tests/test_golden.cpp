// Golden pins: exact outputs of a tiny-config ABR surrogate. Refactors of the
// numeric core (nn kernels, training, explanation) must keep every model,
// fidelity and explanation bitwise identical; bound checks such as
// `fidelity > 0.5` cannot see a moved bit, these pins can.
//
// The values are pinned for this toolchain: GCC 12 on x86-64 (baseline ISA,
// no FMA contraction) with glibc's libm. Another compiler, libm or target ISA
// may round exp/log/tanh differently and legitimately change them; re-pin
// only after checking that the change comes from the toolchain, not the code.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "apps/abr_bundle.hpp"
#include "core/explain.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "text/embedder.hpp"

namespace {

using namespace agua;

// The training seed agua_cli derives from `--seed 1`.
constexpr std::uint64_t kTrainSeed = 1 ^ 0xA90A;
constexpr std::size_t kExplainedRows = 32;

constexpr char kFingerprint[] = "d8397895dc296b60";
constexpr double kFidelity = 0.59047619047619049;
constexpr std::uint64_t kExplanationChecksum = 0xd069635f95a114bcULL;

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Fold an explanation's classes, probability and weight vectors into `hash`.
std::uint64_t mix(std::uint64_t hash, const core::Explanation& e) {
  hash = fnv1a(&e.output_class, sizeof e.output_class, hash);
  hash = fnv1a(&e.predicted_class, sizeof e.predicted_class, hash);
  hash = fnv1a(&e.output_probability, sizeof e.output_probability, hash);
  hash = fnv1a(e.concept_weights.data(), e.concept_weights.size() * sizeof(double), hash);
  hash = fnv1a(e.raw_contributions.data(), e.raw_contributions.size() * sizeof(double), hash);
  return fnv1a(e.signed_concept_contributions.data(),
               e.signed_concept_contributions.size() * sizeof(double), hash);
}

// Bundle seed 1, the first 160 training rows, 8 concept epochs, 40 output
// epochs and closed embeddings: agua_cli's --tiny recipe.
TEST(Golden, TinyAbrSurrogateIsBitwisePinned) {
  const apps::AbrBundle bundle = apps::make_abr_bundle(1);
  core::Dataset train = bundle.train;
  train.samples.resize(160);
  core::AguaConfig config;
  config.embedder = text::closed_source_embedder_config();
  config.concept_epochs = 8;
  config.output_epochs = 40;
  common::Rng rng(kTrainSeed);
  core::AguaArtifacts agua =
      core::train_agua(train, bundle.describer.concept_set(), bundle.describe_fn(), config, rng);
  core::AguaModel& model = *agua.model;

  const std::string fingerprint = core::model_fingerprint(model);
  const double fidelity = core::fidelity(model, bundle.test);
  std::uint64_t checksum = 0xcbf29ce484222325ULL;
  const std::size_t stride = bundle.test.size() / kExplainedRows;
  for (std::size_t r = 0; r < kExplainedRows; ++r) {
    const std::vector<double>& x = bundle.test.samples[r * stride].embedding;
    checksum = mix(checksum, core::explain_factual(model, x));
    for (std::size_t c = 0; c < model.num_outputs(); ++c) {
      checksum = mix(checksum, core::explain_for_class(model, x, c));
    }
  }
  std::printf("fingerprint %s fidelity %.17g checksum %016llx\n", fingerprint.c_str(), fidelity,
              static_cast<unsigned long long>(checksum));

  EXPECT_EQ(fingerprint, kFingerprint);
  EXPECT_EQ(fidelity, kFidelity);
  EXPECT_EQ(checksum, kExplanationChecksum);
}

}  // namespace
