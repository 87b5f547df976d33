#include "core/explain.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace {

using namespace agua;
using namespace agua::core;

AguaModel make_model(std::uint64_t seed = 1) {
  common::Rng rng(seed);
  ConceptMapping::Config cm;
  cm.embedding_dim = 4;
  cm.num_concepts = 3;
  cm.num_levels = 3;
  ConceptMapping mapping(cm, rng);
  OutputMapping::Config om;
  om.concept_dim = 9;
  om.num_outputs = 4;
  OutputMapping output(om, rng);
  return AguaModel(concepts::cc_concepts().prefix(3), std::move(mapping),
                   std::move(output));
}

TEST(Explain, FactualTargetsPredictedClass) {
  AguaModel model = make_model();
  const std::vector<double> h = {0.1, -0.4, 0.7, 0.2};
  const Explanation exp = explain_factual(model, h);
  EXPECT_EQ(exp.output_class, model.predict_class(h));
  EXPECT_EQ(exp.output_class, exp.predicted_class);
}

// explain_factual takes the class from the same forward it decomposes, so it
// must equal the counterfactual query for that class in every field.
TEST(Explain, FactualEqualsForClassOfItsPredictionBitwise) {
  const AguaModel model = make_model(11);
  common::Rng rng(12);
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<double> h(4);
    for (double& x : h) x = rng.uniform(-1.0, 1.0);
    const Explanation factual = explain_factual(model, h);
    const Explanation counterfactual = explain_for_class(model, h, factual.predicted_class);
    EXPECT_EQ(factual.output_class, counterfactual.output_class);
    EXPECT_EQ(factual.predicted_class, counterfactual.predicted_class);
    EXPECT_EQ(std::memcmp(&factual.output_probability, &counterfactual.output_probability,
                          sizeof(double)),
              0);
    // Vector operator== compares doubles with ==; these also compare bits.
    auto same_bits = [](const std::vector<double>& a, const std::vector<double>& b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
    };
    EXPECT_TRUE(same_bits(factual.concept_weights, counterfactual.concept_weights));
    EXPECT_TRUE(same_bits(factual.raw_contributions, counterfactual.raw_contributions));
    EXPECT_TRUE(same_bits(factual.signed_concept_contributions,
                          counterfactual.signed_concept_contributions));
    EXPECT_EQ(factual.dominant_levels, counterfactual.dominant_levels);
    ASSERT_EQ(factual.concept_names.size(), counterfactual.concept_names.size());
    for (std::size_t c = 0; c < factual.concept_names.size(); ++c) {
      EXPECT_EQ(factual.concept_names[c], counterfactual.concept_names[c]);
    }
  }
}

// Every explanation of a model shares the model's one name list.
TEST(Explain, ConceptNamesAreTheModelsList) {
  const AguaModel model = make_model(13);
  const Explanation exp = explain_factual(model, {0.3, -0.2, 0.5, 0.1});
  const std::vector<std::string>& names = *model.concept_names();
  ASSERT_EQ(exp.concept_names.size(), names.size());
  for (std::size_t c = 0; c < names.size(); ++c) {
    EXPECT_EQ(&exp.concept_names[c], &names[c]);
    EXPECT_EQ(names[c], model.concept_set().at(c).name);
  }
}

TEST(Explain, WeightsSumToOutputProbability) {
  AguaModel model = make_model(2);
  const std::vector<double> h = {0.3, 0.1, -0.2, 0.9};
  const Explanation exp = explain_factual(model, h);
  const double total =
      std::accumulate(exp.concept_weights.begin(), exp.concept_weights.end(), 0.0);
  EXPECT_NEAR(total, exp.output_probability, 1e-9);
  // And the probability matches the surrogate's softmax output.
  EXPECT_NEAR(exp.output_probability, model.output_probs(h)[exp.output_class], 1e-9);
}

TEST(Explain, WeightsNonNegative) {
  AguaModel model = make_model(3);
  const Explanation exp = explain_factual(model, {0.5, 0.5, 0.5, 0.5});
  for (double w : exp.concept_weights) EXPECT_GE(w, 0.0);
}

TEST(Explain, RawContributionsReconstructLogit) {
  AguaModel model = make_model(4);
  const std::vector<double> h = {0.2, -0.1, 0.4, -0.6};
  const std::size_t cls = 2;
  const Explanation exp = explain_for_class(model, h, cls);
  // Eq. 8: summing the Hadamard contributions recovers the class logit.
  const double reconstructed =
      std::accumulate(exp.raw_contributions.begin(), exp.raw_contributions.end(), 0.0);
  EXPECT_NEAR(reconstructed, model.logits(h)[cls], 1e-9);
}

TEST(Explain, CounterfactualClassHonored) {
  AguaModel model = make_model(5);
  const std::vector<double> h = {0.1, 0.2, 0.3, 0.4};
  for (std::size_t cls = 0; cls < 4; ++cls) {
    const Explanation exp = explain_for_class(model, h, cls);
    EXPECT_EQ(exp.output_class, cls);
    EXPECT_NEAR(exp.output_probability, model.output_probs(h)[cls], 1e-9);
  }
}

TEST(Explain, ProbabilitiesAcrossClassesSumToOne) {
  AguaModel model = make_model(6);
  const std::vector<double> h = {0.7, -0.7, 0.1, 0.0};
  double total = 0.0;
  for (std::size_t cls = 0; cls < 4; ++cls) {
    total += explain_for_class(model, h, cls).output_probability;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Explain, TopConceptsSortedByWeight) {
  AguaModel model = make_model(7);
  const Explanation exp = explain_factual(model, {0.9, 0.1, -0.3, 0.5});
  const auto top = exp.top_concepts(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_GE(exp.concept_weights[top[0]], exp.concept_weights[top[1]]);
  EXPECT_GE(exp.concept_weights[top[1]], exp.concept_weights[top[2]]);
}

TEST(Explain, BatchedEqualsMeanOfSingles) {
  AguaModel model = make_model(8);
  const std::vector<std::vector<double>> batch = {
      {0.1, 0.2, 0.3, 0.4}, {0.4, 0.3, 0.2, 0.1}, {-0.5, 0.5, -0.5, 0.5}};
  const Explanation batched = explain_batched(model, batch, 1);
  std::vector<double> manual(model.num_concepts(), 0.0);
  for (const auto& h : batch) {
    const Explanation single = explain_for_class(model, h, 1);
    for (std::size_t c = 0; c < manual.size(); ++c) {
      manual[c] += single.concept_weights[c];
    }
  }
  for (double& m : manual) m /= static_cast<double>(batch.size());
  for (std::size_t c = 0; c < manual.size(); ++c) {
    EXPECT_NEAR(batched.concept_weights[c], manual[c], 1e-9);
  }
}

TEST(Explain, BatchedEmptyIsSafe) {
  AguaModel model = make_model(9);
  const Explanation exp = explain_batched(model, {});
  EXPECT_TRUE(exp.concept_weights.empty());
}

TEST(Explain, FormatShowsTopConceptNames) {
  AguaModel model = make_model(10);
  const Explanation exp = explain_factual(model, {0.2, 0.2, 0.2, 0.2});
  const std::string text = exp.format(2);
  EXPECT_NE(text.find("Explanation for output class"), std::string::npos);
  // At least one of the CC concept names appears.
  EXPECT_TRUE(text.find("Packet Loss") != std::string::npos ||
              text.find("Stable Network Conditions") != std::string::npos ||
              text.find("Latency") != std::string::npos);
}

}  // namespace
