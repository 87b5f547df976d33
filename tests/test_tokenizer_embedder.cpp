#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "text/embedder.hpp"
#include "text/tokenizer.hpp"

namespace {

using namespace agua::text;

TEST(Tokenizer, LowercasesAndSplits) {
  const auto tokens = word_tokens("Stable Network-Throughput!");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "stable");
  EXPECT_EQ(tokens[1], "network");
  EXPECT_EQ(tokens[2], "throughput");
}

TEST(Tokenizer, DropsBareNumbers) {
  const auto tokens = word_tokens("buffer 15 seconds 3.5");
  // "15", "3" and "5" are dropped; "buffer" and "seconds" stay.
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "buffer");
  EXPECT_EQ(tokens[1], "seconds");
}

TEST(Tokenizer, Bigrams) {
  const auto bigrams = word_bigrams({"a", "b", "c"});
  ASSERT_EQ(bigrams.size(), 2u);
  EXPECT_EQ(bigrams[0], "a_b");
  EXPECT_EQ(bigrams[1], "b_c");
  EXPECT_TRUE(word_bigrams({"solo"}).empty());
}

TEST(Tokenizer, CharTrigramsHaveBoundaryMarkers) {
  const auto grams = char_trigrams({"word"});
  // ^word$ -> ^wo, wor, ord, rd$
  ASSERT_EQ(grams.size(), 4u);
  EXPECT_EQ(grams.front(), "^wo");
  EXPECT_EQ(grams.back(), "rd$");
}

TEST(Tokenizer, AllTokensCombines) {
  const auto tokens = all_tokens("ab cd");
  // words: ab, cd; bigram: ab_cd; trigrams: ^ab, ab$, ^cd, cd$
  EXPECT_EQ(tokens.size(), 7u);
}

TEST(Embedder, OutputIsUnitNorm) {
  TextEmbedder embedder;
  const auto v = embedder.embed("volatile network throughput conditions");
  double norm = 0.0;
  for (double x : v) norm += x * x;
  EXPECT_NEAR(norm, 1.0, 1e-9);
}

TEST(Embedder, EmptyTextIsZeroVector) {
  TextEmbedder embedder;
  const auto v = embedder.embed("");
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(Embedder, IdenticalTextsHaveSimilarityOne) {
  TextEmbedder embedder;
  const auto a = embedder.embed("rapidly depleting buffer");
  EXPECT_NEAR(cosine_similarity(a, a), 1.0, 1e-9);
}

TEST(Embedder, RelatedTextsMoreSimilarThanUnrelated) {
  TextEmbedder embedder;
  const auto base = embedder.embed(
      "network throughput is volatile and swings widely between samples");
  const auto related = embedder.embed("volatile network throughput conditions");
  const auto unrelated = embedder.embed("the cat sat quietly on a warm windowsill");
  EXPECT_GT(cosine_similarity(base, related), cosine_similarity(base, unrelated));
}

TEST(Embedder, MorphologicalOverlapViaTrigrams) {
  TextEmbedder embedder;
  const auto a = embedder.embed("increase");
  const auto b = embedder.embed("increasing");
  const auto c = embedder.embed("plummet");
  EXPECT_GT(cosine_similarity(a, b), cosine_similarity(a, c));
}

TEST(Embedder, VariantsProduceDifferentGeometry) {
  TextEmbedder open_variant(open_source_embedder_config());
  TextEmbedder closed_variant(closed_source_embedder_config());
  EXPECT_NE(open_variant.config().dim, closed_variant.config().dim);
  const auto a = open_variant.embed("stable buffer");
  const auto b = closed_variant.embed("stable buffer");
  EXPECT_NE(a.size(), b.size());
}

TEST(Embedder, IdfDownweightsUbiquitousTokens) {
  TextEmbedder embedder;
  // "pattern" appears in every doc; "flood" in one.
  embedder.fit({"pattern alpha", "pattern beta", "pattern gamma", "pattern flood"});
  ASSERT_TRUE(embedder.fitted());
  const auto q = embedder.embed("flood pattern");
  const auto flood_doc = embedder.embed("flood delta");
  const auto pattern_doc = embedder.embed("pattern epsilon");
  EXPECT_GT(cosine_similarity(q, flood_doc), cosine_similarity(q, pattern_doc));
}

TEST(Embedder, DeterministicAcrossInstances) {
  TextEmbedder a;
  TextEmbedder b;
  EXPECT_EQ(a.embed("concept based explainability"),
            b.embed("concept based explainability"));
}

TEST(Embedder, CosineHandlesMismatchedOrZero) {
  EXPECT_DOUBLE_EQ(cosine_similarity({1.0, 2.0}, {1.0}), 0.0);
  EXPECT_DOUBLE_EQ(cosine_similarity({0.0, 0.0}, {1.0, 0.0}), 0.0);
}

// fit counts document frequencies per pool worker and sums the tables. The
// counts are integers, so the IDF weights, and every embedding, must be the
// same for any pool size and when fit runs inside a pool task (where a nested
// region would throw, so it counts serially).
TEST(Embedder, FitIsTheSameForAnyPoolSizeAndInsideAPoolTask) {
  std::vector<std::string> corpus;
  const char* const words[] = {"buffer", "stall", "throughput", "bitrate", "drop", "steady"};
  for (std::size_t i = 0; i < 300; ++i) {
    corpus.push_back(std::string(words[i % 6]) + " " + words[(i * 7) % 6] + " level " +
                     std::to_string(i % 13) + (i % 5 == 0 ? " rising sharply" : " flat"));
  }
  auto fitted = [&] {
    TextEmbedder embedder;
    embedder.fit(corpus);
    return embedder;
  };
  agua::common::set_default_thread_count(1);
  const TextEmbedder serial = fitted();
  agua::common::set_default_thread_count(4);
  const TextEmbedder parallel = fitted();
  TextEmbedder nested;
  agua::common::ThreadPool outer(2);
  outer.parallel_for(1, [&](std::size_t, std::size_t) { nested.fit(corpus); });
  agua::common::set_default_thread_count(1);

  const std::vector<const TextEmbedder*> others = {&parallel, &nested};
  for (const char* probe : {"buffer stall rising sharply", "steady bitrate level 4", "novel"}) {
    const std::vector<double> expected = serial.embed(probe);
    for (const TextEmbedder* other : others) {
      const std::vector<double> got = other->embed(probe);
      ASSERT_EQ(got.size(), expected.size());
      EXPECT_EQ(std::memcmp(got.data(), expected.data(), got.size() * sizeof(double)), 0)
          << probe;
    }
  }
}

}  // namespace
