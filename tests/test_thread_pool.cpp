#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "concepts/concept_set.hpp"
#include "core/concept_mapping.hpp"
#include "core/explain.hpp"
#include "core/output_mapping.hpp"

namespace {

using namespace agua;
using common::ThreadPool;

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i, std::size_t) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, OneThreadRunsInlineInIndexOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(64, [&](std::size_t i, std::size_t worker) {
    EXPECT_EQ(worker, 0u);  // the caller is worker 0 and there is nobody else
    order.push_back(i);     // safe: inline execution, no other threads
  });
  std::vector<std::size_t> expected(64);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i, std::size_t) {
                          if (i == 37) throw std::runtime_error("task 37 failed");
                        }),
      std::runtime_error);
  // The pool survives a faulted region and runs the next one normally.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ExceptionAbortsRemainingItemsInline) {
  ThreadPool pool(1);  // inline execution makes "remaining" deterministic
  std::vector<bool> ran(10, false);
  EXPECT_THROW(pool.parallel_for(10,
                                 [&](std::size_t i, std::size_t) {
                                   ran[i] = true;
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  for (std::size_t i = 0; i <= 3; ++i) EXPECT_TRUE(ran[i]);
  for (std::size_t i = 4; i < 10; ++i) EXPECT_FALSE(ran[i]);
}

TEST(ThreadPool, NestedParallelForIsRejected) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](std::size_t, std::size_t) {
                                   pool.parallel_for(
                                       2, [](std::size_t, std::size_t) {});
                                 }),
               std::logic_error);
}

TEST(ThreadPool, NestedRejectionCoversOtherPools) {
  // The in-region flag is per-thread, not per-pool: a task may not fan out on
  // ANY pool, or worker counts would multiply.
  ThreadPool outer(2);
  ThreadPool inner(2);
  EXPECT_THROW(outer.parallel_for(4,
                                  [&](std::size_t, std::size_t) {
                                    inner.parallel_for(
                                        2, [](std::size_t, std::size_t) {});
                                  }),
               std::logic_error);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder) {
  ThreadPool pool(4);
  const auto squares =
      pool.parallel_map(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 100u);
  for (std::size_t i = 0; i < squares.size(); ++i) EXPECT_EQ(squares[i], i * i);
}

TEST(ThreadPool, WorkerIdsStayWithinBounds) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> seen(pool.thread_count());
  pool.parallel_for(500, [&](std::size_t, std::size_t worker) {
    ASSERT_LT(worker, pool.thread_count());
    ++seen[worker];
  });
  int total = 0;
  for (auto& s : seen) total += s.load();
  EXPECT_EQ(total, 500);
}

TEST(ThreadPool, ManySmallRegionsStress) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int region = 0; region < 200; ++region) {
    pool.parallel_for(17, [&](std::size_t, std::size_t) { ++count; });
  }
  EXPECT_EQ(count.load(), 200 * 17);
}

TEST(ThreadPool, DefaultPoolResizes) {
  common::set_default_thread_count(3);
  EXPECT_EQ(common::default_thread_count(), 3u);
  EXPECT_EQ(common::default_pool().thread_count(), 3u);
  common::set_default_thread_count(1);
  EXPECT_EQ(common::default_thread_count(), 1u);
}

// ---------------------------------------------------------------------------
// Determinism contract (DESIGN.md §7): training and batched explanation are
// bitwise identical for any pool size, because the gradient chunk partition
// is thread-count independent and reductions run in fixed index order.

core::ConceptMapping train_concept_mapping(double* loss_out) {
  common::Rng init_rng(101);
  core::ConceptMapping::Config config;
  config.embedding_dim = 6;
  config.num_concepts = 3;
  config.num_levels = 3;
  config.epochs = 8;
  config.batch_size = 40;  // several 16-row chunks per batch, with a remainder
  core::ConceptMapping mapping(config, init_rng);
  common::Rng data_rng(102);
  std::vector<std::vector<double>> embeddings(130);
  std::vector<std::vector<std::size_t>> levels(embeddings.size());
  for (std::size_t i = 0; i < embeddings.size(); ++i) {
    embeddings[i].resize(config.embedding_dim);
    for (double& x : embeddings[i]) x = data_rng.uniform(-1.0, 1.0);
    levels[i].resize(config.num_concepts);
    for (auto& l : levels[i]) l = static_cast<std::size_t>(data_rng.uniform(0.0, 2.999));
  }
  common::Rng train_rng(103);
  *loss_out = mapping.train(embeddings, levels, train_rng);
  return mapping;
}

TEST(ParallelDeterminism, ConceptMappingTrainingIsBitwiseReproducible) {
  common::set_default_thread_count(1);
  double serial_loss = 0.0;
  core::ConceptMapping serial = train_concept_mapping(&serial_loss);

  common::set_default_thread_count(4);
  double parallel_loss = 0.0;
  core::ConceptMapping parallel = train_concept_mapping(&parallel_loss);
  common::set_default_thread_count(1);

  // Exact equality on purpose — the §7 contract is bitwise, not approximate.
  EXPECT_EQ(serial_loss, parallel_loss);
  const std::vector<double> probe = {0.3, -0.7, 0.1, 0.9, -0.2, 0.5};
  const auto serial_probs = serial.concept_probs(probe);
  const auto parallel_probs = parallel.concept_probs(probe);
  ASSERT_EQ(serial_probs.size(), parallel_probs.size());
  for (std::size_t j = 0; j < serial_probs.size(); ++j) {
    EXPECT_EQ(serial_probs[j], parallel_probs[j]) << "index " << j;
  }
}

core::OutputMapping train_output_mapping(double* loss_out) {
  common::Rng init_rng(201);
  core::OutputMapping::Config config;
  config.concept_dim = 9;
  config.num_outputs = 4;
  config.epochs = 12;
  config.batch_size = 50;
  core::OutputMapping mapping(config, init_rng);
  common::Rng data_rng(202);
  std::vector<std::vector<double>> inputs(170);
  std::vector<std::vector<double>> targets(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i].resize(config.concept_dim);
    for (double& x : inputs[i]) x = data_rng.uniform(0.0, 1.0);
    std::vector<double> scores(config.num_outputs);
    for (double& s : scores) s = data_rng.uniform(-1.0, 1.0);
    targets[i] = common::softmax(scores);
  }
  common::Rng train_rng(203);
  *loss_out = mapping.train(nn::Matrix::from_rows(inputs), nn::Matrix::from_rows(targets),
                            train_rng);
  return mapping;
}

TEST(ParallelDeterminism, OutputMappingTrainingIsBitwiseReproducible) {
  common::set_default_thread_count(1);
  double serial_loss = 0.0;
  core::OutputMapping serial = train_output_mapping(&serial_loss);

  common::set_default_thread_count(4);
  double parallel_loss = 0.0;
  core::OutputMapping parallel = train_output_mapping(&parallel_loss);
  common::set_default_thread_count(1);

  EXPECT_EQ(serial_loss, parallel_loss);
  for (std::size_t c = 0; c < 4; ++c) {
    const auto serial_w = serial.class_weights(c);
    const auto parallel_w = parallel.class_weights(c);
    ASSERT_EQ(serial_w.size(), parallel_w.size());
    for (std::size_t j = 0; j < serial_w.size(); ++j) {
      EXPECT_EQ(serial_w[j], parallel_w[j]) << "class " << c << " weight " << j;
    }
    EXPECT_EQ(serial.class_bias(c), parallel.class_bias(c));
  }
}

TEST(ParallelDeterminism, ExplainBatchedIsBitwiseReproducible) {
  common::set_default_thread_count(1);
  double loss = 0.0;
  core::ConceptMapping mapping = train_concept_mapping(&loss);
  core::OutputMapping output = train_output_mapping(&loss);
  const concepts::ConceptSet concept_set(
      "test", {{"latency", "high round-trip delay"},
               {"loss", "packets dropped in flight"},
               {"throughput", "sustained delivery rate"}});
  core::AguaModel model(concept_set, std::move(mapping), std::move(output));

  common::Rng rng(301);
  std::vector<std::vector<double>> embeddings(64);
  for (auto& e : embeddings) {
    e.resize(6);
    for (double& x : e) x = rng.uniform(-1.0, 1.0);
  }

  common::set_default_thread_count(1);
  const core::Explanation serial = core::explain_batched(model, embeddings);
  common::set_default_thread_count(4);
  const core::Explanation parallel = core::explain_batched(model, embeddings);
  common::set_default_thread_count(1);

  EXPECT_EQ(serial.output_probability, parallel.output_probability);
  EXPECT_EQ(serial.concept_weights, parallel.concept_weights);
  EXPECT_EQ(serial.raw_contributions, parallel.raw_contributions);
  EXPECT_EQ(serial.signed_concept_contributions, parallel.signed_concept_contributions);
  EXPECT_EQ(serial.dominant_levels, parallel.dominant_levels);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_explanation(const core::Explanation& a, const core::Explanation& b) {
  return a.output_class == b.output_class && a.predicted_class == b.predicted_class &&
         std::memcmp(&a.output_probability, &b.output_probability, sizeof(double)) == 0 &&
         same_bits(a.concept_weights, b.concept_weights) &&
         same_bits(a.raw_contributions, b.raw_contributions) &&
         same_bits(a.signed_concept_contributions, b.signed_concept_contributions) &&
         a.dominant_levels == b.dominant_levels;
}

// Inference is const (nn::Module::infer caches nothing), so threads may share
// one model with no clones: four threads explain the same inputs on one
// `const AguaModel&` at once and must match a serial run bitwise. Under the
// tsan preset this is also the race check for the shared inference path.
TEST(ParallelDeterminism, SharedConstModelExplainsFromFourThreadsWithoutClones) {
  common::set_default_thread_count(1);
  double loss = 0.0;
  core::ConceptMapping mapping = train_concept_mapping(&loss);
  core::OutputMapping output = train_output_mapping(&loss);
  const concepts::ConceptSet concept_set(
      "test", {{"latency", "high round-trip delay"},
               {"loss", "packets dropped in flight"},
               {"throughput", "sustained delivery rate"}});
  const core::AguaModel model(concept_set, std::move(mapping), std::move(output));

  common::Rng rng(401);
  std::vector<std::vector<double>> embeddings(64);
  for (auto& e : embeddings) {
    e.resize(6);
    for (double& x : e) x = rng.uniform(-1.0, 1.0);
  }
  auto explain_all = [&](const core::AguaModel& shared) {
    std::vector<core::Explanation> out;
    for (const auto& e : embeddings) {
      out.push_back(core::explain_factual(shared, e));
      for (std::size_t c = 0; c < shared.num_outputs(); ++c) {
        out.push_back(core::explain_for_class(shared, e, c));
      }
    }
    return out;
  };
  const std::vector<core::Explanation> serial = explain_all(model);

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<core::Explanation>> results(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();  // all four explain at once
      results[t] = explain_all(model);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(same_explanation(results[t][i], serial[i])) << "thread " << t << " item " << i;
    }
  }
}

}  // namespace
