// Loopback tests for the explanation serving plane (src/serve): the JSON
// reader, the sharded LRU cache, and ExplainService mounted on a real
// net::HttpServer — single and coalesced requests, no linger for a lone
// request, cache hit vs miss with byte-identical bodies, deadline expiry →
// 408, model hot-swap during an in-flight batch, the generation header
// across reinstalls, and the 400/404/503 error grammar. Fixture names start
// with Serve/HttpServer so the tsan preset picks the whole file up.
#include "serve/service.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/model_io.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"

namespace {

using namespace agua;
using namespace agua::serve;

core::AguaModel make_model(std::uint64_t seed = 1) {
  common::Rng rng(seed);
  core::ConceptMapping::Config cm;
  cm.embedding_dim = 4;
  cm.num_concepts = 3;
  cm.num_levels = 3;
  core::ConceptMapping mapping(cm, rng);
  core::OutputMapping::Config om;
  om.concept_dim = 9;
  om.num_outputs = 4;
  core::OutputMapping output(om, rng);
  return core::AguaModel(concepts::cc_concepts().prefix(3), std::move(mapping),
                         std::move(output));
}

// ---------------------------------------------------------------------------
// JSON reader

TEST(ServeJson, ParsesRequestShapes) {
  const JsonParseResult r =
      json_parse(R"({"input": [0.5, -1.25e2], "output_class": 2, "flag": true})");
  ASSERT_TRUE(r.ok) << r.error;
  const JsonValue* input = r.value.find("input");
  ASSERT_NE(input, nullptr);
  ASSERT_TRUE(input->is_array());
  ASSERT_EQ(input->array.size(), 2u);
  EXPECT_DOUBLE_EQ(input->array[0].number, 0.5);
  EXPECT_DOUBLE_EQ(input->array[1].number, -125.0);
  EXPECT_DOUBLE_EQ(r.value.find("output_class")->number, 2.0);
  EXPECT_TRUE(r.value.find("flag")->boolean);
  EXPECT_EQ(r.value.find("missing"), nullptr);
}

TEST(ServeJson, ParsesNestingStringsAndNull) {
  const JsonParseResult r =
      json_parse(R"({"a": {"b": [null, "x\ny", {"c": 1}]}, "d": false})");
  ASSERT_TRUE(r.ok) << r.error;
  const JsonValue* b = r.value.find("a")->find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_TRUE(b->array[0].is_null());
  EXPECT_EQ(b->array[1].string, "x\ny");
  EXPECT_DOUBLE_EQ(b->array[2].find("c")->number, 1.0);
}

TEST(ServeJson, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",                      // empty
      "{",                     // unterminated object
      "{\"a\": }",             // missing value
      "{\"a\": 1,}",           // trailing comma... (strict: expects key)
      "[1, 2",                 // unterminated array
      "{\"a\": 1} garbage",    // trailing bytes
      "{\"a\": 1e}",           // malformed number
      "{'a': 1}",              // wrong quotes
      "{\"a\": tru}",          // bad literal
      "{\"a\": \"unterminated",
  };
  for (const char* doc : bad) {
    const JsonParseResult r = json_parse(doc);
    EXPECT_FALSE(r.ok) << "accepted: " << doc;
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(ServeJson, BoundsNestingDepth) {
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += "[";
  for (int i = 0; i < 64; ++i) deep += "]";
  EXPECT_FALSE(json_parse(deep, 32).ok);
  EXPECT_TRUE(json_parse(deep, 128).ok);
}

// ---------------------------------------------------------------------------
// Sharded LRU cache

TEST(ServeCache, HitMissAndPromotion) {
  ShardedLruCache cache(8, 1);  // one shard: eviction order is global LRU
  std::string value;
  EXPECT_FALSE(cache.get("a", value));
  cache.put("a", "1");
  ASSERT_TRUE(cache.get("a", value));
  EXPECT_EQ(value, "1");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ServeCache, EvictsLeastRecentlyUsed) {
  ShardedLruCache cache(2, 1);
  cache.put("a", "1");
  cache.put("b", "2");
  std::string value;
  ASSERT_TRUE(cache.get("a", value));  // promote "a"; "b" is now LRU
  EXPECT_TRUE(cache.put("c", "3"));    // evicts "b"
  EXPECT_TRUE(cache.get("a", value));
  EXPECT_FALSE(cache.get("b", value));
  EXPECT_TRUE(cache.get("c", value));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ServeCache, ZeroCapacityDisables) {
  ShardedLruCache cache(0);
  cache.put("a", "1");
  std::string value;
  EXPECT_FALSE(cache.get("a", value));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServeCache, ShardedInsertsStayBounded) {
  ShardedLruCache cache(64, 8);
  for (int i = 0; i < 1000; ++i) {
    cache.put("key-" + std::to_string(i), "v");
  }
  const CacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, 64u);
  EXPECT_GT(stats.evictions, 0u);
}

// ---------------------------------------------------------------------------
// ExplainService over a real loopback HTTP server

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::set_trace_enabled(false);
    obs::clear_spans();
    obs::event_log().clear();
    obs::event_log().set_enabled(true);
    obs::reset_monitors();
    obs::MetricsRegistry::instance().reset();
    obs::clear_trace_index();
    obs::SloRegistry::instance().clear_for_testing();
  }

  /// Builds the service (with the given options), installs a model + rows,
  /// mounts it, and starts the HTTP server with a worker pool.
  void start(ExplainServiceOptions options = {}) {
    service_ = std::make_unique<ExplainService>(options);
    core::AguaModel model = make_model();
    service_->set_rows({{0.1, -0.4, 0.7, 0.2}, {0.3, 0.1, -0.2, 0.9}});
    service_->install_model(std::move(model), "test");
    net::HttpServerOptions http_options;
    http_options.connection_threads = 4;
    server_ = std::make_unique<net::HttpServer>(http_options);
    service_->mount(*server_);
    ASSERT_TRUE(server_->start()) << server_->last_error();
  }

  void TearDown() override {
    if (server_) server_->stop();
    if (service_) service_->stop();
  }

  net::HttpClientResponse post_explain(const std::string& body) {
    net::HttpClientResponse response;
    EXPECT_TRUE(net::http_post("127.0.0.1", server_->port(), "/explain", body, response));
    return response;
  }

  double counter_value(const std::string& name) {
    return static_cast<double>(obs::MetricsRegistry::instance().counter(name).value());
  }

  std::unique_ptr<ExplainService> service_;
  std::unique_ptr<net::HttpServer> server_;
};

TEST_F(ServeTest, SingleRequestRoundTrip) {
  start();
  const net::HttpClientResponse response =
      post_explain(R"({"input": [0.1, -0.4, 0.7, 0.2]})");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json; charset=utf-8");
  const JsonParseResult parsed = json_parse(response.body);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(parsed.value.find("fingerprint")->is_string());
  EXPECT_EQ(parsed.value.find("concept_weights")->array.size(), 3u);
  ASSERT_GE(parsed.value.find("top")->array.size(), 1u);
  EXPECT_TRUE(parsed.value.find("top")->array[0].find("name")->is_string());
}

TEST_F(ServeTest, RowLookupMatchesInlineInput) {
  start();
  const net::HttpClientResponse by_row = post_explain(R"({"row": 0})");
  const net::HttpClientResponse by_input =
      post_explain(R"({"input": [0.1, -0.4, 0.7, 0.2]})");
  EXPECT_EQ(by_row.status, 200);
  EXPECT_EQ(by_row.body, by_input.body);
}

TEST_F(ServeTest, CounterfactualTargetsRequestedClass) {
  start();
  const net::HttpClientResponse response =
      post_explain(R"({"row": 0, "output_class": 2})");
  ASSERT_EQ(response.status, 200);
  const JsonParseResult parsed = json_parse(response.body);
  ASSERT_TRUE(parsed.ok);
  EXPECT_DOUBLE_EQ(parsed.value.find("output_class")->number, 2.0);
}

TEST_F(ServeTest, RepeatedRequestServedFromCacheByteIdentical) {
  start();
  const std::string body = R"({"input": [0.1, -0.4, 0.7, 0.2]})";
  const net::HttpClientResponse cold = post_explain(body);
  ASSERT_EQ(cold.status, 200);
  EXPECT_EQ(cold.header("x-agua-cache"), "miss");
  EXPECT_EQ(counter_value("agua.serve.cache.hits"), 0.0);
  const net::HttpClientResponse warm = post_explain(body);
  ASSERT_EQ(warm.status, 200);
  EXPECT_EQ(warm.header("x-agua-cache"), "hit");
  EXPECT_EQ(warm.body, cold.body);  // byte-identical, cache state in headers only
  EXPECT_EQ(counter_value("agua.serve.cache.hits"), 1.0);
  EXPECT_EQ(counter_value("agua.serve.cache.misses"), 1.0);
  const CacheStats stats = service_->cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(ServeTest, DifferentRequestKindsMissIndependently) {
  start();
  post_explain(R"({"row": 0})");
  post_explain(R"({"row": 0, "output_class": 1})");  // same input, different kind
  post_explain(R"({"row": 0, "top_k": 2})");         // same input, different rendering
  EXPECT_EQ(counter_value("agua.serve.cache.misses"), 3.0);
  EXPECT_EQ(counter_value("agua.serve.cache.hits"), 0.0);
}

TEST_F(ServeTest, MalformedRequestsAnswer400) {
  start();
  EXPECT_EQ(post_explain("{not json").status, 400);
  EXPECT_EQ(post_explain("[]").status, 400);                      // not an object
  EXPECT_EQ(post_explain("{}").status, 400);                      // no input/row
  EXPECT_EQ(post_explain(R"({"input": [1], "row": 0})").status, 400);  // both
  EXPECT_EQ(post_explain(R"({"input": ["x"]})").status, 400);     // non-numeric
  EXPECT_EQ(post_explain(R"({"input": [1, 2]})").status, 400);    // wrong width
  EXPECT_EQ(post_explain(R"({"row": 0.5})").status, 400);         // fractional row
  EXPECT_EQ(post_explain(R"({"row": 0, "output_class": 99})").status, 400);
  EXPECT_EQ(post_explain(R"({"row": 0, "top_k": 0})").status, 400);
}

TEST_F(ServeTest, UnknownRowAnswers404) {
  start();
  EXPECT_EQ(post_explain(R"({"row": 999})").status, 404);
}

TEST_F(ServeTest, NonFiniteInputAnswers400) {
  start();
  // 1e999 parses to +inf via strtod; the slot isolation layer rejects it.
  const net::HttpClientResponse response =
      post_explain(R"({"input": [1e999, 0, 0, 0]})");
  EXPECT_EQ(response.status, 400);
}

TEST_F(ServeTest, NoModelAnswers503) {
  service_ = std::make_unique<ExplainService>();
  server_ = std::make_unique<net::HttpServer>();
  service_->mount(*server_);
  ASSERT_TRUE(server_->start());
  const net::HttpClientResponse response = post_explain(R"({"input": [1]})");
  EXPECT_EQ(response.status, 503);
  net::HttpClientResponse modelz;
  ASSERT_TRUE(net::http_get("127.0.0.1", server_->port(), "/modelz", modelz));
  EXPECT_EQ(modelz.status, 503);
}

TEST_F(ServeTest, ModelzReportsIdentityAndCounters) {
  start();
  post_explain(R"({"row": 0})");
  post_explain(R"({"row": 0})");
  net::HttpClientResponse response;
  ASSERT_TRUE(net::http_get("127.0.0.1", server_->port(), "/modelz", response));
  ASSERT_EQ(response.status, 200);
  const JsonParseResult parsed = json_parse(response.body);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.find("fingerprint")->string.size(), 16u);
  EXPECT_DOUBLE_EQ(parsed.value.find("generation")->number, 1.0);
  EXPECT_DOUBLE_EQ(parsed.value.find("rows")->number, 2.0);
  EXPECT_DOUBLE_EQ(parsed.value.find("cache")->find("hits")->number, 1.0);
  EXPECT_DOUBLE_EQ(parsed.value.find("cache")->find("misses")->number, 1.0);
}

TEST_F(ServeTest, CoalescesConcurrentRequestsIntoOneBatch) {
  // Block the dispatcher after it pops the first request; meanwhile flood in
  // more requests; on release they must all ride the same batch.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> collected{0};
  ExplainServiceOptions options;
  options.max_batch = 8;
  options.batch_linger_us = 200 * 1000;  // generous: the queue drain ends it
  service_ = std::make_unique<ExplainService>(options);
  service_->set_collect_hook([&] {
    collected.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  });
  core::AguaModel model = make_model();
  service_->install_model(std::move(model), "test");
  service_->set_rows({{0.1, -0.4, 0.7, 0.2}});
  net::HttpServerOptions http_options;
  http_options.connection_threads = 6;
  server_ = std::make_unique<net::HttpServer>(http_options);
  service_->mount(*server_);
  ASSERT_TRUE(server_->start());

  constexpr int kRequests = 5;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int i = 0; i < kRequests; ++i) {
    clients.emplace_back([&, i] {
      net::HttpClientResponse response;
      // Distinct inputs so nothing is served from cache.
      const std::string body =
          "{\"input\": [0." + std::to_string(i + 1) + ", 0, 0, 0]}";
      if (net::http_post("127.0.0.1", server_->port(), "/explain", body, response) &&
          response.status == 200) {
        ok.fetch_add(1);
      }
    });
  }
  // Wait until the dispatcher has the first request and is parked, then let
  // the rest land in the queue before opening the gate.
  while (collected.load() == 0) std::this_thread::yield();
  const auto settle_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < settle_deadline) {
    if (counter_value("agua.serve.cache.misses") >= kRequests) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kRequests);
  // All requests were answered with strictly fewer batches than requests —
  // coalescing happened. (Exact batch count depends on arrival timing of the
  // first pop, so assert the inequality, not equality.)
  EXPECT_LT(counter_value("agua.serve.batches"), static_cast<double>(kRequests));
  EXPECT_GE(obs::MetricsRegistry::instance().histogram("agua.serve.batch.size")
                .snapshot().count,
            1u);
}

TEST_F(ServeTest, LoneRequestIsNotLingered) {
  // The dispatcher lingers only while another /explain is in flight, so a
  // lone request is explained at once, however long the linger cap.
  ExplainServiceOptions options;
  options.batch_linger_us = 1'000'000;
  start(options);
  const auto begin = std::chrono::steady_clock::now();
  const net::HttpClientResponse response =
      post_explain(R"({"input": [0.1, -0.4, 0.7, 0.2]})");
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_LT(elapsed, std::chrono::milliseconds(250));
}

TEST_F(ServeTest, DeadlineExpiryAnswers408) {
  ExplainServiceOptions options;
  options.request_deadline_ms = 50;
  service_ = std::make_unique<ExplainService>(options);
  service_->set_batch_hook([](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  });
  core::AguaModel model = make_model();
  service_->install_model(std::move(model), "test");
  server_ = std::make_unique<net::HttpServer>();
  service_->mount(*server_);
  ASSERT_TRUE(server_->start());
  const net::HttpClientResponse response =
      post_explain(R"({"input": [0.1, -0.4, 0.7, 0.2]})");
  EXPECT_EQ(response.status, 408);
  EXPECT_EQ(counter_value("agua.serve.deadline_expired"), 1.0);
}

TEST_F(ServeTest, HotSwapDuringInFlightBatchFinishesOnOldModel) {
  // The batch hook fires after the dispatcher snapshotted its model entry;
  // swapping there must not affect the in-flight batch's fingerprint.
  std::atomic<bool> swapped{false};
  service_ = std::make_unique<ExplainService>();
  const ModelInfo first = service_->install_model(make_model(1), "gen1");
  service_->set_batch_hook([&](std::size_t) {
    if (!swapped.exchange(true)) {
      service_->install_model(make_model(2), "gen2");
    }
  });
  server_ = std::make_unique<net::HttpServer>();
  service_->mount(*server_);
  ASSERT_TRUE(server_->start());

  const net::HttpClientResponse in_flight =
      post_explain(R"({"input": [0.1, -0.4, 0.7, 0.2]})");
  ASSERT_EQ(in_flight.status, 200);
  const JsonParseResult parsed = json_parse(in_flight.body);
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.value.find("fingerprint")->string, first.fingerprint);

  // The next (distinct) request sees the new generation.
  const net::HttpClientResponse after =
      post_explain(R"({"input": [0.3, 0.1, -0.2, 0.9]})");
  ASSERT_EQ(after.status, 200);
  const JsonParseResult parsed_after = json_parse(after.body);
  ASSERT_TRUE(parsed_after.ok);
  EXPECT_NE(parsed_after.value.find("fingerprint")->string, first.fingerprint);
  EXPECT_EQ(after.header("x-agua-generation"), "2");
}

TEST_F(ServeTest, SwapBeforeTheBatchCachesUnderTheModelThatRendered) {
  // A swap between a request's admission and its batch's model snapshot
  // explains the request on the new model. Its result must be cached under
  // that model's fingerprint, not under the one the request was admitted on.
  std::atomic<bool> swapped{false};
  service_ = std::make_unique<ExplainService>();
  const ModelInfo a = service_->install_model(make_model(1), "A");
  service_->set_collect_hook([&] {
    if (!swapped.exchange(true)) service_->install_model(make_model(2), "B");
  });
  server_ = std::make_unique<net::HttpServer>();
  service_->mount(*server_);
  ASSERT_TRUE(server_->start());

  const std::string body = R"({"input": [0.1, -0.4, 0.7, 0.2]})";
  const net::HttpClientResponse on_b = post_explain(body);
  ASSERT_EQ(on_b.status, 200);
  EXPECT_EQ(on_b.header("x-agua-generation"), "2");
  const JsonParseResult parsed_b = json_parse(on_b.body);
  ASSERT_TRUE(parsed_b.ok);
  EXPECT_NE(parsed_b.value.find("fingerprint")->string, a.fingerprint);

  service_->install_model(make_model(1), "A again");
  const net::HttpClientResponse on_a = post_explain(body);
  ASSERT_EQ(on_a.status, 200);
  EXPECT_EQ(on_a.header("x-agua-cache"), "miss");
  EXPECT_EQ(on_a.header("x-agua-generation"), "3");
  const JsonParseResult parsed_a = json_parse(on_a.body);
  ASSERT_TRUE(parsed_a.ok);
  EXPECT_EQ(parsed_a.value.find("fingerprint")->string, a.fingerprint);
}

TEST_F(ServeTest, CacheHitAfterReinstallCarriesCurrentGeneration) {
  // A cached body is a pure function of (fingerprint, request); the
  // generation that serves it travels in X-Agua-Generation. After installs
  // A, B, A the entry cached under A's first install (generation 1) hits
  // again, and must report generation 3.
  start();
  const std::string body = R"({"input": [0.1, -0.4, 0.7, 0.2]})";
  const net::HttpClientResponse miss = post_explain(body);
  ASSERT_EQ(miss.status, 200);
  EXPECT_EQ(miss.header("x-agua-cache"), "miss");
  EXPECT_EQ(miss.header("x-agua-generation"), "1");
  service_->install_model(make_model(2), "B");
  service_->install_model(make_model(), "A again");
  const net::HttpClientResponse hit = post_explain(body);
  ASSERT_EQ(hit.status, 200);
  EXPECT_EQ(hit.header("x-agua-cache"), "hit");
  EXPECT_EQ(hit.header("x-agua-generation"), "3");
  EXPECT_EQ(hit.body, miss.body);
}

TEST_F(ServeTest, ReloadzSwapsFromArchiveAndBumpsGeneration) {
  start();
  const std::string path = ::testing::TempDir() + "serve_reload_model.bin";
  core::AguaModel replacement = make_model(7);
  ASSERT_TRUE(core::save_model_file(path, replacement));
  net::HttpClientResponse response;
  ASSERT_TRUE(net::http_post("127.0.0.1", server_->port(), "/reloadz",
                             "{\"path\": \"" + path + "\"}", response));
  ASSERT_EQ(response.status, 200) << response.body;
  const JsonParseResult parsed = json_parse(response.body);
  ASSERT_TRUE(parsed.ok);
  EXPECT_DOUBLE_EQ(parsed.value.find("generation")->number, 2.0);
  EXPECT_EQ(parsed.value.find("fingerprint")->string,
            core::model_fingerprint(replacement));
  std::remove(path.c_str());

  // Explanations now come from the swapped model.
  const net::HttpClientResponse explained = post_explain(R"({"row": 0})");
  ASSERT_EQ(explained.status, 200);
  const JsonParseResult body = json_parse(explained.body);
  ASSERT_TRUE(body.ok);
  EXPECT_EQ(body.value.find("fingerprint")->string,
            core::model_fingerprint(replacement));
}

TEST_F(ServeTest, ReloadzMissingFileAnswers404) {
  start();
  net::HttpClientResponse response;
  ASSERT_TRUE(net::http_post("127.0.0.1", server_->port(), "/reloadz",
                             R"({"path": "/nonexistent/model.bin"})", response));
  EXPECT_EQ(response.status, 404);
  const JsonParseResult parsed = json_parse(response.body);
  ASSERT_TRUE(parsed.ok);
  const JsonValue* envelope = parsed.value.find("error");
  ASSERT_NE(envelope, nullptr);
  EXPECT_EQ(envelope->find("code")->string, "io_error");
  EXPECT_TRUE(envelope->find("message")->is_string());
}

TEST_F(ServeTest, ReloadzRejectsAPathThatIsNotARegularFile) {
  start();
  // Opening a FIFO for reading blocks until a writer appears: loaded on the
  // connection worker, it would pin that worker for good.
  const std::string fifo = ::testing::TempDir() + "serve_reload_fifo";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  net::HttpClientResponse response;
  const bool answered = net::http_post("127.0.0.1", server_->port(), "/reloadz",
                                       "{\"path\": \"" + fifo + "\"}", response, 2000);
  // Release a worker blocked in open() (a writer appears and leaves), so a
  // failure here cannot hang the server's shutdown.
  const int writer = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
  if (writer >= 0) ::close(writer);
  std::remove(fifo.c_str());
  ASSERT_TRUE(answered);
  EXPECT_EQ(response.status, 400) << response.body;
  const JsonParseResult parsed = json_parse(response.body);
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.value.find("error")->find("code")->string, "bad_request");
  EXPECT_EQ(service_->model_info()->generation, 1u);
}

TEST_F(ServeTest, TracedExplainJoinsSpanIndexBatchSpanAndSlo) {
  obs::SloRegistry::instance().track(
      {.endpoint = "/explain", .latency_threshold_s = 5.0, .objective = 0.99});
  start();
  net::HttpClientResponse response;
  ASSERT_TRUE(net::http_request(
      "POST", "127.0.0.1", server_->port(), "/explain", response, 5000,
      R"({"input": [0.1, -0.4, 0.7, 0.2]})", "application/json",
      {{"traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"}}));
  ASSERT_EQ(response.status, 200);
  // The response echoes the client's trace id...
  EXPECT_EQ(response.header("x-agua-trace-id"), "4bf92f3577b34da6a3ce929d0e0e4736");
  // ...and the per-trace index holds both the request span (connection
  // thread) and the shared batch span (dispatcher thread, annotated in).
  obs::TraceId id;
  ASSERT_TRUE(obs::TraceId::parse("4bf92f3577b34da6a3ce929d0e0e4736", id));
  const std::vector<obs::SpanRecord> spans = obs::spans_for_trace(id);
  std::set<std::string> names;
  for (const obs::SpanRecord& span : spans) names.insert(span.name);
  EXPECT_TRUE(names.count("agua.serve.request")) << "spans: " << spans.size();
  EXPECT_TRUE(names.count("agua.serve.batch")) << "spans: " << spans.size();
  // The SLO tracker classified the request (fast, 200 => good).
  obs::SloTracker* tracker = obs::SloRegistry::instance().find("/explain");
  ASSERT_NE(tracker, nullptr);
  const obs::SloSnapshot slo = tracker->snapshot();
  EXPECT_EQ(slo.total, 1u);
  EXPECT_EQ(slo.bad, 0u);
}

TEST_F(ServeTest, CachedHitStillJoinsTraceAndSlo) {
  obs::SloRegistry::instance().track({.endpoint = "/explain"});
  start();
  const std::string body = R"({"input": [0.1, -0.4, 0.7, 0.2]})";
  ASSERT_EQ(post_explain(body).status, 200);  // warm the cache
  net::HttpClientResponse warm;
  ASSERT_TRUE(net::http_request(
      "POST", "127.0.0.1", server_->port(), "/explain", warm, 5000, body,
      "application/json",
      {{"traceparent", "00-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab-00f067aa0ba902b7-01"}}));
  ASSERT_EQ(warm.status, 200);
  EXPECT_EQ(warm.header("x-agua-cache"), "hit");
  EXPECT_EQ(warm.header("x-agua-trace-id"), "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab");
  // Cache hits bypass the batcher but still record a request span under the
  // trace and count against the SLO.
  obs::TraceId id;
  ASSERT_TRUE(obs::TraceId::parse("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab", id));
  const std::vector<obs::SpanRecord> spans = obs::spans_for_trace(id);
  ASSERT_FALSE(spans.empty());
  bool request_span = false;
  for (const obs::SpanRecord& span : spans) {
    request_span |= span.name == "agua.serve.request";
  }
  EXPECT_TRUE(request_span);
  EXPECT_EQ(obs::SloRegistry::instance().find("/explain")->snapshot().total, 2u);
}

TEST_F(ServeTest, StatusSectionReportsModelCacheAndBatcher) {
  start();
  post_explain(R"({"row": 0})");
  post_explain(R"({"row": 0})");
  const std::string section = service_->status_section();
  const ModelInfo info = service_->model_info().value();
  EXPECT_NE(section.find(info.fingerprint), std::string::npos) << section;
  EXPECT_NE(section.find("hits 1"), std::string::npos) << section;
  // With no model installed the section says so instead of rendering blanks.
  ExplainService empty;
  EXPECT_NE(empty.status_section().find("(none installed)"), std::string::npos);
}

TEST_F(ServeTest, QueueOverflowAnswers503) {
  ExplainServiceOptions options;
  options.queue_capacity = 1;
  options.request_deadline_ms = 5000;
  service_ = std::make_unique<ExplainService>(options);
  // Park the dispatcher so the queue can only drain after we're done.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  service_->set_collect_hook([&] {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  });
  core::AguaModel model = make_model();
  service_->install_model(std::move(model), "test");
  net::HttpServerOptions http_options;
  http_options.connection_threads = 6;
  server_ = std::make_unique<net::HttpServer>(http_options);
  service_->mount(*server_);
  ASSERT_TRUE(server_->start());

  std::vector<std::thread> clients;
  std::atomic<int> rejected{0};
  std::atomic<int> served{0};
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      net::HttpClientResponse response;
      const std::string body =
          "{\"input\": [0." + std::to_string(i + 1) + ", 0, 0, 0]}";
      if (!net::http_post("127.0.0.1", server_->port(), "/explain", body, response,
                          10000)) {
        return;
      }
      (response.status == 503 ? rejected : served).fetch_add(1);
    });
  }
  // One request is in the dispatcher's hands, one fits the queue; with four
  // concurrent clients at least one must overflow.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(8);
  while (rejected.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (std::thread& t : clients) t.join();
  EXPECT_GT(rejected.load(), 0);
  EXPECT_GT(served.load(), 0);
  EXPECT_GE(counter_value("agua.serve.queue_full"), 1.0);
}

}  // namespace
