// Tests for the overload-control plane (src/serve/overload): injected-clock
// unit tests for the four state machines — CoDel admission, per-client token
// buckets, the circuit breaker, and brownout hysteresis — plus loopback tests
// that drive ExplainService through shed/limited/degraded paths and check the
// uniform error envelope, Retry-After, and X-Agua-Trace-Id on every refusal.
// No sleeps gate any state-machine assertion; real time appears only as
// socket I/O. Fixture names start with Overload/HttpServer so the tsan
// preset's test filter picks the whole file up.
#include "serve/overload.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.hpp"
#include "net/http.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"

namespace {

using namespace agua;
using namespace agua::serve;

constexpr std::int64_t kMs = 1'000'000;  // ns per ms

// ---------------------------------------------------------------------------
// Error envelope

TEST(OverloadEnvelope, ShapeAndRetryAfterCeiling) {
  const net::HttpResponse r = error_response(503, "overload_shed", "standing backlog", 1500);
  EXPECT_EQ(r.status, 503);
  const JsonParseResult parsed = json_parse(r.body);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const JsonValue* envelope = parsed.value.find("error");
  ASSERT_NE(envelope, nullptr);
  EXPECT_EQ(envelope->find("code")->string, "overload_shed");
  EXPECT_EQ(envelope->find("message")->string, "standing backlog");
  EXPECT_DOUBLE_EQ(envelope->find("retry_after_ms")->number, 1500.0);
  bool found = false;
  for (const auto& [name, value] : r.extra_headers) {
    if (name == "Retry-After") {
      EXPECT_EQ(value, "2");  // ceil(1500 ms) = 2 s
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(OverloadEnvelope, RetryAfterRoundsUpToOneSecond) {
  const net::HttpResponse r = error_response(429, "rate_limited", "slow down", 1);
  for (const auto& [name, value] : r.extra_headers) {
    if (name == "Retry-After") {
      EXPECT_EQ(value, "1");
    }
  }
  ASSERT_EQ(r.extra_headers.size(), 1u);
}

TEST(OverloadEnvelope, OmitsRetryAfterWhenNotRetryable) {
  const net::HttpResponse r = error_response(400, "bad_request", "no");
  EXPECT_TRUE(r.extra_headers.empty());
  const JsonParseResult parsed = json_parse(r.body);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.find("error")->find("retry_after_ms"), nullptr);
}

// ---------------------------------------------------------------------------
// CoDel admission

TEST(OverloadCodel, QuietBelowTarget) {
  CoDelController codel({/*target_us=*/25'000, /*interval_us=*/100'000});
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(codel.on_dequeue(10'000, i * 10'000), CoDelController::Transition::kNone);
  }
  EXPECT_FALSE(codel.should_shed());
}

TEST(OverloadCodel, ShedsOnlyAfterFullIntervalAboveTarget) {
  CoDelController codel({25'000, 100'000});
  EXPECT_EQ(codel.on_dequeue(30'000, 0), CoDelController::Transition::kNone);
  EXPECT_EQ(codel.on_dequeue(40'000, 50'000), CoDelController::Transition::kNone);
  EXPECT_FALSE(codel.should_shed());  // above target, but not for a full interval
  EXPECT_EQ(codel.on_dequeue(35'000, 100'000), CoDelController::Transition::kShedStart);
  EXPECT_TRUE(codel.should_shed());
  EXPECT_EQ(codel.retry_after_ms(), 101);  // one interval, rounded up
  EXPECT_EQ(codel.last_sojourn_us(), 35'000);
  // Staying above target keeps shedding without re-announcing.
  EXPECT_EQ(codel.on_dequeue(60'000, 150'000), CoDelController::Transition::kNone);
  EXPECT_TRUE(codel.should_shed());
}

TEST(OverloadCodel, OneFastDequeueRecovers) {
  CoDelController codel({25'000, 100'000});
  codel.on_dequeue(30'000, 0);
  codel.on_dequeue(30'000, 100'000);
  ASSERT_TRUE(codel.should_shed());
  EXPECT_EQ(codel.on_dequeue(5'000, 150'000), CoDelController::Transition::kShedEnd);
  EXPECT_FALSE(codel.should_shed());
  // The above-target window restarts from scratch after recovery.
  EXPECT_EQ(codel.on_dequeue(30'000, 200'000), CoDelController::Transition::kNone);
  EXPECT_EQ(codel.on_dequeue(30'000, 250'000), CoDelController::Transition::kNone);
  EXPECT_FALSE(codel.should_shed());
  EXPECT_EQ(codel.on_dequeue(30'000, 300'000), CoDelController::Transition::kShedStart);
}

TEST(OverloadCodel, TightenHalvesTheTarget) {
  CoDelController codel({20'000, 100'000});
  // 15 ms sojourn: below the 20 ms target, above the tightened 10 ms one.
  codel.on_dequeue(15'000, 0, /*tighten=*/true);
  EXPECT_EQ(codel.on_dequeue(15'000, 100'000, true), CoDelController::Transition::kShedStart);
  CoDelController relaxed({20'000, 100'000});
  relaxed.on_dequeue(15'000, 0);
  relaxed.on_dequeue(15'000, 100'000);
  EXPECT_FALSE(relaxed.should_shed());
}

TEST(OverloadCodel, ZeroTargetDisables) {
  CoDelController codel({0, 100'000});
  EXPECT_FALSE(codel.enabled());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(codel.on_dequeue(1'000'000, i * 100'000), CoDelController::Transition::kNone);
  }
  EXPECT_FALSE(codel.should_shed());
}

// ---------------------------------------------------------------------------
// Per-client token buckets

TEST(OverloadRateLimit, BurstThenLimitThenRefill) {
  TokenBucketLimiter limiter({/*rate_per_s=*/1.0, /*burst=*/2.0, /*max_clients=*/16});
  ASSERT_TRUE(limiter.enabled());
  EXPECT_TRUE(limiter.allow("alice", 0).allowed);
  EXPECT_TRUE(limiter.allow("alice", 0).allowed);
  const TokenBucketLimiter::Decision denied = limiter.allow("alice", 0);
  EXPECT_FALSE(denied.allowed);
  EXPECT_EQ(denied.retry_after_ms, 1000);  // 1 token at 1/s
  // 1.5 s later one token has refilled.
  EXPECT_TRUE(limiter.allow("alice", 1500 * kMs).allowed);
  EXPECT_FALSE(limiter.allow("alice", 1500 * kMs).allowed);
  const TokenBucketLimiter::Stats stats = limiter.stats();
  EXPECT_EQ(stats.allowed, 3u);
  EXPECT_EQ(stats.limited, 2u);
}

TEST(OverloadRateLimit, ClientsAreIndependent) {
  TokenBucketLimiter limiter({1.0, 1.0, 16});
  EXPECT_TRUE(limiter.allow("a", 0).allowed);
  EXPECT_FALSE(limiter.allow("a", 0).allowed);
  EXPECT_TRUE(limiter.allow("b", 0).allowed);  // b has its own bucket
}

TEST(OverloadRateLimit, BurstDefaultsToRate) {
  TokenBucketLimiter limiter({5.0, 0.0, 16});
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(limiter.allow("c", 0).allowed) << "request " << i;
  }
  const TokenBucketLimiter::Decision denied = limiter.allow("c", 0);
  EXPECT_FALSE(denied.allowed);
  EXPECT_EQ(denied.retry_after_ms, 200);  // 1 token at 5/s
}

TEST(OverloadRateLimit, EvictsLeastRecentlySeenClient) {
  TokenBucketLimiter limiter({1.0, 1.0, /*max_clients=*/2});
  limiter.allow("a", 0);                       // drains a's bucket
  limiter.allow("b", 0);                       // drains b's; LRU order b, a
  EXPECT_FALSE(limiter.allow("a", 1 * kMs).allowed);  // touch a → b is now LRU
  limiter.allow("c", 2 * kMs);                 // table full → evicts b
  TokenBucketLimiter::Stats stats = limiter.stats();
  EXPECT_EQ(stats.clients, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  // a's drained bucket survived the eviction (c displaced b, not a).
  EXPECT_FALSE(limiter.allow("a", 3 * kMs).allowed);
  // An evicted client returns with a fresh (full) bucket — the documented
  // brief over-admission that bounded memory costs.
  EXPECT_TRUE(limiter.allow("b", 4 * kMs).allowed);
  EXPECT_EQ(limiter.stats().evictions, 2u);  // b's return displaced c (LRU)
}

TEST(OverloadRateLimit, ZeroRateDisables) {
  TokenBucketLimiter limiter({0.0, 0.0, 16});
  EXPECT_FALSE(limiter.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(limiter.allow("flood", 0).allowed);
  }
}

// ---------------------------------------------------------------------------
// Circuit breaker

BreakerOptions breaker_options() {
  BreakerOptions o;
  o.failure_threshold = 3;
  o.backoff_ms = 100;
  o.max_backoff_ms = 400;
  o.half_open_probes = 1;
  return o;
}

TEST(OverloadBreaker, OpensAfterConsecutiveFailures) {
  CircuitBreaker breaker(breaker_options());
  EXPECT_EQ(breaker.record_failure(0), CircuitBreaker::Transition::kNone);
  EXPECT_EQ(breaker.record_failure(0), CircuitBreaker::Transition::kNone);
  EXPECT_TRUE(breaker.admit(0).allowed);
  EXPECT_EQ(breaker.record_failure(0), CircuitBreaker::Transition::kOpened);
  EXPECT_EQ(breaker.state_at(1), CircuitBreaker::State::kOpen);
  const CircuitBreaker::Decision denied = breaker.admit(1);
  EXPECT_FALSE(denied.allowed);
  EXPECT_GT(denied.retry_after_ms, 0);
  EXPECT_LE(denied.retry_after_ms, 100);
  const CircuitBreaker::Stats stats = breaker.stats();
  EXPECT_EQ(stats.state, CircuitBreaker::State::kOpen);
  EXPECT_EQ(stats.opens, 1u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST(OverloadBreaker, SuccessResetsTheStreak) {
  CircuitBreaker breaker(breaker_options());
  breaker.record_failure(0);
  breaker.record_failure(0);
  EXPECT_EQ(breaker.record_success(0), CircuitBreaker::Transition::kNone);
  breaker.record_failure(0);
  breaker.record_failure(0);
  EXPECT_EQ(breaker.state_at(0), CircuitBreaker::State::kClosed);
}

TEST(OverloadBreaker, HalfOpenProbeSuccessCloses) {
  CircuitBreaker breaker(breaker_options());
  for (int i = 0; i < 3; ++i) breaker.record_failure(0);
  ASSERT_EQ(breaker.state_at(0), CircuitBreaker::State::kOpen);
  // Backoff (100 ms) elapses → half-open, one probe admitted.
  const CircuitBreaker::Decision probe = breaker.admit(101 * kMs);
  EXPECT_TRUE(probe.allowed);
  EXPECT_TRUE(probe.probe);
  EXPECT_EQ(breaker.state_at(101 * kMs), CircuitBreaker::State::kHalfOpen);
  // The probe quota is taken; concurrent arrivals still shed.
  EXPECT_FALSE(breaker.admit(101 * kMs).allowed);
  EXPECT_EQ(breaker.record_success(102 * kMs), CircuitBreaker::Transition::kClosed);
  const CircuitBreaker::Decision after = breaker.admit(103 * kMs);
  EXPECT_TRUE(after.allowed);
  EXPECT_FALSE(after.probe);
  EXPECT_EQ(breaker.stats().backoff_ms, 100);  // backoff reset on close
}

TEST(OverloadBreaker, ProbeFailureReopensWithDoubledBackoff) {
  CircuitBreaker breaker(breaker_options());
  for (int i = 0; i < 3; ++i) breaker.record_failure(0);
  ASSERT_TRUE(breaker.admit(101 * kMs).probe);
  EXPECT_EQ(breaker.record_failure(102 * kMs), CircuitBreaker::Transition::kOpened);
  EXPECT_EQ(breaker.stats().backoff_ms, 200);
  EXPECT_FALSE(breaker.admit(102 * kMs + 150 * kMs).allowed);  // still open
  ASSERT_TRUE(breaker.admit(102 * kMs + 201 * kMs).probe);
  breaker.record_failure(310 * kMs);
  EXPECT_EQ(breaker.stats().backoff_ms, 400);
  ASSERT_TRUE(breaker.admit(310 * kMs + 401 * kMs).probe);
  breaker.record_failure(712 * kMs);
  EXPECT_EQ(breaker.stats().backoff_ms, 400);  // capped at max_backoff_ms
}

TEST(OverloadBreaker, AbortProbeReleasesTheSlot) {
  CircuitBreaker breaker(breaker_options());
  for (int i = 0; i < 3; ++i) breaker.record_failure(0);
  ASSERT_TRUE(breaker.admit(101 * kMs).probe);
  ASSERT_FALSE(breaker.admit(101 * kMs).allowed);
  breaker.abort_probe();  // probe died before the fan-out (queue full / stop)
  EXPECT_TRUE(breaker.admit(102 * kMs).probe);
}

TEST(OverloadBreaker, ZeroThresholdDisables) {
  BreakerOptions o = breaker_options();
  o.failure_threshold = 0;
  CircuitBreaker breaker(o);
  EXPECT_FALSE(breaker.enabled());
  for (int i = 0; i < 20; ++i) breaker.record_failure(0);
  EXPECT_TRUE(breaker.admit(0).allowed);
  EXPECT_EQ(breaker.state_at(0), CircuitBreaker::State::kClosed);
}

// ---------------------------------------------------------------------------
// Brownout hysteresis

TEST(OverloadBrownout, EscalatesAfterConsecutiveBurns) {
  BrownoutController brownout;  // enter_after=2, exit_after=4, max_tier=2
  EXPECT_EQ(brownout.evaluate(true).tier, 0);
  const BrownoutController::Result up = brownout.evaluate(true);
  EXPECT_EQ(up.tier, 1);
  EXPECT_EQ(up.previous_tier, 0);
  EXPECT_TRUE(up.changed());
  brownout.evaluate(true);
  EXPECT_EQ(brownout.evaluate(true).tier, 2);
  // max_tier clamps further escalation.
  brownout.evaluate(true);
  EXPECT_EQ(brownout.evaluate(true).tier, 2);
}

TEST(OverloadBrownout, SingleBlipsNeverMoveTheTier) {
  BrownoutController brownout;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(brownout.evaluate(true).tier, 0);
    EXPECT_EQ(brownout.evaluate(false).tier, 0);
  }
}

TEST(OverloadBrownout, ExitNeedsMoreClearSamplesThanEntry) {
  BrownoutController brownout;
  brownout.evaluate(true);
  brownout.evaluate(true);
  ASSERT_EQ(brownout.tier(), 1);
  // Three clear samples are not enough; a burn in between resets the count.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(brownout.evaluate(false).tier, 1);
  brownout.evaluate(true);  // resets the clear streak
  for (int i = 0; i < 3; ++i) EXPECT_EQ(brownout.evaluate(false).tier, 1);
  const BrownoutController::Result down = brownout.evaluate(false);
  EXPECT_EQ(down.tier, 0);
  EXPECT_TRUE(down.changed());
}

TEST(OverloadBrownout, DisabledStaysAtTierZero) {
  BrownoutOptions o;
  o.enabled = false;
  BrownoutController brownout(o);
  for (int i = 0; i < 10; ++i) brownout.evaluate(true);
  EXPECT_EQ(brownout.tier(), 0);
}

TEST(OverloadBrownout, ControlAppliesTierEffects) {
  OverloadControl control;  // default options: brownout enabled
  EXPECT_EQ(control.brownout_tier(), 0);
  EXPECT_EQ(control.effective_top_k(5), 5u);
  EXPECT_EQ(control.effective_queue_capacity(100), 100u);
  EXPECT_FALSE(control.stale_allowed());
  control.evaluate_brownout(true);
  control.evaluate_brownout(true);
  EXPECT_EQ(control.brownout_tier(), 1);
  EXPECT_EQ(control.effective_top_k(5), 3u);   // degraded_top_k
  EXPECT_EQ(control.effective_top_k(2), 2u);   // never raises
  EXPECT_EQ(control.effective_queue_capacity(100), 100u);
  EXPECT_TRUE(control.stale_allowed());
  control.evaluate_brownout(true);
  control.evaluate_brownout(true);
  EXPECT_EQ(control.brownout_tier(), 2);
  EXPECT_EQ(control.effective_queue_capacity(100), 50u);
  EXPECT_EQ(control.effective_queue_capacity(1), 1u);  // never below 1
}

// ---------------------------------------------------------------------------
// Loopback: ExplainService behind a real HttpServer

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

class OverloadServeTest : public ::testing::Test {
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

  void start(ExplainServiceOptions options = {}, bool with_model = true,
             std::function<void()> collect_hook = {},
             std::function<void()> enqueue_hook = {}) {
    service_ = std::make_unique<ExplainService>(options);
    if (collect_hook) service_->set_collect_hook(std::move(collect_hook));
    if (enqueue_hook) service_->set_enqueue_hook(std::move(enqueue_hook));
    if (with_model) {
      service_->set_rows({{0.1, -0.4, 0.7, 0.2}, {0.3, 0.1, -0.2, 0.9}});
      service_->install_model(make_model(), "test");
    }
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

  net::HttpClientResponse post_explain(
      const std::string& body,
      const std::vector<std::pair<std::string, std::string>>& headers = {}) {
    net::HttpClientResponse response;
    EXPECT_TRUE(net::http_request("POST", "127.0.0.1", server_->port(), "/explain",
                                  response, 5000, body, "application/json", headers));
    return response;
  }

  double counter_value(const std::string& name) {
    return static_cast<double>(obs::MetricsRegistry::instance().counter(name).value());
  }

  /// Asserts the uniform refusal contract: envelope body with the expected
  /// code, an X-Agua-Trace-Id, and (when retryable) a whole-second
  /// Retry-After >= 1.
  void expect_refusal(const net::HttpClientResponse& response, int status,
                      const std::string& code, bool retryable) {
    EXPECT_EQ(response.status, status);
    EXPECT_FALSE(response.header("x-agua-trace-id").empty());
    const JsonParseResult parsed = json_parse(response.body);
    ASSERT_TRUE(parsed.ok) << parsed.error << " body=" << response.body;
    const JsonValue* envelope = parsed.value.find("error");
    ASSERT_NE(envelope, nullptr) << response.body;
    ASSERT_NE(envelope->find("code"), nullptr);
    EXPECT_EQ(envelope->find("code")->string, code);
    ASSERT_NE(envelope->find("message"), nullptr);
    EXPECT_TRUE(envelope->find("message")->is_string());
    if (retryable) {
      const std::string retry_after = response.header("retry-after");
      ASSERT_FALSE(retry_after.empty());
      EXPECT_GE(std::stol(retry_after), 1);
      const JsonValue* ms = envelope->find("retry_after_ms");
      ASSERT_NE(ms, nullptr);
      EXPECT_GE(ms->number, 1.0);
    }
  }

  std::unique_ptr<ExplainService> service_;
  std::unique_ptr<net::HttpServer> server_;
};

const char* kBody = R"({"input": [0.1, -0.4, 0.7, 0.2], "top_k": 5})";

TEST_F(OverloadServeTest, RateLimitsPerClientWith429) {
  ExplainServiceOptions options;
  options.overload.rate_limit.rate_per_s = 1.0;
  options.overload.rate_limit.burst = 1.0;
  start(options);
  EXPECT_EQ(post_explain(kBody, {{"X-Agua-Client", "alice"}}).status, 200);
  const net::HttpClientResponse limited =
      post_explain(kBody, {{"X-Agua-Client", "alice"}});
  expect_refusal(limited, 429, "rate_limited", /*retryable=*/true);
  // A different client is unaffected by alice's flood.
  EXPECT_EQ(post_explain(kBody, {{"X-Agua-Client", "bob"}}).status, 200);
  EXPECT_EQ(counter_value("agua.overload.rate_limited"), 1.0);
}

TEST(OverloadCodel, DrainProbeBypassesShedWhenQueueEmpty) {
  OverloadControl control;
  control.codel().on_dequeue(50'000, 0);
  control.codel().on_dequeue(50'000, 100'000);
  ASSERT_TRUE(control.codel().should_shed());
  // An empty queue means the detected backlog is gone but no dequeue has
  // observed that; the request goes through as a drain probe.
  EXPECT_FALSE(control.check_admission(0, /*queue_empty=*/true).has_value());
  const std::optional<net::HttpResponse> refused =
      control.check_admission(0, /*queue_empty=*/false);
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->status, 503);
}

TEST_F(OverloadServeTest, CodelShedAnswers503AndRecovers) {
  // Hold the dispatcher hostage after it pops its first request so the
  // admission queue stands while CoDel is tripped.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> popped{false};
  ExplainServiceOptions options;
  options.max_batch = 1;
  options.request_deadline_ms = 30'000;  // nothing 408s while the queue is held
  start(options, /*with_model=*/true, [&] {
    popped.store(true);
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
  });
  auto filler = std::async(std::launch::async, [&] {
    return post_explain(R"({"row": 0, "top_k": 3})");
  });
  while (!popped.load()) std::this_thread::yield();
  // Trip the controller directly; the dispatcher is parked in the hook (its
  // own on_dequeue for the filler already ran), so there is no concurrent
  // writer: a standing 50 ms sojourn for a full 100 ms interval.
  CoDelController& codel = service_->overload().codel();
  codel.on_dequeue(50'000, 1'000'000);
  service_->overload().on_dequeue(50'000, 1'100'000);  // via control → events
  ASSERT_TRUE(codel.should_shed());
  // The first shed-state arrival is admitted as a drain probe (the queue is
  // empty after the filler was popped); it then stands in the queue behind
  // the parked dispatcher. Wait for the queue-depth gauge — set under the
  // queue lock — before posting again: with the dispatcher parked, depth
  // >= 1 cannot go back down, so the follow-up POST is deterministically
  // refused.
  auto probe = std::async(std::launch::async, [&] {
    return post_explain(R"({"row": 1, "top_k": 3})");
  });
  auto& depth = obs::MetricsRegistry::instance().gauge("agua.overload.queue_depth");
  while (depth.value() < 1.0) std::this_thread::yield();
  const net::HttpClientResponse shed = post_explain(kBody);
  expect_refusal(shed, 503, "overload_shed", /*retryable=*/true);
  EXPECT_GE(counter_value("agua.overload.shed"), 1.0);
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  EXPECT_EQ(filler.get().status, 200);
  EXPECT_EQ(probe.get().status, 200);
  // Recovery: the queue has drained, so a fresh (cache-missing) request is
  // admitted as a drain probe, its dequeue sees a near-zero sojourn, and
  // the shed window closes.
  EXPECT_EQ(post_explain(R"({"input": [0.5, 0.5, 0.5, 0.5], "top_k": 3})").status,
            200);
  EXPECT_FALSE(codel.should_shed());
  // The flight recorder saw the shed window open and close.
  bool saw_shed = false, saw_recovered = false;
  for (const obs::Event& event : obs::event_log().snapshot()) {
    if (event.kind == "overload.shed") saw_shed = true;
    if (event.kind == "overload.recovered") saw_recovered = true;
  }
  EXPECT_TRUE(saw_shed);
  EXPECT_TRUE(saw_recovered);
}

TEST_F(OverloadServeTest, BreakerOpenAnswers503) {
  ExplainServiceOptions options;
  options.overload.breaker.failure_threshold = 3;
  options.overload.breaker.backoff_ms = 60'000;  // stays open for the test
  start(options);
  for (int i = 0; i < 3; ++i) {
    service_->overload().record_outcome(/*failure=*/true, obs::now_ns());
  }
  const net::HttpClientResponse rejected = post_explain(kBody);
  expect_refusal(rejected, 503, "breaker_open", /*retryable=*/true);
  EXPECT_EQ(counter_value("agua.overload.breaker_rejected"), 1.0);
  bool saw_open = false;
  for (const obs::Event& event : obs::event_log().snapshot()) {
    if (event.kind == "breaker.open") saw_open = true;
  }
  EXPECT_TRUE(saw_open);
}

TEST_F(OverloadServeTest, SuccessfulBatchesCloseTheBreaker) {
  ExplainServiceOptions options;
  options.overload.breaker.failure_threshold = 3;
  options.overload.breaker.backoff_ms = 60'000;
  start(options);
  // Healthy traffic is recorded as breaker successes by the dispatcher.
  EXPECT_EQ(post_explain(kBody).status, 200);
  EXPECT_EQ(service_->overload().breaker().stats().consecutive_failures, 0);
  // Two failures, one healthy batch, two failures: streak never reaches 3.
  service_->overload().record_outcome(true, obs::now_ns());
  service_->overload().record_outcome(true, obs::now_ns());
  EXPECT_EQ(post_explain(R"({"row": 1, "top_k": 2})").status, 200);
  service_->overload().record_outcome(true, obs::now_ns());
  service_->overload().record_outcome(true, obs::now_ns());
  EXPECT_EQ(service_->overload().breaker().state_at(obs::now_ns()),
            CircuitBreaker::State::kClosed);
}

TEST_F(OverloadServeTest, BrownoutCapsTopKAndMarksResponses) {
  ExplainServiceOptions options;
  options.overload.brownout.degraded_top_k = 1;  // model has 3 concepts
  start(options);
  service_->overload().evaluate_brownout(true);
  service_->overload().evaluate_brownout(true);
  ASSERT_EQ(service_->overload().brownout_tier(), 1);
  const net::HttpClientResponse degraded = post_explain(kBody);  // asks top_k=5
  ASSERT_EQ(degraded.status, 200);
  EXPECT_EQ(degraded.header("x-agua-degraded"), "brownout-tier1");
  const JsonParseResult parsed = json_parse(degraded.body);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const JsonValue* top = parsed.value.find("top");
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->array.size(), 1u);  // degraded_top_k, down from 3
  // Hysteretic recovery: four clear samples step back to tier 0.
  for (int i = 0; i < 4; ++i) service_->overload().evaluate_brownout(false);
  ASSERT_EQ(service_->overload().brownout_tier(), 0);
  const net::HttpClientResponse healthy = post_explain(R"({"row": 0, "top_k": 5})");
  ASSERT_EQ(healthy.status, 200);
  EXPECT_TRUE(healthy.header("x-agua-degraded").empty());
  const JsonParseResult hp = json_parse(healthy.body);
  ASSERT_TRUE(hp.ok) << hp.error;
  EXPECT_EQ(hp.value.find("top")->array.size(), 3u);  // full clamp = num concepts
}

TEST_F(OverloadServeTest, BrownoutServesStaleCacheAcrossHotSwap) {
  start();
  service_->overload().evaluate_brownout(true);
  service_->overload().evaluate_brownout(true);
  ASSERT_EQ(service_->overload().brownout_tier(), 1);
  // Warm the cache under the old model, then hot-swap.
  const net::HttpClientResponse warm = post_explain(kBody);
  ASSERT_EQ(warm.status, 200);
  service_->install_model(make_model(/*seed=*/2), "swap");
  // Same request: the new fingerprint misses, but tier >= 1 allows the
  // previous fingerprint's entry to be served, marked stale.
  const net::HttpClientResponse stale = post_explain(kBody);
  ASSERT_EQ(stale.status, 200);
  EXPECT_EQ(stale.header("x-agua-cache"), "hit");
  EXPECT_EQ(stale.header("x-agua-degraded"), "brownout-tier1,stale");
  EXPECT_EQ(stale.body, warm.body);
  EXPECT_EQ(counter_value("agua.overload.stale_served"), 1.0);
  // At tier 0 the same request is recomputed under the new model instead.
  for (int i = 0; i < 4; ++i) service_->overload().evaluate_brownout(false);
  const net::HttpClientResponse fresh = post_explain(kBody);
  ASSERT_EQ(fresh.status, 200);
  EXPECT_NE(fresh.header("x-agua-cache"), "hit");
}

TEST_F(OverloadServeTest, DeadlineAwareBatchCloseBeatsThe408) {
  ExplainServiceOptions options;
  options.max_batch = 64;                       // linger is the only closer
  options.batch_linger_us = 2'000'000;          // far beyond the deadline
  options.request_deadline_ms = 400;
  options.overload.deadline_margin_us = 300'000;  // close ~100 ms in
  // The first miss is held just before its enqueue, so it stays in flight
  // and the second one's batch keeps lingering for it.
  std::mutex mutex;
  std::condition_variable cv;
  int misses = 0;  // guarded by mutex
  bool release = false;
  start(options, true, {}, [&] {
    std::unique_lock<std::mutex> lock(mutex);
    if (++misses > 1) return;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  auto held = std::async(std::launch::async, [&] { return post_explain(R"({"row": 1})"); });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return misses == 1; });
  }
  // Without the margin this request would linger 2 s and 408 at 400 ms; the
  // deadline-aware close fires at deadline - margin instead.
  const auto begin = std::chrono::steady_clock::now();
  const net::HttpClientResponse response = post_explain(kBody);
  const auto waited = std::chrono::steady_clock::now() - begin;
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_GE(waited, std::chrono::milliseconds(50));  // it lingered toward the margin
  EXPECT_EQ(counter_value("agua.overload.deadline_close"), 1.0);
  // Released, the held miss is alone: answered at once, no margin close.
  EXPECT_EQ(held.get().status, 200);
  EXPECT_EQ(counter_value("agua.overload.deadline_close"), 1.0);
}

TEST_F(OverloadServeTest, EnvelopeOnEveryErrorPath) {
  ExplainServiceOptions options;
  options.overload.rate_limit.rate_per_s = 1.0;
  options.overload.rate_limit.burst = 1.0;
  start(options);
  // Each phase uses its own client key so the limiter never interferes.
  expect_refusal(post_explain("{not json", {{"X-Agua-Client", "a"}}), 400,
                 "bad_request", /*retryable=*/false);
  expect_refusal(post_explain(R"({"top_k": 3})", {{"X-Agua-Client", "b"}}), 400,
                 "bad_request", false);
  expect_refusal(post_explain(R"({"input": [1, 2], "top_k": 3})",
                              {{"X-Agua-Client", "c"}}),
                 400, "bad_request", false);
  expect_refusal(post_explain(R"({"row": 99, "top_k": 3})", {{"X-Agua-Client", "d"}}),
                 404, "not_found", false);
  post_explain(kBody, {{"X-Agua-Client", "e"}});
  expect_refusal(post_explain(kBody, {{"X-Agua-Client", "e"}}), 429, "rate_limited",
                 true);
}

TEST_F(OverloadServeTest, NoModelAnswers503WithEnvelope) {
  start({}, /*with_model=*/false);
  expect_refusal(post_explain(kBody), 503, "no_model", /*retryable=*/false);
}

TEST_F(OverloadServeTest, StatuszRendersTheOverloadSection) {
  start();
  const std::string section = service_->overload_section();
  EXPECT_NE(section.find("admission"), std::string::npos);
  EXPECT_NE(section.find("breaker"), std::string::npos);
  EXPECT_NE(section.find("brownout: tier 0/2"), std::string::npos);
  service_->overload().evaluate_brownout(true);
  service_->overload().evaluate_brownout(true);
  EXPECT_NE(service_->overload_section().find("brownout: tier 1/2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Net layer: Retry-After on server-side sheds

TEST(HttpServerOverloadHeaders, ConnectionQueueShedCarriesRetryAfter) {
  net::HttpServerOptions options;
  options.connection_threads = 2;  // queue bound == 2 as well
  net::HttpServer server(options);
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  server.handle("GET", "/block", [&](const net::HttpRequest&) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
    net::HttpResponse response;
    response.body = "ok";
    return response;
  });
  ASSERT_TRUE(server.start()) << server.last_error();
  // Saturate the two workers and the two queue slots, then keep pushing
  // until the server sheds; blocked clients are released afterwards.
  std::vector<std::future<net::HttpClientResponse>> clients;
  for (int i = 0; i < 10; ++i) {
    clients.push_back(std::async(std::launch::async, [&] {
      net::HttpClientResponse response;
      net::http_get("127.0.0.1", server.port(), "/block", response, 10'000);
      return response;
    }));
  }
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().rejected == 0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  int shed = 0;
  for (auto& client : clients) {
    const net::HttpClientResponse response = client.get();
    if (response.status == 503) {
      ++shed;
      EXPECT_EQ(response.header("retry-after"), "1");
    }
  }
  EXPECT_GT(shed, 0);
  server.stop();
}

}  // namespace
