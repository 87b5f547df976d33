// The live telemetry plane end to end: the net/http server itself (parsing,
// dispatch, error statuses, shutdown), every obs/telemetry_server endpoint
// exercised through a real loopback socket, and the scrape-safety
// guarantees (snapshot consistency under concurrent writers, scrapes during
// a parallel_for training region). Fixtures are named TelemetryTest /
// HttpServerTest / SnapshotConsistencyTest so the tsan preset's filter picks
// them up (CMakePresets.json).
#include "obs/telemetry_server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "net/http.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/parallel.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"

namespace {

using namespace agua;
using namespace agua::obs;

net::HttpClientResponse get(const TelemetryServer& server, const std::string& target) {
  net::HttpClientResponse response;
  EXPECT_TRUE(net::http_get("127.0.0.1", server.port(), target, response))
      << "GET " << target << " failed";
  return response;
}

std::vector<std::string> lines_of(const std::string& body) {
  std::vector<std::string> out;
  std::istringstream is(body);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

/// Process-wide obs state leaks between tests; start clean and recording.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    set_trace_enabled(false);
    clear_spans();
    event_log().clear();
    event_log().set_enabled(true);
    reset_monitors();
    MetricsRegistry::instance().reset();
  }
  void TearDown() override {
    event_log().set_enabled(false);
    set_trace_enabled(false);
    reset_monitors();
  }
};

using HttpServerTest = TelemetryTest;
using SnapshotConsistencyTest = TelemetryTest;

TEST_F(TelemetryTest, StartsOnEphemeralPortAndStops) {
  TelemetryServer server;
  ASSERT_TRUE(server.start()) << server.last_error();
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());
  EXPECT_EQ(server.url(), "http://127.0.0.1:" + std::to_string(server.port()));
  server.stop();
  EXPECT_FALSE(server.running());
  // stop() is idempotent and the destructor tolerates an already-stopped server.
  server.stop();
}

TEST_F(TelemetryTest, MetricsEndpointServesPrometheus) {
  MetricsRegistry::instance().counter("agua.test.requests").add(3);
  MetricsRegistry::instance().histogram("agua.test.latency").record(0.25);

  TelemetryServer server;
  ASSERT_TRUE(server.start()) << server.last_error();
  const net::HttpClientResponse response = get(server, "/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(response.body.find("# HELP agua_test_requests"), std::string::npos);
  EXPECT_NE(response.body.find("# TYPE agua_test_requests counter\n"), std::string::npos);
  EXPECT_NE(response.body.find("agua_test_requests 3\n"), std::string::npos);
  EXPECT_NE(response.body.find("agua_test_latency_count 1\n"), std::string::npos);
  // The server counts itself: a second scrape sees the first one's request.
  const net::HttpClientResponse again = get(server, "/metrics");
  EXPECT_NE(again.body.find("agua_telemetry_requests"), std::string::npos);
}

TEST_F(TelemetryTest, MetricsJsonEndpointEmitsParseableLines) {
  MetricsRegistry::instance().gauge("agua.test.gauge").set(1.5);
  TelemetryServer server;
  ASSERT_TRUE(server.start()) << server.last_error();
  const net::HttpClientResponse response = get(server, "/metrics.json");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/x-ndjson");
  const std::vector<std::string> lines = lines_of(response.body);
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
  bool found = false;
  for (const std::string& line : lines) {
    found |= line.find("\"name\":\"agua.test.gauge\"") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST_F(TelemetryTest, HealthzFlipsTo503OnUnhealthyMonitor) {
  MonitorOptions options;
  options.window = 4;
  options.min_samples = 2;
  options.max_healthy = 1.0;
  HealthMonitor& monitor = health_monitor("agua.health.test_telemetry", options);
  monitor.observe(0.5);
  monitor.observe(0.5);

  TelemetryServer server;
  ASSERT_TRUE(server.start()) << server.last_error();
  net::HttpClientResponse response = get(server, "/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json; charset=utf-8");
  EXPECT_NE(response.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(response.body.find("agua.health.test_telemetry"), std::string::npos);

  // Push the rolling mean out of the healthy band → 503 with detail.
  monitor.observe(10.0);
  monitor.observe(10.0);
  monitor.observe(10.0);
  ASSERT_FALSE(monitor.healthy());
  response = get(server, "/healthz");
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("\"status\":\"unhealthy\""), std::string::npos);
  EXPECT_NE(response.body.find("\"healthy\":false"), std::string::npos);

  // Recovery flips it back.
  for (int i = 0; i < 8; ++i) monitor.observe(0.5);
  ASSERT_TRUE(monitor.healthy());
  EXPECT_EQ(get(server, "/healthz").status, 200);
}

TEST_F(TelemetryTest, TracezServesTableAndJson) {
  set_trace_enabled(true);
  {
    TraceSpan outer("agua.test.outer");
    TraceSpan inner("agua.test.inner");
  }
  TelemetryServer server;
  ASSERT_TRUE(server.start()) << server.last_error();
  const net::HttpClientResponse table = get(server, "/tracez");
  EXPECT_EQ(table.status, 200);
  EXPECT_NE(table.body.find("agua.test.outer"), std::string::npos);
  EXPECT_NE(table.body.find("agua.test.inner"), std::string::npos);

  const net::HttpClientResponse json = get(server, "/tracez?format=json");
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json; charset=utf-8");
  EXPECT_EQ(json.body.front(), '[');
  EXPECT_NE(json.body.find("\"name\":\"agua.test.inner\""), std::string::npos);
  EXPECT_NE(json.body.find("\"parent_id\":"), std::string::npos);
}

TEST_F(TelemetryTest, TracezExplainsWhenCaptureIsOff) {
  TelemetryServer server;
  ASSERT_TRUE(server.start()) << server.last_error();
  const net::HttpClientResponse response = get(server, "/tracez");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("span capture is off"), std::string::npos);
}

TEST_F(TelemetryTest, EventszTailsTheRing) {
  for (int i = 0; i < 10; ++i) {
    event_log().append("test.telemetry.tick", {{"i", static_cast<double>(i)}});
  }
  TelemetryServer server;
  ASSERT_TRUE(server.start()) << server.last_error();
  const net::HttpClientResponse all = get(server, "/eventsz");
  EXPECT_EQ(all.status, 200);
  EXPECT_EQ(all.content_type, "application/x-ndjson");
  EXPECT_EQ(lines_of(all.body).size(), 10u);

  const net::HttpClientResponse tail = get(server, "/eventsz?n=3");
  const std::vector<std::string> lines = lines_of(tail.body);
  ASSERT_EQ(lines.size(), 3u);
  // The tail keeps the *newest* events, and each line honors the JSONL
  // round-trip contract.
  Event event;
  ASSERT_TRUE(parse_event_json(lines.front(), event)) << lines.front();
  EXPECT_EQ(event.kind, "test.telemetry.tick");
  ASSERT_FALSE(event.fields.empty());
  EXPECT_DOUBLE_EQ(event.fields[0].second, 7.0);
  ASSERT_TRUE(parse_event_json(lines.back(), event));
  EXPECT_DOUBLE_EQ(event.fields[0].second, 9.0);
}

TEST_F(TelemetryTest, BuildzReportsRuntimeInfo) {
  TelemetryOptions options;
  options.version = "test-1.2.3";
  TelemetryServer server(options);
  ASSERT_TRUE(server.start()) << server.last_error();
  const net::HttpClientResponse response = get(server, "/buildz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json; charset=utf-8");
  EXPECT_NE(response.body.find("\"version\":\"test-1.2.3\""), std::string::npos);
  EXPECT_NE(response.body.find("\"threads\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"events_enabled\":true"), std::string::npos);
  EXPECT_NE(response.body.find("\"uptime_s\":"), std::string::npos);
}

TEST_F(TelemetryTest, IndexListsEndpoints) {
  TelemetryServer server;
  ASSERT_TRUE(server.start()) << server.last_error();
  const net::HttpClientResponse response = get(server, "/");
  EXPECT_EQ(response.status, 200);
  for (const char* endpoint :
       {"/metrics", "/metrics.json", "/healthz", "/tracez", "/eventsz", "/buildz"}) {
    EXPECT_NE(response.body.find(endpoint), std::string::npos) << endpoint;
  }
}

TEST_F(TelemetryTest, QuitEndpointUnblocksWait) {
  TelemetryServer server;
  ASSERT_TRUE(server.start()) << server.last_error();
  // A too-short wait times out while no quit has been requested.
  EXPECT_FALSE(server.wait_for_quit(0.01));

  std::thread quitter([&server] {
    net::HttpClientResponse response;
    net::http_request("POST", "127.0.0.1", server.port(), "/quitquitquit", response);
    EXPECT_EQ(response.status, 200);
  });
  EXPECT_TRUE(server.wait_for_quit(10.0));
  quitter.join();
  // GET on the quit endpoint is refused: quitting must be deliberate.
  EXPECT_EQ(get(server, "/quitquitquit").status, 405);
}

TEST_F(TelemetryTest, ConcurrentScrapeDuringParallelTraining) {
  TelemetryServer server;
  ASSERT_TRUE(server.start()) << server.last_error();

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::atomic<int> failures{0};
  // Scraper thread hammers every read endpoint while the pool below trains.
  std::thread scraper([&] {
    const char* targets[] = {"/metrics", "/metrics.json", "/healthz", "/eventsz?n=8"};
    std::size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      net::HttpClientResponse response;
      if (!net::http_get("127.0.0.1", server.port(), targets[i++ % 4], response) ||
          (response.status != 200 && response.status != 503)) {
        failures.fetch_add(1);
      }
      scrapes.fetch_add(1);
    }
  });

  // A training-shaped workload: pool regions recording histograms, counters,
  // events, and monitor observations from every worker.
  common::ThreadPool pool(2);
  MonitorOptions options;
  options.window = 32;
  options.min_samples = 4;
  options.min_healthy = -1.0;
  HealthMonitor& monitor = health_monitor("agua.health.test_scrape", options);
  // Train until the scraper has landed a healthy number of requests (bounded
  // so a wedged scraper can't hang the test) — a fixed round count can finish
  // before the first scrape completes on a loaded machine.
  std::uint64_t rounds = 0;
  while (scrapes.load(std::memory_order_acquire) < 8 && rounds < 2000) {
    ++rounds;
    obs::parallel_for(pool, "agua.pool.test_scrape", 64,
                      [&](std::size_t index, std::size_t /*worker*/) {
      MetricsRegistry::instance().counter("agua.test.scrape.work").add(1);
      MetricsRegistry::instance()
          .histogram("agua.test.scrape.latency")
          .record(1e-6 * static_cast<double>(index + 1));
      if (index % 16 == 0) {
        event_log().append("test.scrape.step", {{"index", static_cast<double>(index)}});
        monitor.observe(static_cast<double>(index % 7));
      }
    });
  }
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(MetricsRegistry::instance().counter("agua.test.scrape.work").value(),
            rounds * 64u);
}

TEST_F(HttpServerTest, RoutesQueryParamsAndErrors) {
  net::HttpServer server;
  server.handle("GET", "/echo", [](const net::HttpRequest& request) {
    return net::HttpResponse::text(
        200, request.query_param("msg", "none") + "|" + request.query_param("x", "0"));
  });
  ASSERT_TRUE(server.start()) << server.last_error();

  net::HttpClientResponse response;
  ASSERT_TRUE(net::http_get("127.0.0.1", server.port(), "/echo?msg=hello%20world&x=5",
                            response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "hello world|5");

  ASSERT_TRUE(net::http_get("127.0.0.1", server.port(), "/echo", response));
  EXPECT_EQ(response.body, "none|0");

  ASSERT_TRUE(net::http_get("127.0.0.1", server.port(), "/missing", response));
  EXPECT_EQ(response.status, 404);

  ASSERT_TRUE(net::http_request("POST", "127.0.0.1", server.port(), "/echo", response));
  EXPECT_EQ(response.status, 405);
}

TEST_F(HttpServerTest, HandlerExceptionBecomes500) {
  net::HttpServer server;
  server.handle("GET", "/boom", [](const net::HttpRequest&) -> net::HttpResponse {
    throw std::runtime_error("kaput");
  });
  ASSERT_TRUE(server.start()) << server.last_error();
  net::HttpClientResponse response;
  ASSERT_TRUE(net::http_get("127.0.0.1", server.port(), "/boom", response));
  EXPECT_EQ(response.status, 500);
  EXPECT_NE(response.body.find("kaput"), std::string::npos);
}

TEST_F(HttpServerTest, UrlDecodeHandlesEscapesAndInvalidSequences) {
  EXPECT_EQ(net::url_decode("a%20b+c"), "a b c");
  EXPECT_EQ(net::url_decode("%2Fpath%3Fq"), "/path?q");
  EXPECT_EQ(net::url_decode("100%"), "100%");     // truncated escape kept verbatim
  EXPECT_EQ(net::url_decode("%zz"), "%zz");       // invalid hex kept verbatim
}

// Regression for the unbounded-read hole: a client that connects and then
// trickles (or stops sending entirely) used to hold the single-threaded
// accept loop hostage, because SO_RCVTIMEO resets on every received byte.
// The absolute request deadline answers 408 however chatty the client is.
TEST_F(HttpServerTest, SlowRequestHeadGets408NotAHang) {
  net::HttpServerOptions options;
  options.request_deadline_ms = 300;
  net::HttpServer server{options};
  server.handle("GET", "/ping", [](const net::HttpRequest&) {
    return net::HttpResponse::text(200, "pong\n");
  });
  ASSERT_TRUE(server.start()) << server.last_error();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);

  // Slowloris: keep the connection warm with one byte at a time, never
  // finishing the request head. Each byte would reset a per-recv timeout;
  // the absolute deadline must still fire.
  const char* head = "GET /ping HTTP/1.1\r\n";
  std::string reply;
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::size_t sent = 0;
  while (std::chrono::steady_clock::now() < give_up) {
    if (head[sent] != '\0') (void)::send(fd, head + sent++, 1, 0);
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 60) > 0) {  // server answered (or closed on us)
      char buf[512];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) reply.append(buf, static_cast<std::size_t>(n));
      break;
    }
  }
  ::close(fd);
  EXPECT_NE(reply.find("408"), std::string::npos) << "reply was: " << reply;
  EXPECT_GE(server.stats().request_timeouts, 1u);

  // The loop is free again: a well-behaved client is served normally.
  net::HttpClientResponse response;
  ASSERT_TRUE(net::http_get("127.0.0.1", server.port(), "/ping", response));
  EXPECT_EQ(response.status, 200);
}

TEST_F(TelemetryTest, HandlersRunOnTheConnectionWorkers) {
  // Each handler runs on the worker that read its request: 32 sequential
  // requests over two workers see at most two threads, not one apiece.
  TelemetryOptions options;
  options.connection_threads = 2;
  TelemetryServer server(options);
  std::mutex ordinals_mutex;
  std::set<std::uint64_t> ordinals;  // guarded by ordinals_mutex
  server.http().handle("GET", "/whoami", [&](const net::HttpRequest&) {
    std::lock_guard<std::mutex> lock(ordinals_mutex);
    ordinals.insert(thread_ordinal());
    return net::HttpResponse::text(200, "ok\n");
  });
  ASSERT_TRUE(server.start()) << server.last_error();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(get(server, "/whoami").status, 200);
  server.stop();
  std::lock_guard<std::mutex> lock(ordinals_mutex);
  EXPECT_GE(ordinals.size(), 1u);
  EXPECT_LE(ordinals.size(), 2u);
}

TEST_F(TelemetryTest, HealthzEmbedsServerResilienceStats) {
  TelemetryServer server;
  ASSERT_TRUE(server.start());
  const net::HttpClientResponse response = get(server, "/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(response.body.find("\"server\":{\"requests\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"accept_retries\":0"), std::string::npos);
  EXPECT_NE(response.body.find("\"degraded\":false"), std::string::npos);
}

TEST_F(HttpServerTest, PostBodyRoundTripsToHandler) {
  net::HttpServer server;
  server.handle("POST", "/echo", [](const net::HttpRequest& request) {
    return net::HttpResponse::text(200, request.body);
  });
  ASSERT_TRUE(server.start()) << server.last_error();
  net::HttpClientResponse response;
  const std::string body = "{\"payload\": [1, 2, 3]}";
  ASSERT_TRUE(net::http_post("127.0.0.1", server.port(), "/echo", body, response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, body);
}

TEST_F(HttpServerTest, OversizedBodyGets413) {
  net::HttpServerOptions options;
  options.max_body_bytes = 16;
  net::HttpServer server{options};
  server.handle("POST", "/echo", [](const net::HttpRequest& request) {
    return net::HttpResponse::text(200, request.body);
  });
  ASSERT_TRUE(server.start()) << server.last_error();
  net::HttpClientResponse response;
  ASSERT_TRUE(net::http_post("127.0.0.1", server.port(), "/echo",
                             std::string(64, 'x'), response));
  EXPECT_EQ(response.status, 413);
}

TEST_F(HttpServerTest, ExtraHeadersAreWritten) {
  net::HttpServer server;
  server.handle("GET", "/h", [](const net::HttpRequest&) {
    net::HttpResponse response = net::HttpResponse::text(200, "ok");
    response.extra_headers.emplace_back("X-Custom", "tagged");
    return response;
  });
  ASSERT_TRUE(server.start()) << server.last_error();
  net::HttpClientResponse response;
  ASSERT_TRUE(net::http_get("127.0.0.1", server.port(), "/h", response));
  EXPECT_EQ(response.header("x-custom"), "tagged");
  EXPECT_EQ(response.header("absent", "fallback"), "fallback");
}

TEST_F(HttpServerTest, ConnectionWorkersServeConcurrentRequests) {
  // With a worker pool, a handler parked on one connection must not block
  // another request — the property the serve plane's micro-batcher needs.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  net::HttpServerOptions options;
  options.connection_threads = 3;
  net::HttpServer server{options};
  server.handle("GET", "/slow", [&](const net::HttpRequest&) {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait_for(lock, std::chrono::seconds(5), [&] { return gate_open; });
    return net::HttpResponse::text(200, "slow");
  });
  server.handle("GET", "/fast", [](const net::HttpRequest&) {
    return net::HttpResponse::text(200, "fast");
  });
  ASSERT_TRUE(server.start()) << server.last_error();

  std::thread slow_client([&] {
    net::HttpClientResponse response;
    net::http_get("127.0.0.1", server.port(), "/slow", response, 10000);
  });
  // The fast request completes while /slow is parked.
  net::HttpClientResponse fast;
  ASSERT_TRUE(net::http_get("127.0.0.1", server.port(), "/fast", fast, 10000));
  EXPECT_EQ(fast.body, "fast");
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  slow_client.join();
}

TEST_F(HttpServerTest, PortsAreReleasedOnStop) {
  net::HttpServerOptions options;
  std::uint16_t port = 0;
  {
    net::HttpServer server;
    ASSERT_TRUE(server.start());
    port = server.port();
  }  // destructor stops the server
  options.port = port;
  net::HttpServer reuse{options};
  EXPECT_TRUE(reuse.start()) << reuse.last_error();
}

TEST_F(SnapshotConsistencyTest, HistogramCountAlwaysMatchesBuckets) {
  Histogram& hist = MetricsRegistry::instance().histogram("agua.test.snap.hist");
  std::atomic<bool> done{false};
  std::thread writer([&] {
    common::Rng rng(7);
    while (!done.load(std::memory_order_acquire)) {
      hist.record(rng.uniform(1e-7, 10.0));
    }
  });
  for (int i = 0; i < 2000; ++i) {
    const HistogramSnapshot snap = hist.snapshot();
    std::uint64_t total = 0;
    for (const std::uint64_t c : snap.bucket_counts) total += c;
    ASSERT_EQ(snap.count, total) << "torn histogram snapshot at iteration " << i;
    if (snap.count > 0) {
      ASSERT_LE(snap.min, snap.max);
    }
  }
  done.store(true, std::memory_order_release);
  writer.join();
}

TEST_F(SnapshotConsistencyTest, CaptureSnapshotCoversAllComponents) {
  MetricsRegistry::instance().counter("agua.test.snap.count").add(2);
  event_log().append("test.snap.event");
  MonitorOptions options;
  options.min_samples = 1;
  health_monitor("agua.health.test_snap", options).observe(1.0);
  set_trace_enabled(true);
  { TraceSpan span("agua.test.snap.span"); }

  const Snapshot snap = capture_snapshot();
  EXPECT_GT(snap.captured_ns, 0);
  EXPECT_FALSE(snap.metrics.empty());
  EXPECT_FALSE(snap.events.empty());
  EXPECT_FALSE(snap.monitors.empty());
  EXPECT_FALSE(snap.spans.empty());
  EXPECT_TRUE(snap.all_healthy());

  // Tail limiting keeps the newest events.
  event_log().append("test.snap.newest");
  const Snapshot tail = capture_snapshot({.event_tail = 1});
  ASSERT_EQ(tail.events.size(), 1u);
  EXPECT_EQ(tail.events[0].kind, "test.snap.newest");

  // Opt-outs skip the component entirely.
  const Snapshot metrics_only = capture_snapshot(
      {.include_spans = false, .include_events = false, .include_monitors = false});
  EXPECT_TRUE(metrics_only.spans.empty());
  EXPECT_TRUE(metrics_only.events.empty());
  EXPECT_TRUE(metrics_only.monitors.empty());
  EXPECT_FALSE(metrics_only.metrics.empty());
}

TEST_F(SnapshotConsistencyTest, MonitorSnapshotIsOneConsistentRead) {
  MonitorOptions options;
  options.window = 8;
  options.min_samples = 2;
  options.max_healthy = 0.5;
  HealthMonitor& monitor = health_monitor("agua.health.test_snap2", options);
  monitor.observe(1.0);
  monitor.observe(1.0);
  const HealthMonitorSnapshot snap = monitor.snapshot();
  EXPECT_EQ(snap.name, "agua.health.test_snap2");
  EXPECT_FALSE(snap.healthy);
  EXPECT_DOUBLE_EQ(snap.rolling_mean, 1.0);
  EXPECT_EQ(snap.samples, 2u);
  EXPECT_EQ(snap.alerts, 1u);
  EXPECT_EQ(snap.window, 8u);
  EXPECT_DOUBLE_EQ(snap.max_healthy, 0.5);

  const std::vector<HealthMonitorSnapshot> all = snapshot_monitors();
  bool found = false;
  for (const HealthMonitorSnapshot& m : all) found |= m.name == snap.name;
  EXPECT_TRUE(found);
}

TEST_F(SnapshotConsistencyTest, PrometheusHelpTypeAndEscaping) {
  MetricsRegistry::instance().counter("agua.test prom \"weird\"\nname").add(1);
  const std::string text = export_prometheus();
  // Name sanitized to [a-zA-Z0-9_:]; HELP precedes TYPE and carries the
  // original name with backslash/newline escaped.
  EXPECT_NE(text.find("# HELP agua_test_prom__weird__name"), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE agua_test_prom__weird__name counter\n"
                      "agua_test_prom__weird__name 1\n"),
            std::string::npos);
  // Every line is either a comment or `name[{labels}] value`.
  for (const std::string& line : lines_of(text)) {
    if (line.rfind("# HELP", 0) == 0 || line.rfind("# TYPE", 0) == 0) continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, line.find_first_of(" {"));
    for (const char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      ASSERT_TRUE(ok) << "bad prometheus name char in: " << line;
    }
  }
}

}  // namespace
