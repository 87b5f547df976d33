// The live telemetry plane: an embedded HTTP server (net/http.hpp) that makes
// every signal the obs layer collects — metrics, span trees, flight-recorder
// events, health monitors — inspectable on a *running* process instead of
// post-mortem via files. One GET away:
//
//   /metrics       Prometheus text exposition (scrape target); negotiates
//                  OpenMetrics 1.0 with exemplars via Accept
//   /metrics.json  JSON lines: metrics + completed spans
//   /healthz       aggregated HealthMonitor status; 200 healthy / 503 not
//   /statusz       one-page operator view: build + server + health + SLO
//                  burn rates + registered sections (add_status_section)
//   /tracez        most recent completed span trees (text; ?format=json);
//                  ?trace=ID serves one request's spans from the trace index
//   /eventsz       tail of the flight-recorder ring as JSONL (?n=K)
//   /buildz        version, build type, compiler, thread-pool size, obs state
//   /              plain-text index of the above
//   POST /quitquitquit   ask the hosting process to finish (wait_for_quit)
//
// Every handler reads through obs::capture_snapshot(), so a scrape is a
// point-in-time copy taken under the component locks and serialized with no
// lock held — scrapes during `--threads N` training are race-free and can't
// stall workers. The server instruments itself (`agua.telemetry.requests`,
// per-endpoint `agua.telemetry.<endpoint>` latency histograms): the observer
// is observable through its own /metrics.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "net/http.hpp"

namespace agua::obs {

struct TelemetryOptions {
  std::string bind_address = "127.0.0.1";  ///< loopback only by default
  std::uint16_t port = 0;                  ///< 0 = ephemeral (see port())
  /// /eventsz tail size when no ?n= is given.
  std::size_t default_event_tail = 256;
  /// Shown by /buildz; override to stamp a release id.
  std::string version = "agua-dev";
  /// Absolute budget for receiving a request head (net/http request deadline;
  /// slow/idle clients are answered 408). The telemetry plane serves one
  /// connection at a time, so a stuck read would otherwise block every
  /// scrape. Handlers get no deadline: each runs on the thread that read its
  /// request, and /explain enforces its own (408).
  int request_deadline_ms = 2000;
  /// Connection workers for the underlying net::HttpServer. The default (1)
  /// keeps the classic serve-one-at-a-time telemetry plane; the explanation
  /// serving plane raises this so requests can be in flight concurrently
  /// (micro-batching coalesces nothing if connections are serialized).
  std::size_t connection_threads = 1;
  /// Extra lines appended to the `GET /` index (the serving plane lists its
  /// endpoints here). Each entry should end with '\n'.
  std::string extra_index;
};

class TelemetryServer {
 public:
  explicit TelemetryServer(TelemetryOptions options = {});
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Bind + serve on a dedicated thread. False (with last_error()) on socket
  /// failure — e.g. the port is taken.
  bool start();
  void stop();

  bool running() const { return server_.running(); }
  std::uint16_t port() const { return server_.port(); }
  /// "http://<bind>:<port>", valid after start().
  std::string url() const;
  const std::string& last_error() const { return server_.last_error(); }

  /// Block until a POST /quitquitquit arrives or `timeout_seconds` elapses
  /// (negative = wait forever). Returns true when quit was requested — the
  /// idiom behind `agua_cli --serve-linger`.
  bool wait_for_quit(double timeout_seconds);

  /// The underlying HTTP server, for mounting additional endpoints (the
  /// explanation serving plane registers /explain, /modelz, /reloadz here).
  /// Like any handler registration, mounting must finish before start().
  net::HttpServer& http() { return server_; }

  /// Register a named /statusz section. `provider` is called per request on
  /// a server thread and must be thread-safe; its text is rendered verbatim
  /// under a "== title ==" heading. Like handler registration, must be
  /// called before start() (the section list is immutable afterwards). The
  /// serving plane registers its model + cache section this way.
  void add_status_section(std::string title, std::function<std::string()> provider);

 private:
  void register_endpoints();
  std::string render_statusz();

  TelemetryOptions options_;
  net::HttpServer server_;
  std::int64_t start_ns_ = 0;
  std::vector<std::pair<std::string, std::function<std::string()>>> status_sections_;
  std::mutex quit_mutex_;
  std::condition_variable quit_cv_;
  bool quit_requested_ = false;  // guarded by quit_mutex_
};

}  // namespace agua::obs
