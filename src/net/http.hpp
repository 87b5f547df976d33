// Minimal dependency-free HTTP/1.1 plumbing over POSIX sockets — just enough
// protocol for the telemetry plane (obs/telemetry_server.hpp): an embedded
// server that binds a loopback port, parses request line + headers, and
// dispatches to registered handlers; and a tiny blocking client used by the
// tests and the scrape-latency benchmarks.
//
// Deliberate non-goals: TLS, keep-alive, chunked encoding, virtual hosts.
// Every connection carries exactly one request (head plus an optional
// Content-Length body, for POST endpoints like /explain) and is closed after
// the response (`Connection: close`). Memory stays naturally bounded: one
// head buffer capped at Options::max_request_bytes and one body buffer
// capped at Options::max_body_bytes per in-flight connection.
//
// By default the server is a single blocking accept loop on one dedicated
// thread — no connection table. Options::connection_threads > 1 adds a fixed
// pool of connection workers fed from the accept loop, so several requests
// can be in flight at once (the explanation-serving plane needs this for
// request coalescing); handlers must then be safe to run concurrently with
// each other.
//
// Layering: net sits directly above common (like obs) and is
// observability-free; the instrumented telemetry handlers live one layer up
// in src/obs. Handlers run inline, with no deadline, on the server thread
// that read the request, so anything they touch must be thread-safe against
// the rest of the process (obs/snapshot.hpp exists exactly for that).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace agua::net {

/// W3C trace context for one request: a 128-bit trace id plus the upstream
/// parent span id, parsed from an incoming `traceparent` header
/// (`00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>`) or generated
/// server-side when the client sent none. This is protocol plumbing, not
/// observability — the net layer only carries the id; the obs layer decides
/// what to record against it. Every response echoes the id back as
/// `X-Agua-Trace-Id` so a client (or an operator reading curl -i output) can
/// join the response to /tracez and to metric exemplars.
struct TraceContext {
  std::uint64_t trace_hi = 0;    ///< high 64 bits of the 128-bit trace id
  std::uint64_t trace_lo = 0;    ///< low 64 bits
  std::uint64_t parent_span = 0; ///< upstream parent-id (0 when generated)
  bool sampled = true;           ///< traceparent flags bit 0
  bool from_header = false;      ///< parsed from traceparent vs generated

  /// All-zero trace ids are invalid per the W3C spec.
  bool valid() const { return (trace_hi | trace_lo) != 0; }
  /// The trace id as 32 lower-case hex characters (the wire format).
  std::string trace_id_hex() const;
};

/// Parse a `traceparent` header value. Returns false (leaving `out`
/// untouched) on any syntax violation, an unknown version byte of 0xff, or
/// an all-zero trace id — the caller then generates a fresh context, per the
/// spec's "restart the trace" guidance.
bool parse_traceparent(std::string_view value, TraceContext& out);

/// Generate a fresh sampled trace context from the process-local seeded
/// stream (splitmix64 over seed + counter). Never returns an invalid id.
TraceContext generate_trace_context();

/// Reseed the generated-trace-id stream (and reset its counter) so a run's
/// server-generated ids are reproducible from the experiment seed.
void seed_trace_ids(std::uint64_t seed);

/// One parsed request. Header names are lower-cased at parse time; the path
/// is percent-decoded, the query string is kept raw (decode per key via
/// query_param).
struct HttpRequest {
  std::string method;   ///< upper-case, e.g. "GET"
  std::string path;     ///< decoded path without the query, e.g. "/metrics"
  std::string query;    ///< raw query string after '?' (may be empty)
  std::string version;  ///< e.g. "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;  ///< lower-cased names
  std::string body;     ///< Content-Length bytes (empty when none was sent)
  /// Client address (numeric IP, no port), for per-client accounting such as
  /// the serving plane's rate limiter. Empty when the request never crossed
  /// a socket (tests / benchmarks calling handlers directly).
  std::string peer;
  /// Request-scoped trace context: parsed from `traceparent` when present
  /// and well-formed, otherwise generated. Always valid() inside a handler.
  TraceContext trace;

  /// First header with the given lower-case name, or nullptr.
  const std::string* header(std::string_view lower_name) const;
  /// Percent-decoded value of `key` in the query string, or `fallback` when
  /// absent/empty.
  std::string query_param(std::string_view key, std::string fallback = "") const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// Additional response headers (e.g. "X-Agua-Cache: hit"). Names are sent
  /// verbatim; keep Content-Type/Content-Length/Connection out of here.
  std::vector<std::pair<std::string, std::string>> extra_headers;

  static HttpResponse text(int status, std::string body);
  static HttpResponse json(int status, std::string body);
};

/// Standard reason phrase for the handful of status codes this layer emits
/// ("OK", "Not Found", ...); "Unknown" for anything else.
std::string_view status_reason(int status);

/// Percent-decode a URL component (%XX and '+' → space). Invalid escapes are
/// kept verbatim.
std::string url_decode(std::string_view s);

struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";  ///< loopback by default, on purpose
  std::uint16_t port = 0;                  ///< 0 = kernel-assigned ephemeral port
  int backlog = 16;                        ///< listen(2) queue bound
  std::size_t max_request_bytes = 16 * 1024;  ///< head limit; larger → 431
  std::size_t max_body_bytes = 1024 * 1024;   ///< body limit; larger → 413
  /// Connection handling: 1 (default) serves one connection at a time inline
  /// on the accept thread; N > 1 runs a fixed pool of N connection workers so
  /// up to N requests are in flight concurrently (handlers must be
  /// thread-safe). Accepted connections beyond the worker queue's bound are
  /// answered 503 immediately — load is shed, never buffered unboundedly.
  std::size_t connection_threads = 1;
  int io_timeout_ms = 5000;  ///< per-recv/send socket timeout
  /// Absolute budget for receiving one request head. SO_RCVTIMEO alone resets
  /// on every byte, so a client trickling one byte per interval (slowloris)
  /// would pin the accept loop forever; this deadline is measured from
  /// accept and answers 408 when it expires, however chatty the client.
  int request_deadline_ms = 5000;
};

/// Counter snapshot for self-reporting (/healthz) and tests. `degraded` is
/// true while the accept loop is backing off from resource exhaustion
/// (EMFILE & friends) — the server is alive but shedding load.
struct HttpServerStats {
  std::uint64_t requests = 0;          ///< responses written (any status)
  std::uint64_t request_timeouts = 0;  ///< 408s (slow request heads)
  std::uint64_t accept_retries = 0;    ///< backoff rounds in the accept loop
  std::uint64_t write_errors = 0;      ///< responses that failed to send
  std::uint64_t rejected = 0;          ///< 503s from a full connection queue
  bool degraded = false;
};

/// Blocking HTTP server: one accept loop on a dedicated thread, one request
/// per connection, handlers dispatched by exact (method, path) match.
/// Registration must finish before start(); after that the handler table is
/// immutable, so dispatch needs no lock. stop() (also run by the destructor)
/// wakes the accept loop via a self-pipe and joins the thread — no request
/// is ever abandoned mid-response.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  using Options = HttpServerOptions;

  explicit HttpServer(Options options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Register `handler` for exact (method, path). Must be called before
  /// start(). A path registered under a different method yields 405 (with an
  /// Allow header); an unknown path yields 404.
  void handle(std::string method, std::string path, Handler handler);

  /// Bind + listen + spawn the accept thread. Returns false (and sets
  /// last_error()) on any socket failure. Calling start() twice is an error.
  bool start();

  /// Graceful shutdown: finish the in-flight request, stop accepting, join.
  /// Idempotent; safe to call from any thread except a handler.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Actual bound port (resolves port 0 after start()).
  std::uint16_t port() const { return port_; }
  const std::string& last_error() const { return last_error_; }
  /// Requests answered so far (any status), for tests and self-reporting.
  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  /// Resilience counters + degraded flag; safe from any thread.
  HttpServerStats stats() const;

 private:
  void accept_loop();
  void connection_worker();
  void dispatch_connection(int fd);
  void serve_connection(int fd);
  HttpResponse run_handler(const Handler& handler, const HttpRequest& request);

  Options options_;
  std::vector<std::pair<std::pair<std::string, std::string>, Handler>> handlers_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> request_timeouts_{0};
  std::atomic<std::uint64_t> accept_retries_{0};
  std::atomic<std::uint64_t> write_errors_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<bool> degraded_{false};
  // Connection-worker pool (connection_threads > 1): accepted fds queue here
  // and workers drain the queue; guarded by conn_mutex_.
  std::vector<std::thread> conn_workers_;
  std::vector<int> conn_queue_;
  std::mutex conn_mutex_;
  std::condition_variable conn_cv_;
  bool conn_shutdown_ = false;  // guarded by conn_mutex_
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [read, write]
  std::uint16_t port_ = 0;
  std::string last_error_;
};

/// Minimal blocking client response (for tests / benchmarks).
struct HttpClientResponse {
  int status = 0;
  std::string content_type;
  std::string body;
  std::vector<std::pair<std::string, std::string>> headers;  ///< lower-cased names

  /// First header with the given lower-case name, or `fallback`.
  std::string header(std::string_view lower_name, std::string fallback = "") const;
};

/// One blocking request to host:port. `target` is the raw request target
/// (path + optional query, e.g. "/eventsz?n=5"). A non-empty `body` is sent
/// with a Content-Length header and `content_type`; `headers` are extra
/// request headers sent verbatim (e.g. {"traceparent", ...} or an Accept for
/// /metrics content negotiation). Returns false on connect / I/O / parse
/// failure. Only used against our own server, so the parser is as minimal
/// as the server's.
bool http_request(const std::string& method, const std::string& host,
                  std::uint16_t port, const std::string& target,
                  HttpClientResponse& out, int timeout_ms = 5000,
                  const std::string& body = std::string(),
                  const std::string& content_type = "application/json",
                  const std::vector<std::pair<std::string, std::string>>& headers = {});

/// Convenience GET.
bool http_get(const std::string& host, std::uint16_t port, const std::string& target,
              HttpClientResponse& out, int timeout_ms = 5000);

/// Convenience POST with a JSON body.
bool http_post(const std::string& host, std::uint16_t port, const std::string& target,
               const std::string& body, HttpClientResponse& out, int timeout_ms = 5000);

}  // namespace agua::net
