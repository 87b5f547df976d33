#include "net/http.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "common/fault.hpp"

namespace agua::net {
namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void set_io_timeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

/// Write the whole buffer, tolerating short writes and EINTR.
bool write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read until the header terminator (CRLF CRLF), `max_bytes`, or the
/// absolute `deadline` budget. The deadline is enforced with poll() against
/// a fixed endpoint — unlike SO_RCVTIMEO it does not reset per byte, which
/// is what defeats slowloris-style trickle clients (kTimeout → 408). Any
/// body bytes that arrived in the same segments stay in `out` past the
/// terminator; read_body consumes them.
enum class ReadHead { kOk, kTooLarge, kTimeout, kError };

using Clock = std::chrono::steady_clock;

ReadHead read_head(int fd, std::size_t max_bytes, Clock::time_point deadline,
                   std::string& out) {
  char buf[2048];
  while (out.find("\r\n\r\n") == std::string::npos) {
    if (out.size() >= max_bytes) return ReadHead::kTooLarge;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    if (remaining.count() <= 0) return ReadHead::kTimeout;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ReadHead::kError;
    }
    if (ready == 0) return ReadHead::kTimeout;
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    if (n <= 0) return ReadHead::kError;  // reset or premature close
    out.append(buf, static_cast<std::size_t>(n));
  }
  return ReadHead::kOk;
}

/// Append to `out` until it holds `total` bytes, under the same absolute
/// deadline as the head (one budget covers the whole request).
ReadHead read_body(int fd, std::size_t total, Clock::time_point deadline,
                   std::string& out) {
  char buf[4096];
  while (out.size() < total) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    if (remaining.count() <= 0) return ReadHead::kTimeout;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ReadHead::kError;
    }
    if (ready == 0) return ReadHead::kTimeout;
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    if (n <= 0) return ReadHead::kError;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return ReadHead::kOk;
}

/// Parse the request head (request line + headers). Returns false on any
/// syntax violation — the caller answers 400.
bool parse_request(std::string_view head, HttpRequest& out) {
  const std::size_t line_end = head.find("\r\n");
  if (line_end == std::string_view::npos) return false;
  const std::string_view request_line = head.substr(0, line_end);

  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) return false;
  out.method = std::string(request_line.substr(0, sp1));
  std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  out.version = std::string(request_line.substr(sp2 + 1));
  if (out.method.empty() || target.empty() || target.front() != '/') return false;
  if (out.version.rfind("HTTP/", 0) != 0) return false;

  const std::size_t qmark = target.find('?');
  out.path = url_decode(target.substr(0, qmark));
  out.query = qmark == std::string_view::npos
                  ? std::string()
                  : std::string(target.substr(qmark + 1));

  std::size_t pos = line_end + 2;
  while (pos < head.size()) {
    const std::size_t end = head.find("\r\n", pos);
    if (end == std::string_view::npos) break;
    if (end == pos) break;  // blank line: end of headers
    const std::string_view line = head.substr(pos, end - pos);
    pos = end + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    out.headers.emplace_back(lower(line.substr(0, colon)), std::string(value));
  }
  return true;
}

std::string render_response(const HttpResponse& response, std::string_view allow = {}) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    std::string(status_reason(response.status)) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& [name, value] : response.extra_headers) {
    out += name + ": " + value + "\r\n";
  }
  if (!allow.empty()) out += "Allow: " + std::string(allow) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Parse exactly `digits` lower/upper hex characters into `out`. Returns
/// false on any non-hex character (traceparent is strict about field width).
bool parse_hex_u64(std::string_view s, std::uint64_t& out) {
  std::uint64_t value = 0;
  for (char c : s) {
    const int d = hex_digit(c);
    if (d < 0) return false;
    value = (value << 4) | static_cast<std::uint64_t>(d);
  }
  out = value;
  return true;
}

void append_hex_u64(std::string& out, std::uint64_t v) {
  static const char* kHex = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kHex[(v >> shift) & 0xF];
  }
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Server-generated trace ids come from a seeded counter stream so a run's
// ids are reproducible from the experiment seed (seed_trace_ids), yet unique
// per request. Relaxed ordering is fine: uniqueness only needs the
// fetch_add to be atomic.
std::atomic<std::uint64_t> g_trace_seed{0x41475541ULL /* "AGUA" */};
std::atomic<std::uint64_t> g_trace_counter{0};

}  // namespace

std::string TraceContext::trace_id_hex() const {
  std::string out;
  out.reserve(32);
  append_hex_u64(out, trace_hi);
  append_hex_u64(out, trace_lo);
  return out;
}

bool parse_traceparent(std::string_view value, TraceContext& out) {
  // version "00": 00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>.
  // Future versions are allowed to append fields, so accept a longer value
  // as long as the extra part starts with '-'; version 0xff is reserved.
  if (value.size() < 55) return false;
  if (value[2] != '-' || value[35] != '-' || value[52] != '-') return false;
  if (value.size() > 55 && value[55] != '-') return false;
  std::uint64_t version = 0;
  if (!parse_hex_u64(value.substr(0, 2), version) || version == 0xFF) return false;
  if (version == 0 && value.size() != 55) return false;
  TraceContext parsed;
  std::uint64_t flags = 0;
  if (!parse_hex_u64(value.substr(3, 16), parsed.trace_hi) ||
      !parse_hex_u64(value.substr(19, 16), parsed.trace_lo) ||
      !parse_hex_u64(value.substr(36, 16), parsed.parent_span) ||
      !parse_hex_u64(value.substr(53, 2), flags)) {
    return false;
  }
  if (!parsed.valid() || parsed.parent_span == 0) return false;
  parsed.sampled = (flags & 0x01) != 0;
  parsed.from_header = true;
  out = parsed;
  return true;
}

TraceContext generate_trace_context() {
  const std::uint64_t seed = g_trace_seed.load(std::memory_order_relaxed);
  const std::uint64_t n = g_trace_counter.fetch_add(1, std::memory_order_relaxed);
  TraceContext ctx;
  ctx.trace_hi = splitmix64(seed ^ (n * 2));
  ctx.trace_lo = splitmix64(seed ^ (n * 2 + 1));
  if (!ctx.valid()) ctx.trace_lo = 1;  // astronomically unlikely, but spec-required
  ctx.sampled = true;
  ctx.from_header = false;
  return ctx;
}

void seed_trace_ids(std::uint64_t seed) {
  g_trace_seed.store(seed, std::memory_order_relaxed);
  g_trace_counter.store(0, std::memory_order_relaxed);
}

const std::string* HttpRequest::header(std::string_view lower_name) const {
  for (const auto& [name, value] : headers) {
    if (name == lower_name) return &value;
  }
  return nullptr;
}

std::string HttpRequest::query_param(std::string_view key, std::string fallback) const {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    const std::string_view pair = std::string_view(query).substr(pos, end - pos);
    pos = end + 1;
    const std::size_t eq = pair.find('=');
    const std::string_view k = pair.substr(0, eq);
    if (url_decode(k) != key) continue;
    if (eq == std::string_view::npos) return fallback;
    const std::string value = url_decode(pair.substr(eq + 1));
    return value.empty() ? fallback : value;
  }
  return fallback;
}

HttpResponse HttpResponse::text(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.body = std::move(body);
  return r;
}

HttpResponse HttpResponse::json(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.content_type = "application/json; charset=utf-8";
  r.body = std::move(body);
  return r;
}

std::string_view status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 408: return "Request Timeout";
    case 405: return "Method Not Allowed";
    case 429: return "Too Many Requests";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out += ' ';
    } else if (s[i] == '%' && i + 2 < s.size() && hex_digit(s[i + 1]) >= 0 &&
               hex_digit(s[i + 2]) >= 0) {
      out += static_cast<char>(hex_digit(s[i + 1]) * 16 + hex_digit(s[i + 2]));
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

HttpServer::HttpServer(Options options) : options_(std::move(options)) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(std::string method, std::string path, Handler handler) {
  handlers_.emplace_back(std::make_pair(std::move(method), std::move(path)),
                         std::move(handler));
}

bool HttpServer::start() {
  if (running()) {
    last_error_ = "start() called twice";
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    last_error_ = errno_string("socket");
    return false;
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    last_error_ = "bad bind address: " + options_.bind_address;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd_, options_.backlog) < 0) {
    last_error_ = errno_string("bind/listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof addr;
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  if (::pipe2(wake_fds_, O_CLOEXEC) < 0) {
    last_error_ = errno_string("pipe2");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  running_.store(true, std::memory_order_release);
  conn_shutdown_ = false;
  if (options_.connection_threads > 1) {
    conn_workers_.reserve(options_.connection_threads);
    for (std::size_t i = 0; i < options_.connection_threads; ++i) {
      conn_workers_.emplace_back([this] { connection_worker(); });
    }
  }
  thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void HttpServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Self-pipe wakeup: the accept loop polls both the listen socket and the
  // pipe, so one byte here breaks it out of a blocking wait immediately.
  const char byte = 'q';
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  // The accept loop is gone, so no new fds can be queued; drain the workers.
  // Workers finish their in-flight request before exiting, so no request is
  // abandoned mid-response; queued-but-unserved connections are just closed
  // (the client sees a reset, as it would from any server going down).
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conn_shutdown_ = true;
  }
  conn_cv_.notify_all();
  for (std::thread& worker : conn_workers_) {
    if (worker.joinable()) worker.join();
  }
  conn_workers_.clear();
  for (int fd : conn_queue_) ::close(fd);
  conn_queue_.clear();
  for (int* fd : {&listen_fd_, &wake_fds_[0], &wake_fds_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void HttpServer::connection_worker() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(conn_mutex_);
      conn_cv_.wait(lock, [this] { return conn_shutdown_ || !conn_queue_.empty(); });
      if (conn_queue_.empty()) return;  // shutdown with nothing left to serve
      fd = conn_queue_.front();
      conn_queue_.erase(conn_queue_.begin());
    }
    serve_connection(fd);
    ::close(fd);
  }
}

void HttpServer::dispatch_connection(int fd) {
  if (options_.connection_threads <= 1) {
    serve_connection(fd);
    ::close(fd);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    // Bound the queue at one waiting connection per worker beyond the ones
    // being served; past that the server is saturated and honesty beats
    // buffering — shed the connection with an immediate 503.
    if (conn_queue_.size() < options_.connection_threads) {
      conn_queue_.push_back(fd);
      conn_cv_.notify_one();
      return;
    }
  }
  rejected_.fetch_add(1, std::memory_order_relaxed);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  HttpResponse shed = HttpResponse::text(503, "server busy\n");
  // Shed responses must always be retryable-by-contract: Retry-After plus a
  // joinable trace id, same as the serving plane's overload 503s.
  shed.extra_headers.emplace_back("Retry-After", "1");
  shed.extra_headers.emplace_back("X-Agua-Trace-Id",
                                  generate_trace_context().trace_id_hex());
  write_all(fd, render_response(shed));
  ::shutdown(fd, SHUT_WR);
  ::close(fd);
}

void HttpServer::accept_loop() {
  int backoff_ms = 0;
  while (running_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const bool injected = common::fault::fail_point("net.accept");
    const int fd = injected ? -1 : ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int err = injected ? EMFILE : errno;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
        // Resource exhaustion: accepting again immediately would spin at
        // 100% CPU and fail identically. Back off exponentially (capped),
        // flag ourselves degraded, and retry — the connection stays in the
        // listen queue meanwhile. The backoff sleep polls the wake pipe so
        // stop() still interrupts it instantly.
        accept_retries_.fetch_add(1, std::memory_order_relaxed);
        degraded_.store(true, std::memory_order_relaxed);
        backoff_ms = backoff_ms == 0 ? 10 : std::min(backoff_ms * 2, 1000);
        pollfd wake{wake_fds_[0], POLLIN, 0};
        if (::poll(&wake, 1, backoff_ms) > 0) break;
      }
      continue;  // ECONNABORTED & friends: raced with a client reset
    }
    backoff_ms = 0;
    degraded_.store(false, std::memory_order_relaxed);
    dispatch_connection(fd);
  }
}

HttpServerStats HttpServer::stats() const {
  HttpServerStats s;
  s.requests = requests_served_.load(std::memory_order_relaxed);
  s.request_timeouts = request_timeouts_.load(std::memory_order_relaxed);
  s.accept_retries = accept_retries_.load(std::memory_order_relaxed);
  s.write_errors = write_errors_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  return s;
}

HttpResponse HttpServer::run_handler(const Handler& handler, const HttpRequest& request) {
  try {
    return handler(request);
  } catch (const std::exception& e) {
    return HttpResponse::text(500, std::string("handler error: ") + e.what() + "\n");
  } catch (...) {
    return HttpResponse::text(500, "handler error\n");
  }
}

void HttpServer::serve_connection(int fd) {
  set_io_timeout(fd, options_.io_timeout_ms);
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options_.request_deadline_ms);
  std::string raw;
  const ReadHead read = read_head(fd, options_.max_request_bytes, deadline, raw);
  if (read == ReadHead::kError) return;  // nothing parseable arrived; just close

  // Every response carries the request's trace id (X-Agua-Trace-Id), even
  // the pre-parse error paths — a 408'd slowloris still gets a joinable id.
  TraceContext trace = generate_trace_context();
  HttpResponse response;
  std::string allow;
  if (read == ReadHead::kTimeout) {
    request_timeouts_.fetch_add(1, std::memory_order_relaxed);
    response = HttpResponse::text(408, "request timeout\n");
  } else if (read == ReadHead::kTooLarge) {
    response = HttpResponse::text(431, "request too large\n");
  } else {
    HttpRequest request;
    const std::size_t head_end = raw.find("\r\n\r\n") + 4;
    bool body_ok = true;
    if (!parse_request(std::string_view(raw).substr(0, head_end), request)) {
      response = HttpResponse::text(400, "malformed request\n");
      body_ok = false;
    } else {
      // Propagate the client's trace id when the traceparent header is
      // well-formed; a malformed one falls back to the generated context
      // (the spec says restart the trace).
      if (const std::string* traceparent = request.header("traceparent")) {
        parse_traceparent(*traceparent, trace);
      }
      request.trace = trace;
      // Numeric peer address for per-client accounting (rate limiting). Best
      // effort: a failed getpeername just leaves the field empty.
      sockaddr_in peer_addr{};
      socklen_t peer_len = sizeof peer_addr;
      char peer_text[INET_ADDRSTRLEN] = {};
      if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer_addr), &peer_len) == 0 &&
          peer_addr.sin_family == AF_INET &&
          ::inet_ntop(AF_INET, &peer_addr.sin_addr, peer_text, sizeof peer_text) !=
              nullptr) {
        request.peer = peer_text;
      }
      if (const std::string* length = request.header("content-length")) {
        // Body bytes that rode in with the head are already in `raw`; pull
        // the rest under the request's remaining deadline budget.
        char* end = nullptr;
        const unsigned long long want = std::strtoull(length->c_str(), &end, 10);
        if (end == length->c_str() || (end != nullptr && *end != '\0')) {
          response = HttpResponse::text(400, "bad content-length\n");
          body_ok = false;
        } else if (want > options_.max_body_bytes) {
          response = HttpResponse::text(413, "request body too large\n");
          body_ok = false;
        } else {
          const ReadHead body_read = read_body(fd, head_end + want, deadline, raw);
          if (body_read == ReadHead::kTimeout) {
            request_timeouts_.fetch_add(1, std::memory_order_relaxed);
            response = HttpResponse::text(408, "request timeout\n");
            body_ok = false;
          } else if (body_read != ReadHead::kOk) {
            return;  // connection died mid-body; nothing to answer
          } else {
            request.body = raw.substr(head_end, want);
          }
        }
      }
    }
    if (body_ok) {
      bool path_known = false;
      const Handler* handler = nullptr;
      for (const auto& [key, h] : handlers_) {
        if (key.second != request.path) continue;
        path_known = true;
        if (!allow.empty()) allow += ", ";
        allow += key.first;
        if (key.first == request.method) handler = &h;
      }
      if (handler != nullptr) {
        allow.clear();
        response = run_handler(*handler, request);
      } else if (path_known) {
        response = HttpResponse::text(405, "method not allowed\n");
      } else {
        response = HttpResponse::text(404, "not found\n");
      }
    }
  }
  bool has_trace_header = false;
  for (const auto& [name, value] : response.extra_headers) {
    if (lower(name) == "x-agua-trace-id") has_trace_header = true;
  }
  if (!has_trace_header) {
    response.extra_headers.emplace_back("X-Agua-Trace-Id", trace.trace_id_hex());
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  const bool write_ok =
      !common::fault::fail_point("net.write") && write_all(fd, render_response(response, allow));
  if (!write_ok) write_errors_.fetch_add(1, std::memory_order_relaxed);
  // Let the client read everything before the RST a close-with-unread-data
  // could trigger: half-close, then drain until EOF/timeout.
  ::shutdown(fd, SHUT_WR);
  char drain[256];
  while (::recv(fd, drain, sizeof drain, 0) > 0) {
  }
}

std::string HttpClientResponse::header(std::string_view lower_name,
                                       std::string fallback) const {
  for (const auto& [name, value] : headers) {
    if (name == lower_name) return value;
  }
  return fallback;
}

bool http_request(const std::string& method, const std::string& host,
                  std::uint16_t port, const std::string& target,
                  HttpClientResponse& out, int timeout_ms, const std::string& body,
                  const std::string& content_type,
                  const std::vector<std::pair<std::string, std::string>>& headers) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  set_io_timeout(fd, timeout_ms);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return false;
  }
  std::string request = method + " " + target + " HTTP/1.1\r\nHost: " + host +
                        "\r\nConnection: close\r\n";
  for (const auto& [name, value] : headers) {
    request += name + ": " + value + "\r\n";
  }
  if (!body.empty()) {
    request += "Content-Type: " + content_type + "\r\n";
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;
  if (!write_all(fd, request)) {
    ::close(fd);
    return false;
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  const std::size_t line_end = raw.find("\r\n");
  const std::string status_line = raw.substr(0, line_end);
  if (status_line.rfind("HTTP/", 0) != 0) return false;
  const std::size_t sp = status_line.find(' ');
  if (sp == std::string::npos) return false;
  out.status = std::atoi(status_line.c_str() + sp + 1);

  out.content_type.clear();
  out.headers.clear();
  std::size_t pos = line_end + 2;
  while (pos < head_end) {
    std::size_t end = raw.find("\r\n", pos);
    if (end == std::string::npos || end > head_end) end = head_end;
    const std::string line = raw.substr(pos, end - pos);
    pos = end + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::size_t v = colon + 1;
    while (v < line.size() && (line[v] == ' ' || line[v] == '\t')) ++v;
    const std::string name = lower(line.substr(0, colon));
    const std::string value = line.substr(v);
    if (name == "content-type") out.content_type = value;
    out.headers.emplace_back(name, value);
  }
  out.body = raw.substr(head_end + 4);
  return true;
}

bool http_get(const std::string& host, std::uint16_t port, const std::string& target,
              HttpClientResponse& out, int timeout_ms) {
  return http_request("GET", host, port, target, out, timeout_ms);
}

bool http_post(const std::string& host, std::uint16_t port, const std::string& target,
               const std::string& body, HttpClientResponse& out, int timeout_ms) {
  return http_request("POST", host, port, target, out, timeout_ms, body);
}

}  // namespace agua::net
