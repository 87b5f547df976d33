#include "obs/telemetry_server.hpp"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/fault_telemetry.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"

// Injected by src/obs/CMakeLists.txt; harmless fallback elsewhere.
#ifndef AGUA_BUILD_TYPE
#define AGUA_BUILD_TYPE "unknown"
#endif

namespace agua::obs {
namespace {

using detail::json_escape;
using detail::json_number;

/// JSON has no inf/nan literals; monitors use ±inf for unbounded bands.
std::string json_number_or_null(double v) {
  return std::isfinite(v) ? json_number(v) : std::string("null");
}

std::string compiler_version() {
#if defined(__VERSION__)
  return __VERSION__;
#else
  return "unknown";
#endif
}

std::string monitors_json(const std::vector<HealthMonitorSnapshot>& monitors,
                          const char* status, const net::HttpServerStats& server) {
  std::ostringstream os;
  os << "{\"status\":\"" << status << "\",\"server\":{\"requests\":" << server.requests
     << ",\"request_timeouts\":" << server.request_timeouts
     << ",\"accept_retries\":" << server.accept_retries
     << ",\"write_errors\":" << server.write_errors
     << ",\"rejected\":" << server.rejected
     << ",\"degraded\":" << (server.degraded ? "true" : "false") << "},\"monitors\":[";
  for (std::size_t i = 0; i < monitors.size(); ++i) {
    const HealthMonitorSnapshot& m = monitors[i];
    if (i > 0) os << ',';
    os << "{\"name\":\"" << json_escape(m.name) << "\",\"healthy\":"
       << (m.healthy ? "true" : "false")
       << ",\"rolling_mean\":" << json_number(m.rolling_mean)
       << ",\"samples\":" << m.samples << ",\"alerts\":" << m.alerts
       << ",\"window\":" << m.window << ",\"min_samples\":" << m.min_samples
       << ",\"min_healthy\":" << json_number_or_null(m.min_healthy)
       << ",\"max_healthy\":" << json_number_or_null(m.max_healthy) << "}";
  }
  os << "]}\n";
  return os.str();
}

std::string spans_json(const std::vector<SpanRecord>& spans) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (i > 0) os << ',';
    os << "{\"name\":\"" << json_escape(span.name) << "\",\"id\":" << span.id
       << ",\"parent_id\":" << span.parent_id << ",\"thread\":" << span.thread_id
       << ",\"depth\":" << span.depth << ",\"begin_ns\":" << span.begin_ns
       << ",\"end_ns\":" << span.end_ns
       << ",\"duration_s\":" << json_number(span.duration_seconds())
       << ",\"trace_id\":\"" << (span.trace.valid() ? span.trace.hex() : std::string())
       << "\"}";
  }
  os << "]\n";
  return os.str();
}

/// True when the Accept header (if any) asks for OpenMetrics. A real
/// Prometheus sends a q-weighted list; substring matching is all the
/// negotiation a two-format endpoint needs.
bool wants_openmetrics(const net::HttpRequest& request) {
  const std::string* accept = request.header("accept");
  return accept != nullptr && accept->find("application/openmetrics-text") != std::string::npos;
}

constexpr const char* kIndex =
    "agua telemetry plane\n"
    "  GET  /metrics       Prometheus text exposition (OpenMetrics via Accept)\n"
    "  GET  /metrics.json  metrics + spans, JSON lines\n"
    "  GET  /healthz       health monitors (200 ok / 503 unhealthy)\n"
    "  GET  /statusz       one-page operator view (health + SLO burn + sections)\n"
    "  GET  /tracez        completed span trees (?format=json, ?trace=ID)\n"
    "  GET  /eventsz       flight-recorder tail as JSONL (?n=K)\n"
    "  GET  /buildz        build + runtime info\n"
    "  POST /quitquitquit  ask the process to finish\n";

}  // namespace

TelemetryServer::TelemetryServer(TelemetryOptions options)
    : options_(std::move(options)),
      server_(net::HttpServer::Options{.bind_address = options_.bind_address,
                                       .port = options_.port,
                                       .connection_threads = options_.connection_threads,
                                       .request_deadline_ms = options_.request_deadline_ms}) {
  // Any fault fired anywhere in the process should be visible on /metrics
  // and /eventsz; the bridge is idempotent and cheap when faults are off.
  install_fault_telemetry();
  register_endpoints();
}

TelemetryServer::~TelemetryServer() { stop(); }

bool TelemetryServer::start() {
  start_ns_ = now_ns();
  return server_.start();
}

void TelemetryServer::stop() {
  server_.stop();
  // Unblock anyone lingering in wait_for_quit: with the server gone no quit
  // request can ever arrive, so waiting on would be a hang.
  {
    std::lock_guard<std::mutex> lock(quit_mutex_);
    quit_requested_ = true;
  }
  quit_cv_.notify_all();
}

std::string TelemetryServer::url() const {
  return "http://" + options_.bind_address + ":" + std::to_string(port());
}

bool TelemetryServer::wait_for_quit(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(quit_mutex_);
  if (timeout_seconds < 0) {
    quit_cv_.wait(lock, [this] { return quit_requested_; });
    return true;
  }
  return quit_cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                           [this] { return quit_requested_; });
}

void TelemetryServer::register_endpoints() {
  // Self-instrumentation wrapper: one shared request counter plus a
  // per-endpoint latency histogram, resolved by name per request (scrape
  // endpoints are cold paths; a registry lookup is noise here, and late
  // lookup keeps the server safe across MetricsRegistry::reset_for_testing).
  // The wrapper also activates the request's trace context (so handler spans
  // and latency exemplars carry the trace id) and feeds the endpoint's SLO
  // tracker, if one is registered, with the answered status + latency.
  const auto instrumented = [](const char* endpoint, net::HttpServer::Handler fn) {
    return [endpoint, fn = std::move(fn)](const net::HttpRequest& request) {
      MetricsRegistry::instance().counter("agua.telemetry.requests").add(1);
      const std::int64_t begin = now_ns();
      const TraceContextScope trace_scope(
          TraceId{request.trace.trace_hi, request.trace.trace_lo});
      net::HttpResponse response;
      {
        // A TraceSpan rather than a bare ScopedTimer: the endpoint latency
        // lands in the same-named histogram either way, but the span record
        // is what /tracez?trace=ID serves for this request.
        TraceSpan span(std::string("agua.telemetry.") + endpoint);
        response = fn(request);
      }
      slo_observe(request.path, static_cast<double>(now_ns() - begin) * 1e-9,
                  response.status);
      return response;
    };
  };

  server_.handle("GET", "/", instrumented("index", [this](const net::HttpRequest&) {
    return net::HttpResponse::text(200, kIndex + options_.extra_index);
  }));

  server_.handle("GET", "/metrics", instrumented("metrics", [](const net::HttpRequest& request) {
    // Burn gauges are computed on read; refresh them so they appear in the
    // same scrape that asks for them.
    SloRegistry::instance().snapshot();
    const Snapshot snap = capture_snapshot({.include_spans = false,
                                            .include_events = false,
                                            .include_monitors = false});
    net::HttpResponse response;
    if (wants_openmetrics(request)) {
      response.content_type = "application/openmetrics-text; version=1.0.0; charset=utf-8";
      response.body = export_openmetrics(snap.metrics);
    } else {
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      response.body = export_prometheus(snap.metrics);
    }
    return response;
  }));

  server_.handle("GET", "/metrics.json",
                 instrumented("metrics_json", [](const net::HttpRequest&) {
                   const Snapshot snap = capture_snapshot(
                       {.include_events = false, .include_monitors = false});
                   net::HttpResponse response;
                   response.content_type = "application/x-ndjson";
                   response.body = export_json(snap.metrics, snap.spans);
                   return response;
                 }));

  server_.handle("GET", "/healthz", instrumented("healthz", [this](const net::HttpRequest&) {
    const std::vector<HealthMonitorSnapshot> monitors = snapshot_monitors();
    bool healthy = true;
    for (const HealthMonitorSnapshot& m : monitors) healthy &= m.healthy;
    const net::HttpServerStats server_stats = server_.stats();
    // Three-state status: unhealthy (a monitor tripped; 503 so a probe pulls
    // us out of rotation) > degraded (serving, but shedding load — still
    // 200: the process is alive and useful) > ok.
    const char* status = !healthy ? "unhealthy"
                         : server_stats.degraded ? "degraded"
                                                 : "ok";
    return net::HttpResponse::json(healthy ? 200 : 503,
                                   monitors_json(monitors, status, server_stats));
  }));

  server_.handle("GET", "/tracez", instrumented("tracez", [](const net::HttpRequest& request) {
    const bool json = request.query_param("format") == "json";
    const std::string trace_param = request.query_param("trace");
    if (!trace_param.empty()) {
      // Per-trace lookup against the bounded trace index — works even when
      // global span capture is off, which is the production configuration.
      TraceId id;
      if (!TraceId::parse(trace_param, id)) {
        return net::HttpResponse::json(400, "{\"error\":\"bad trace id (expect 32 hex chars)\"}\n");
      }
      const std::vector<SpanRecord> spans = spans_for_trace(id);
      if (spans.empty()) {
        return net::HttpResponse::json(
            404, "{\"error\":\"unknown trace (never seen, or evicted)\"}\n");
      }
      if (json) {
        return net::HttpResponse::json(200, "{\"trace_id\":\"" + id.hex() +
                                                "\",\"spans\":" + spans_json(spans) + "}\n");
      }
      return net::HttpResponse::text(
          200, "trace " + id.hex() + "\n" + format_span_tree(spans));
    }
    const Snapshot snap =
        capture_snapshot({.include_events = false, .include_monitors = false});
    if (json) {
      return net::HttpResponse::json(200, spans_json(snap.spans));
    }
    std::string body;
    if (!trace_enabled() && snap.spans.empty()) {
      body = "span capture is off (enable with --trace / obs::set_trace_enabled)\n";
    } else if (snap.spans.empty()) {
      body = "no completed spans yet\n";
    } else {
      body = format_span_tree(snap.spans);
    }
    return net::HttpResponse::text(200, std::move(body));
  }));

  server_.handle(
      "GET", "/eventsz",
      instrumented("eventsz", [this](const net::HttpRequest& request) {
        std::size_t tail = options_.default_event_tail;
        const std::string n = request.query_param("n");
        if (!n.empty()) tail = static_cast<std::size_t>(std::strtoull(n.c_str(), nullptr, 10));
        const Snapshot snap = capture_snapshot(
            {.include_spans = false, .include_monitors = false, .event_tail = tail});
        std::ostringstream os;
        for (const Event& event : snap.events) os << event_to_json(event) << '\n';
        net::HttpResponse response;
        response.content_type = "application/x-ndjson";
        response.body = os.str();
        return response;
      }));

  server_.handle("GET", "/buildz", instrumented("buildz", [this](const net::HttpRequest&) {
    const EventLog& log = event_log();
    std::ostringstream os;
    os << "{\"version\":\"" << json_escape(options_.version) << "\",\"build_type\":\""
       << json_escape(AGUA_BUILD_TYPE) << "\",\"compiler\":\""
       << json_escape(compiler_version()) << "\",\"threads\":"
       << common::default_thread_count() << ",\"obs_enabled\":"
       << (enabled() ? "true" : "false") << ",\"trace_enabled\":"
       << (trace_enabled() ? "true" : "false") << ",\"events_enabled\":"
       << (log.enabled() ? "true" : "false") << ",\"events_retained\":" << log.size()
       << ",\"events_dropped\":" << log.dropped() << ",\"uptime_s\":"
       << json_number(static_cast<double>(now_ns() - start_ns_) * 1e-9)
       << ",\"requests\":" << server_.requests_served() << "}\n";
    return net::HttpResponse::json(200, os.str());
  }));

  server_.handle("GET", "/statusz", instrumented("statusz", [this](const net::HttpRequest&) {
    return net::HttpResponse::text(200, render_statusz());
  }));

  server_.handle("POST", "/quitquitquit",
                 instrumented("quit", [this](const net::HttpRequest&) {
                   {
                     std::lock_guard<std::mutex> lock(quit_mutex_);
                     quit_requested_ = true;
                   }
                   quit_cv_.notify_all();
                   return net::HttpResponse::text(200, "bye\n");
                 }));
}

void TelemetryServer::add_status_section(std::string title,
                                         std::function<std::string()> provider) {
  status_sections_.emplace_back(std::move(title), std::move(provider));
}

std::string TelemetryServer::render_statusz() {
  std::ostringstream os;
  os << "agua statusz — " << options_.version << " (" << AGUA_BUILD_TYPE << "), uptime "
     << common::format_double(static_cast<double>(now_ns() - start_ns_) * 1e-9, 1)
     << " s\n\n";

  const net::HttpServerStats server_stats = server_.stats();
  os << "== server ==\n"
     << "requests " << server_stats.requests << ", request_timeouts "
     << server_stats.request_timeouts << ", rejected " << server_stats.rejected
     << ", write_errors " << server_stats.write_errors << ", degraded "
     << (server_stats.degraded ? "yes" : "no") << "\n\n";

  os << "== health ==\n";
  const std::vector<HealthMonitorSnapshot> monitors = snapshot_monitors();
  bool healthy = true;
  for (const HealthMonitorSnapshot& m : monitors) healthy &= m.healthy;
  os << "status: "
     << (!healthy ? "unhealthy" : server_stats.degraded ? "degraded" : "ok") << "\n";
  if (monitors.empty()) {
    os << "(no health monitors registered)\n";
  } else {
    for (const HealthMonitorSnapshot& m : monitors) {
      os << m.name << "  " << (m.healthy ? "healthy" : "UNHEALTHY") << "  mean "
         << common::format_double(m.rolling_mean, 4) << "  samples " << m.samples
         << "  alerts " << m.alerts << "\n";
    }
  }
  os << "\n== slo ==\n" << format_slo_table(SloRegistry::instance().snapshot());

  const TraceIndexStats trace_stats = trace_index_stats();
  os << "\n== traces ==\n"
     << "indexed traces " << trace_stats.traces << ", spans "
     << trace_stats.indexed_spans << ", evicted " << trace_stats.evicted_traces
     << ", dropped spans " << trace_stats.dropped_spans
     << " (query /tracez?trace=ID)\n";

  for (const auto& [title, provider] : status_sections_) {
    os << "\n== " << title << " ==\n" << provider();
  }
  return os.str();
}

}  // namespace agua::obs
