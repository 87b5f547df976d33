#include "serve/service.hpp"

#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "core/explain.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "serve/json.hpp"

namespace agua::serve {
namespace {

using obs::detail::json_escape;
using obs::detail::json_number;

constexpr std::size_t kFactual = static_cast<std::size_t>(-1);

std::int64_t steady_us(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::microseconds>(tp.time_since_epoch())
      .count();
}

/// Non-negative integer from a JSON number, rejecting fractions and
/// anything a size_t cannot hold.
bool to_index(const JsonValue& v, std::size_t& out) {
  if (!v.is_number() || !std::isfinite(v.number) || v.number < 0) return false;
  const double rounded = std::floor(v.number);
  if (rounded != v.number || rounded > 9e15) return false;
  out = static_cast<std::size_t>(rounded);
  return true;
}

const char* level_label(std::size_t level) {
  static const char* kLabels[] = {"low", "medium", "high"};
  return kLabels[level < 3 ? level : 2];
}

/// Rendered /explain body. Every value is either an integer or a %.17g
/// double (json_number), so identical explanations render byte-identically —
/// the invariant the result cache's "repeated request → same bytes"
/// guarantee rests on.
std::string render_explanation(const core::Explanation& exp, const ModelInfo& info,
                               std::size_t top_k) {
  std::ostringstream os;
  os << "{\"fingerprint\":\"" << json_escape(info.fingerprint)
     << "\",\"generation\":" << info.generation
     << ",\"output_class\":" << exp.output_class
     << ",\"predicted_class\":" << exp.predicted_class
     << ",\"output_probability\":" << json_number(exp.output_probability)
     << ",\"top\":[";
  const std::vector<std::size_t> top = exp.top_concepts(top_k);
  for (std::size_t i = 0; i < top.size(); ++i) {
    const std::size_t c = top[i];
    if (i > 0) os << ',';
    const std::string name = c < exp.concept_names.size()
                                 ? exp.concept_names[c]
                                 : "concept-" + std::to_string(c);
    const std::size_t level = c < exp.dominant_levels.size() ? exp.dominant_levels[c] : 0;
    os << "{\"concept\":" << c << ",\"name\":\"" << json_escape(name)
       << "\",\"weight\":" << json_number(exp.concept_weights[c])
       << ",\"signed_contribution\":"
       << json_number(exp.signed_concept_contributions[c])
       << ",\"dominant_level\":\"" << level_label(level) << "\"}";
  }
  os << "],\"concept_weights\":[";
  for (std::size_t c = 0; c < exp.concept_weights.size(); ++c) {
    if (c > 0) os << ',';
    os << json_number(exp.concept_weights[c]);
  }
  os << "]}\n";
  return os.str();
}

}  // namespace

ExplainService::ExplainService(ExplainServiceOptions options)
    : options_(options),
      cache_(options.cache_capacity, options.cache_shards),
      overload_(options.overload) {}

ExplainService::~ExplainService() { stop(); }

ModelInfo ExplainService::install_model(core::AguaModel model, std::string source) {
  std::string fingerprint = core::model_fingerprint(model);
  const std::size_t embedding_dim = model.concept_mapping().config().embedding_dim;
  auto entry = std::make_shared<ModelEntry>(ModelEntry{
      std::move(model), ModelInfo{0, std::move(fingerprint), std::move(source)},
      embedding_dim});
  {
    std::lock_guard<std::mutex> lock(model_mutex_);
    entry->info.generation = next_generation_++;
    // Remember the outgoing fingerprint: during a brownout the service may
    // serve its still-cached (slightly stale) renderings rather than recompute.
    if (model_ && model_->info.fingerprint != entry->info.fingerprint) {
      previous_fingerprint_ = model_->info.fingerprint;
    }
    model_ = entry;
  }
  obs::MetricsRegistry::instance().gauge("agua.serve.model.generation")
      .set(static_cast<double>(entry->info.generation));
  obs::event_log().append(
      "serve.model.swap",
      {{"generation", static_cast<double>(entry->info.generation)}});
  return entry->info;
}

void ExplainService::set_rows(std::vector<std::vector<double>> rows) {
  auto shared = std::make_shared<const std::vector<std::vector<double>>>(std::move(rows));
  std::lock_guard<std::mutex> lock(model_mutex_);
  rows_ = std::move(shared);
}

void ExplainService::set_default_model_path(std::string path) {
  std::lock_guard<std::mutex> lock(model_mutex_);
  default_model_path_ = std::move(path);
}

std::string ExplainService::status_section() const {
  std::shared_ptr<ModelEntry> entry;
  std::size_t rows = 0;
  {
    std::lock_guard<std::mutex> lock(model_mutex_);
    entry = model_;
    if (rows_) rows = rows_->size();
  }
  std::ostringstream os;
  if (!entry) {
    os << "model: (none installed)\n";
  } else {
    os << "model: generation " << entry->info.generation << ", fingerprint "
       << entry->info.fingerprint << ", source " << entry->info.source << ", "
       << entry->embedding_dim << "-dim, " << entry->model.num_concepts()
       << " concepts, " << rows << " rows\n";
  }
  const CacheStats cache = cache_.stats();
  os << "cache: " << cache.entries << "/" << cache.capacity << " entries ("
     << cache.shards << " shards), hits " << cache.hits << ", misses " << cache.misses
     << ", evictions " << cache.evictions << "\n";
  os << "batcher: max_batch " << options_.max_batch << ", linger "
     << options_.batch_linger_us << " us, queue " << options_.queue_capacity
     << ", deadline " << options_.request_deadline_ms << " ms\n";
  return os.str();
}

std::string ExplainService::index_lines() {
  return
      "  POST /explain       concept explanation for one input (docs/API.md)\n"
      "  GET  /modelz        installed model identity + serving counters\n"
      "  POST /reloadz       hot-swap the model from an archive file\n";
}

void ExplainService::mount(net::HttpServer& http) {
  http.handle("POST", "/explain",
              [this](const net::HttpRequest& r) { return handle_explain(r); });
  http.handle("GET", "/modelz",
              [this](const net::HttpRequest& r) { return handle_modelz(r); });
  http.handle("POST", "/reloadz",
              [this](const net::HttpRequest& r) { return handle_reloadz(r); });
  start();
}

void ExplainService::start() {
  if (mounted_.exchange(true, std::memory_order_acq_rel)) return;
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

void ExplainService::stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stop_) {
      // Already stopped; nothing left to join.
      if (!dispatcher_.joinable()) return;
    }
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // Anything still queued can never be served now.
  std::deque<std::shared_ptr<Pending>> leftovers;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    leftovers.swap(queue_);
  }
  for (const std::shared_ptr<Pending>& pending : leftovers) {
    fulfill(*pending, error_response(503, "shutting_down",
                                     "serving plane is shutting down"));
  }
}

std::optional<ModelInfo> ExplainService::model_info() const {
  std::lock_guard<std::mutex> lock(model_mutex_);
  if (!model_) return std::nullopt;
  return model_->info;
}

void ExplainService::fulfill(Pending& pending, net::HttpResponse response) {
  {
    std::lock_guard<std::mutex> lock(pending.mutex);
    pending.response = std::move(response);
    pending.done = true;
  }
  pending.cv.notify_all();
}

net::HttpResponse ExplainService::handle_explain(const net::HttpRequest& request) {
  // Activate the request's trace context for the whole handler: the
  // agua.serve.request span (and any span below it) lands in the per-trace
  // index, and its latency recording carries the trace id as an exemplar.
  const obs::TraceId trace{request.trace.trace_hi, request.trace.trace_lo};
  const obs::TraceContextScope trace_scope(trace);
  const std::int64_t begin_ns = obs::now_ns();
  net::HttpResponse response;
  {
    obs::TraceSpan span("agua.serve.request");
    response = handle_explain_inner(request, trace);
  }
  obs::slo_observe("/explain", static_cast<double>(obs::now_ns() - begin_ns) * 1e-9,
                   response.status);
  return response;
}

net::HttpResponse ExplainService::handle_explain_inner(const net::HttpRequest& request,
                                                       const obs::TraceId& trace) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
  metrics.counter("agua.serve.requests").add(1);
  const std::int64_t admit_ns = obs::now_ns();
  overload_.maybe_evaluate_brownout(admit_ns);

  // Rate limiting runs before any parsing: a flooding client must not buy
  // JSON parsing with requests that will be refused anyway.
  if (auto limited = overload_.check_rate_limit(request, admit_ns)) {
    return std::move(*limited);
  }

  const JsonParseResult parsed = json_parse(request.body);
  if (!parsed.ok) {
    return error_response(400, "bad_request", "malformed JSON: " + parsed.error);
  }
  if (!parsed.value.is_object()) {
    return error_response(400, "bad_request", "request body must be a JSON object");
  }

  // Snapshot the model + rows once; everything below works on this snapshot
  // even if a hot-swap lands mid-request.
  std::shared_ptr<ModelEntry> entry;
  std::shared_ptr<const std::vector<std::vector<double>>> rows;
  std::string previous_fingerprint;
  {
    std::lock_guard<std::mutex> lock(model_mutex_);
    entry = model_;
    rows = rows_;
    previous_fingerprint = previous_fingerprint_;
  }
  if (!entry) return error_response(503, "no_model", "no model installed");
  const std::size_t C = entry->model.num_concepts();

  // Resolve the input: inline features xor a datastore row id.
  const JsonValue* input = parsed.value.find("input");
  const JsonValue* row = parsed.value.find("row");
  if ((input == nullptr) == (row == nullptr)) {
    return error_response(400, "bad_request",
                          "provide exactly one of \"input\" or \"row\"");
  }
  std::vector<double> embedding;
  if (input != nullptr) {
    if (!input->is_array()) {
      return error_response(400, "bad_request", "\"input\" must be an array of numbers");
    }
    embedding.reserve(input->array.size());
    for (const JsonValue& v : input->array) {
      if (!v.is_number()) {
        return error_response(400, "bad_request",
                              "\"input\" must be an array of numbers");
      }
      embedding.push_back(v.number);
    }
  } else {
    std::size_t index = 0;
    if (!to_index(*row, index)) {
      return error_response(400, "bad_request", "\"row\" must be a non-negative integer");
    }
    if (!rows || index >= rows->size()) {
      return error_response(404, "not_found", "row id out of range");
    }
    embedding = (*rows)[index];
  }
  if (embedding.size() != entry->embedding_dim) {
    return error_response(400, "bad_request",
                          "input has " + std::to_string(embedding.size()) +
                              " features, model expects " +
                              std::to_string(entry->embedding_dim));
  }

  // Factual by default; "output_class" asks the counterfactual question.
  std::size_t output_class = kFactual;
  if (const JsonValue* target = parsed.value.find("output_class")) {
    if (!to_index(*target, output_class)) {
      return error_response(400, "bad_request",
                            "\"output_class\" must be a non-negative integer");
    }
    if (output_class >= entry->model.num_outputs()) {
      return error_response(400, "bad_request",
                            "\"output_class\" out of range (model has " +
                                std::to_string(entry->model.num_outputs()) +
                                " outputs)");
    }
  }
  std::size_t top_k = 5;
  if (const JsonValue* k = parsed.value.find("top_k")) {
    if (!to_index(*k, top_k) || top_k == 0) {
      return error_response(400, "bad_request", "\"top_k\" must be a positive integer");
    }
    if (top_k > C) top_k = C;
  }
  // Brownout tier >= 1 shrinks the answer to shed rendering + fan-out work;
  // the response says so via X-Agua-Degraded.
  const int tier = overload_.brownout_tier();
  if (tier >= 1) top_k = overload_.effective_top_k(top_k);

  // Cache key: exact bytes of everything the rendered body depends on. The
  // fingerprint-free suffix is kept separate so a brownout can re-probe the
  // cache under the pre-swap model's fingerprint.
  std::string suffix;
  suffix.reserve(32 + embedding.size() * sizeof(double));
  suffix += '\x1f';
  suffix += output_class == kFactual ? std::string("f") : "c" + std::to_string(output_class);
  suffix += '\x1f';
  suffix += std::to_string(top_k);
  suffix += '\x1f';
  suffix.append(reinterpret_cast<const char*>(embedding.data()),
                embedding.size() * sizeof(double));
  std::string key = entry->info.fingerprint + suffix;

  std::string cached_body;
  if (cache_.get(key, cached_body)) {
    metrics.counter("agua.serve.cache.hits").add(1);
    net::HttpResponse response = net::HttpResponse::json(200, std::move(cached_body));
    response.extra_headers.emplace_back("X-Agua-Cache", "hit");
    if (tier >= 1) {
      response.extra_headers.emplace_back("X-Agua-Degraded",
                                          "brownout-tier" + std::to_string(tier));
    }
    return response;
  }
  if (tier >= 1 && overload_.stale_allowed() && !previous_fingerprint.empty() &&
      cache_.get(previous_fingerprint + suffix, cached_body)) {
    // Degraded mode: an answer rendered by the pre-swap model is slightly
    // stale but well-formed, and serving it sheds a whole fan-out of work.
    metrics.counter("agua.serve.cache.hits").add(1);
    metrics.counter("agua.overload.stale_served").add(1);
    net::HttpResponse response = net::HttpResponse::json(200, std::move(cached_body));
    response.extra_headers.emplace_back("X-Agua-Cache", "hit");
    response.extra_headers.emplace_back(
        "X-Agua-Degraded", "brownout-tier" + std::to_string(tier) + ",stale");
    return response;
  }
  metrics.counter("agua.serve.cache.misses").add(1);

  // Overload gates, cheapest rejection first: CoDel shed while the queue has
  // a standing backlog, then the breaker while the fan-out is presumed sick.
  // Both run after the cache probes on purpose — cached answers stay
  // servable however overloaded the batcher is.
  bool queue_empty = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_empty = queue_.empty();
  }
  if (auto shed = overload_.check_admission(admit_ns, queue_empty)) {
    return std::move(*shed);
  }
  bool breaker_probe = false;
  if (auto open = overload_.check_breaker(admit_ns, breaker_probe)) {
    return std::move(*open);
  }

  auto pending = std::make_shared<Pending>();
  pending->embedding = std::move(embedding);
  pending->output_class = output_class;
  pending->top_k = top_k;
  pending->cache_key = std::move(key);
  pending->trace = trace;
  pending->enqueued = std::chrono::steady_clock::now();
  pending->deadline =
      pending->enqueued + std::chrono::milliseconds(options_.request_deadline_ms);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stop_) {
      if (breaker_probe) overload_.breaker().abort_probe();
      return error_response(503, "shutting_down", "serving plane is shutting down");
    }
    if (queue_.size() >= overload_.effective_queue_capacity(options_.queue_capacity)) {
      if (breaker_probe) overload_.breaker().abort_probe();
      metrics.counter("agua.serve.queue_full").add(1);
      return error_response(503, "queue_full", "admission queue full", 1000);
    }
    queue_.push_back(pending);
    metrics.gauge("agua.overload.queue_depth").set(static_cast<double>(queue_.size()));
  }
  queue_cv_.notify_all();

  std::unique_lock<std::mutex> lock(pending->mutex);
  if (!pending->cv.wait_until(lock, pending->deadline, [&] { return pending->done; })) {
    // The dispatcher may still render (and cache) this slot; only the
    // connection stops waiting.
    pending->abandoned.store(true, std::memory_order_relaxed);
    metrics.counter("agua.serve.deadline_expired").add(1);
    return error_response(408, "deadline_expired", "explanation deadline expired");
  }
  net::HttpResponse response = std::move(pending->response);
  if (response.status == 200 && tier >= 1) {
    response.extra_headers.emplace_back("X-Agua-Degraded",
                                        "brownout-tier" + std::to_string(tier));
  }
  return response;
}

net::HttpResponse ExplainService::handle_modelz(const net::HttpRequest&) {
  std::shared_ptr<ModelEntry> entry;
  std::size_t rows = 0;
  {
    std::lock_guard<std::mutex> lock(model_mutex_);
    entry = model_;
    if (rows_) rows = rows_->size();
  }
  if (!entry) return error_response(503, "no_model", "no model installed");
  const CacheStats cache = cache_.stats();
  std::ostringstream os;
  os << "{\"generation\":" << entry->info.generation << ",\"fingerprint\":\""
     << json_escape(entry->info.fingerprint) << "\",\"source\":\""
     << json_escape(entry->info.source) << "\",\"embedding_dim\":" << entry->embedding_dim
     << ",\"num_concepts\":" << entry->model.num_concepts()
     << ",\"num_levels\":" << entry->model.num_levels()
     << ",\"num_outputs\":" << entry->model.num_outputs() << ",\"rows\":" << rows
     << ",\"cache\":{\"hits\":" << cache.hits << ",\"misses\":" << cache.misses
     << ",\"evictions\":" << cache.evictions << ",\"entries\":" << cache.entries
     << ",\"capacity\":" << cache.capacity << ",\"shards\":" << cache.shards
     << "},\"batcher\":{\"max_batch\":" << options_.max_batch
     << ",\"linger_us\":" << options_.batch_linger_us
     << ",\"queue_capacity\":" << options_.queue_capacity
     << ",\"request_deadline_ms\":" << options_.request_deadline_ms << "}}\n";
  return net::HttpResponse::json(200, os.str());
}

net::HttpResponse ExplainService::handle_reloadz(const net::HttpRequest& request) {
  std::string path;
  if (!request.body.empty()) {
    const JsonParseResult parsed = json_parse(request.body);
    if (!parsed.ok) {
      return error_response(400, "bad_request", "malformed JSON: " + parsed.error);
    }
    if (!parsed.value.is_object()) {
      return error_response(400, "bad_request", "request body must be a JSON object");
    }
    if (const JsonValue* p = parsed.value.find("path")) {
      if (!p->is_string()) {
        return error_response(400, "bad_request", "\"path\" must be a string");
      }
      path = p->string;
    }
  }
  if (path.empty()) {
    std::lock_guard<std::mutex> lock(model_mutex_);
    path = default_model_path_;
  }
  if (path.empty()) {
    return error_response(400, "bad_request",
                          "no \"path\" given and no default model path configured");
  }
  core::LoadModelResult loaded = core::load_model_file_ex(path);
  if (!loaded) {
    obs::MetricsRegistry::instance().counter("agua.serve.reload_failures").add(1);
    const int status = loaded.error.code == core::LoadErrorCode::kIoError ? 404 : 500;
    return error_response(status, core::load_error_name(loaded.error.code),
                          loaded.error.detail);
  }
  const ModelInfo info = install_model(std::move(*loaded.model), path);
  obs::MetricsRegistry::instance().counter("agua.serve.reloads").add(1);
  std::ostringstream os;
  os << "{\"generation\":" << info.generation << ",\"fingerprint\":\""
     << json_escape(info.fingerprint) << "\",\"source\":\"" << json_escape(info.source)
     << "\"}\n";
  return net::HttpResponse::json(200, os.str());
}

void ExplainService::dispatcher_loop() {
  while (true) {
    std::vector<std::shared_ptr<Pending>> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;  // stop() flushes what's left
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      obs::MetricsRegistry::instance().gauge("agua.overload.queue_depth")
          .set(static_cast<double>(queue_.size()));
    }
    {
      // Feed CoDel the sojourn (admission → dequeue) of everything dequeued;
      // a standing backlog here is what turns admission shedding on.
      const auto now = std::chrono::steady_clock::now();
      overload_.on_dequeue(steady_us(now) - steady_us(batch.front()->enqueued),
                           steady_us(now));
    }
    if (collect_hook_) collect_hook_();
    bool deadline_close = false;
    if (batch.size() < options_.max_batch) {
      // Linger: trade a bounded sliver of latency for coalescing whatever
      // arrives in the window into one pool fan-out.
      std::unique_lock<std::mutex> lock(queue_mutex_);
      auto linger_end = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(options_.batch_linger_us);
      // Batch-aware deadline scheduling: never linger into the oldest
      // member's deadline — close early, leaving margin for the fan-out, so
      // a would-be 408 becomes a served response.
      const std::int64_t margin_us = options_.overload.deadline_margin_us;
      if (margin_us > 0) {
        const auto latest = batch.front()->deadline - std::chrono::microseconds(margin_us);
        if (latest < linger_end) {
          linger_end = latest;
          deadline_close = true;
        }
      }
      while (batch.size() < options_.max_batch && !stop_) {
        if (!queue_.empty()) {
          const auto now = std::chrono::steady_clock::now();
          overload_.on_dequeue(steady_us(now) - steady_us(queue_.front()->enqueued),
                               steady_us(now));
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
          obs::MetricsRegistry::instance().gauge("agua.overload.queue_depth")
              .set(static_cast<double>(queue_.size()));
          continue;
        }
        if (options_.batch_linger_us <= 0) break;
        if (queue_cv_.wait_until(lock, linger_end) == std::cv_status::timeout) {
          // Drain arrivals that raced the timeout, then close the batch.
          while (!queue_.empty() && batch.size() < options_.max_batch) {
            const auto now = std::chrono::steady_clock::now();
            overload_.on_dequeue(steady_us(now) - steady_us(queue_.front()->enqueued),
                                 steady_us(now));
            batch.push_back(std::move(queue_.front()));
            queue_.pop_front();
          }
          obs::MetricsRegistry::instance().gauge("agua.overload.queue_depth")
              .set(static_cast<double>(queue_.size()));
          break;
        }
      }
    }
    if (deadline_close) {
      obs::MetricsRegistry::instance().counter("agua.overload.deadline_close").add(1);
    }
    run_batch(batch);
  }
}

void ExplainService::run_batch(std::vector<std::shared_ptr<Pending>>& batch) {
  std::shared_ptr<ModelEntry> entry;
  {
    std::lock_guard<std::mutex> lock(model_mutex_);
    entry = model_;
  }
  if (!entry) {
    for (const std::shared_ptr<Pending>& pending : batch) {
      fulfill(*pending, error_response(503, "no_model", "no model installed"));
    }
    return;
  }
  if (batch_hook_) batch_hook_(batch.size());

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
  std::vector<net::HttpResponse> responses(batch.size());
  {
    obs::TraceSpan span("agua.serve.batch");
    metrics.counter("agua.serve.batches").add(1);
    metrics.histogram("agua.serve.batch.size").record(static_cast<double>(batch.size()));

    std::vector<std::vector<double>> embeddings;
    std::vector<std::size_t> classes;
    embeddings.reserve(batch.size());
    classes.reserve(batch.size());
    for (const std::shared_ptr<Pending>& pending : batch) {
      embeddings.push_back(pending->embedding);
      classes.push_back(pending->output_class);
      // The shared batch execution span belongs to every member's trace — a
      // /tracez?trace=ID view shows both the request's own span (connection
      // thread) and the batch it rode in (dispatcher thread).
      span.annotate_trace(pending->trace);
    }
    // Only this thread runs forward passes on the entry's model (see the
    // threading contract in service.hpp); a concurrent /reloadz swaps the
    // shared_ptr but never touches this one.
    // A throwing fan-out (resource exhaustion, poisoned model) fails the
    // whole batch — each member counts against the circuit breaker.
    core::EachExplainResult each;
    bool fanout_threw = false;
    try {
      each = core::explain_each_isolated(entry->model, embeddings, classes);
    } catch (const std::exception& e) {
      fanout_threw = true;
      metrics.counter("agua.serve.errors").add(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        responses[i] = error_response(500, "explain_failed",
                                      std::string("explanation backend threw: ") +
                                          e.what());
      }
    } catch (...) {
      fanout_threw = true;
      metrics.counter("agua.serve.errors").add(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        responses[i] = error_response(500, "explain_failed", "explanation backend threw");
      }
    }

    if (!fanout_threw) {
      // Per-slot error messages, recovered in index order.
      std::vector<const std::string*> slot_error(batch.size(), nullptr);
      for (const core::SlotError& e : each.errors) {
        if (e.index < slot_error.size()) slot_error[e.index] = &e.message;
      }

      for (std::size_t i = 0; i < batch.size(); ++i) {
        const Pending& pending = *batch[i];
        if (!each.ok[i]) {
          metrics.counter("agua.serve.errors").add(1);
          const std::string message = slot_error[i] ? *slot_error[i] : "explanation failed";
          // Poisoned input is the client's fault; anything else is ours.
          const bool client_fault = message == "non-finite embedding";
          responses[i] = error_response(client_fault ? 400 : 500,
                                        client_fault ? "bad_request" : "explain_failed",
                                        message);
          continue;
        }
        std::string body = render_explanation(each.slots[i], entry->info, pending.top_k);
        // Cache even when the requester already gave up (408): the work is done,
        // the next identical request should hit.
        if (cache_.put(pending.cache_key, body)) {
          metrics.counter("agua.serve.cache.evictions").add(1);
        }
        responses[i] = net::HttpResponse::json(200, std::move(body));
        responses[i].extra_headers.emplace_back("X-Agua-Cache", "miss");
      }
    }
  }
  // Circuit-breaker bookkeeping: a 5xx or an abandoned (timed-out) member is
  // evidence the fan-out is sick; anything else is evidence it is healthy.
  {
    const std::int64_t now_ns = obs::now_ns();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const bool failure = responses[i].status >= 500 ||
                           batch[i]->abandoned.load(std::memory_order_relaxed);
      overload_.record_outcome(failure, now_ns);
    }
  }
  // The batch span closes — and lands in every member's trace index — before
  // any response is released. A client that has its response in hand can
  // always find the batch it rode in at /tracez?trace=ID.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    fulfill(*batch[i], std::move(responses[i]));
  }
}

}  // namespace agua::serve
