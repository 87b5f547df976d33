// The two loopback POST /explain workloads.
//
// The server is what `agua_cli --serve` runs: an ExplainService with default
// options mounted on a TelemetryServer with 4 connection threads, serving an
// ABR surrogate trained at the CLI's --tiny scale, with the test split as
// addressable rows. The load generator lives in the same process (so a traced
// run can read obs::spans_for_trace right after each response); it uses at
// most 4 threads, each holding at most one connection, through net's blocking
// http_request client.
//
// serve_sparse: open loop, Poisson arrivals at 200 req/s, every input unique
// and factual. Each request is timed from its scheduled send time; a run whose
// generator falls behind its schedule stops without reporting numbers.
//
// serve_mixed: closed loop, 4 clients. Keys are Zipf(1.0) over 4096 distinct
// inputs (4x the default cache capacity); 70% factual, 20% counterfactual,
// 10% by row id. Every 8192 requests one client POSTs /reloadz, alternating
// between two archives with different fingerprints.
//
// Output checks on both: a response fails unless it is a 200 that parses; a
// 200 also fails if its body, ignoring "generation", differs from the first
// body seen for the same (fingerprint, request); and every 16th miss is
// recomputed in process on the same archive and compared field by field.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/explain.hpp"
#include "core/model_io.hpp"
#include "net/http.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/trace.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"

namespace agua::perfbench {
namespace {

constexpr std::uint64_t kSecondArchiveSalt = 0x5EED;
constexpr std::size_t kClients = 4;
constexpr int kTimeoutMs = 5000;           // client budget; a failure counts as this late
constexpr double kWarmupSeconds = 0.5;     // unmeasured phase before each measured one
constexpr double kSparseRate = 200.0;      // serve_sparse arrivals per second
// The open-loop generator has fallen behind its schedule when its median send
// is this late, or 1% of sends are 10x later (a stall of many arrivals).
constexpr double kMaxLateP50Us = 1000.0;
constexpr double kMaxLateP99Us = 10000.0;
// Latency percentiles are taken per window of the phase and the best window
// is reported: the host's contention comes in episodes that slow a vCPU by up
// to 1.7x, and the best window is the code's cost outside them. Each window
// holds about 1000 requests, 10 beyond its p99.
constexpr double kSparseWindowSeconds = 5.0;
constexpr double kMixedWindowSeconds = 1.0;
constexpr std::size_t kMixedKeys = 4096;
constexpr std::uint64_t kReloadEvery = 8192;
constexpr std::uint64_t kRecomputeEvery = 16;  // misses between in-process recomputes
constexpr std::size_t kTopK = 5;               // the service's default top_k
constexpr std::size_t kFactual = static_cast<std::size_t>(-1);

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  char number[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(number, sizeof number, "%.17g", values[i]);
    if (i > 0) out += ',';
    out += number;
  }
  return out + "]";
}

std::string hex(std::uint64_t value, int digits) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%0*llx", digits, static_cast<unsigned long long>(value));
  return buf;
}

/// The rendered body with its "generation" member removed.
std::string without_generation(const std::string& body) {
  static const std::string kKey = ",\"generation\":";
  const std::size_t at = body.find(kKey);
  if (at == std::string::npos) return body;
  std::size_t end = at + kKey.size();
  while (end < body.size() && body[end] >= '0' && body[end] <= '9') ++end;
  return body.substr(0, at) + body.substr(end);
}

bool number_is(const serve::JsonValue& object, const char* key, double expected) {
  const serve::JsonValue* v = object.find(key);
  return v != nullptr && v->is_number() && v->number == expected;
}

bool string_is(const serve::JsonValue& object, const char* key, const std::string& expected) {
  const serve::JsonValue* v = object.find(key);
  return v != nullptr && v->is_string() && v->string == expected;
}

/// Field-by-field comparison of a rendered /explain body with an explanation
/// computed in process.
bool same_explanation(const serve::JsonValue& body, const core::Explanation& e) {
  static const char* const kLevels[] = {"low", "medium", "high"};
  if (!number_is(body, "output_class", static_cast<double>(e.output_class)) ||
      !number_is(body, "predicted_class", static_cast<double>(e.predicted_class)) ||
      !number_is(body, "output_probability", e.output_probability)) {
    return false;
  }
  const serve::JsonValue* top = body.find("top");
  const std::vector<std::size_t> expected_top =
      e.top_concepts(std::min(kTopK, e.concept_weights.size()));
  if (top == nullptr || !top->is_array() || top->array.size() != expected_top.size()) {
    return false;
  }
  for (std::size_t i = 0; i < expected_top.size(); ++i) {
    const serve::JsonValue& entry = top->array[i];
    const std::size_t c = expected_top[i];
    if (!number_is(entry, "concept", static_cast<double>(c)) ||
        !string_is(entry, "name", e.concept_names[c]) ||
        !number_is(entry, "weight", e.concept_weights[c]) ||
        !number_is(entry, "signed_contribution", e.signed_concept_contributions[c]) ||
        !string_is(entry, "dominant_level", kLevels[std::min<std::size_t>(
                                                e.dominant_levels[c], 2)])) {
      return false;
    }
  }
  const serve::JsonValue* weights = body.find("concept_weights");
  if (weights == nullptr || !weights->is_array() ||
      weights->array.size() != e.concept_weights.size()) {
    return false;
  }
  for (std::size_t c = 0; c < e.concept_weights.size(); ++c) {
    const serve::JsonValue& w = weights->array[c];
    if (!w.is_number() || w.number != e.concept_weights[c]) return false;
  }
  return true;
}

/// One /explain request as the load generator sends it.
struct Request {
  std::string body;
  std::string id;  ///< request identity for the repeated-body check
  const std::vector<double>* embedding = nullptr;  ///< input, for recomputing
  std::size_t output_class = kFactual;
};

/// What the clients observed during one phase.
struct LoadLog {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;  ///< 429 / 503 / 408 answers (also failed)
  std::uint64_t wrong = 0;    ///< failed output checks (also failed)
  std::uint64_t misses = 0;
  std::uint64_t reloads = 0;
  std::uint64_t reload_failed = 0;
  std::vector<double> latency_us;    ///< /explain, from the scheduled send time
  std::vector<double> latency_at_s;  ///< scheduled send, seconds into the phase
  std::vector<double> late_us;       ///< send time minus scheduled send time
  std::vector<double> handler_us;    ///< agua.serve.request span (traced runs)
  std::vector<double> wait_us;       ///< request span start → batch span start
  std::vector<double> batch_us;      ///< agua.serve.batch span
  std::vector<double> transport_us;  ///< client round trip minus handler
  std::vector<double> reload_ms;

  void merge(const LoadLog& other) {
    sent += other.sent;
    ok += other.ok;
    failed += other.failed;
    refused += other.refused;
    wrong += other.wrong;
    misses += other.misses;
    reloads += other.reloads;
    reload_failed += other.reload_failed;
    for (auto [into, from] :
         {std::pair{&latency_us, &other.latency_us},
          std::pair{&latency_at_s, &other.latency_at_s}, std::pair{&late_us, &other.late_us},
          std::pair{&handler_us, &other.handler_us}, std::pair{&wait_us, &other.wait_us},
          std::pair{&batch_us, &other.batch_us},
          std::pair{&transport_us, &other.transport_us},
          std::pair{&reload_ms, &other.reload_ms}}) {
      into->insert(into->end(), from->begin(), from->end());
    }
  }
};

/// The lowest p-th latency percentile over the phase's windows.
double best_window_percentile(const LoadLog& log, double seconds, double window_s, double p) {
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / window_s));
  const double width = seconds / static_cast<double>(windows);
  std::vector<std::vector<double>> by_window(windows);
  for (std::size_t i = 0; i < log.latency_us.size(); ++i) {
    const std::size_t w = std::min(
        windows - 1, static_cast<std::size_t>(std::max(0.0, log.latency_at_s[i]) / width));
    by_window[w].push_back(log.latency_us[i]);
  }
  double best = 0.0;
  bool any = false;
  for (const std::vector<double>& window : by_window) {
    if (window.empty()) continue;
    const double value = percentile(window, p);
    best = any ? std::min(best, value) : value;
    any = true;
  }
  return best;
}

/// One load-generator thread's state across phases: its own copy of each
/// archive (forward passes mutate a model, so clients never share one) and
/// its request stream.
struct Client {
  std::vector<std::pair<std::string, core::AguaModel>> models;  ///< by fingerprint
  common::Rng rng;
  LoadLog log;

  core::AguaModel* model_for(const std::string& fingerprint) {
    for (auto& [fp, model] : models) {
      if (fp == fingerprint) return &model;
    }
    return nullptr;
  }
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(const Args& args, bool mixed) : Workload(args), mixed_(mixed) {}

  void set_up() override {
    server_.reset();  // stop the transport before the service it calls
    service_.reset();
    obs::event_log().set_enabled(true);  // agua_cli --serve records events too

    bundle_ = make_bundle_timed(kModelSeed, bundle_s_);
    rows_ = test_rows(bundle_);
    spreads_ = feature_spreads(rows_);

    // Three timed trainings per set-up (the first archive twice) for pipeline_s.
    const std::uint64_t salts[2] = {kTrainSalt, kTrainSalt ^ kSecondArchiveSalt};
    for (int i = 0; i < 2; ++i) {
      TinySurrogate surrogate =
          train_tiny_surrogate(bundle_, kModelSeed ^ salts[i], i == 0 ? 2 : 1, pipeline_s_);
      if (i == 0) fidelity_ = surrogate.fidelity;
      archive_[i] = args_.work_dir + "/surrogate_" + std::to_string(i) + ".agua";
      if (!core::save_model_file(archive_[i], *surrogate.model)) {
        throw std::runtime_error("cannot write " + archive_[i]);
      }
      fingerprint_[i] = core::model_fingerprint(*surrogate.model);
    }
    if (fingerprint_[0] == fingerprint_[1]) {
      throw std::runtime_error("the two archives share a fingerprint");
    }

    clients_.clear();
    for (std::size_t t = 0; t < kClients; ++t) {
      Client client{{}, common::Rng(splitmix64(args_.seed ^ (0xC11E47ULL + t))), {}};
      for (int i = 0; i < 2; ++i) client.models.emplace_back(fingerprint_[i], load(i));
      clients_.push_back(std::move(client));
    }
    if (mixed_) build_key_space();

    service_ = std::make_unique<serve::ExplainService>(serve::ExplainServiceOptions{});
    server_ = std::make_unique<obs::TelemetryServer>(
        obs::TelemetryOptions{.connection_threads = kClients,
                              .extra_index = serve::ExplainService::index_lines()});
    service_->mount(server_->http());
    if (!server_->start()) {
      throw std::runtime_error("cannot start the server: " + server_->last_error());
    }
    service_->set_rows(rows_);
    service_->install_model(load(0), archive_[0]);
    reloads_ = 0;
    explained_ = 0;
  }

  Phase measure(double seconds, bool traced) override {
    obs::set_trace_enabled(traced);
    report("warm-up", run_load(kWarmupSeconds, traced));

    obs::MetricsRegistry::instance().reset();
    const net::HttpServerStats before = server_->http().stats();
    const Clock::time_point begin = Clock::now();
    const LoadLog log = run_load(seconds, traced);
    const double elapsed = seconds_between(begin, Clock::now());
    const net::HttpServerStats after = server_->http().stats();
    report("measure", log);
    obs::set_trace_enabled(false);
    obs::clear_spans();

    const double late_p99 = percentile(log.late_us, 99.0);
    if (!mixed_ && (percentile(log.late_us, 50.0) > kMaxLateP50Us || late_p99 > kMaxLateP99Us)) {
      throw std::runtime_error("the open-loop generator fell behind its schedule (late p99 " +
                               std::to_string(late_p99) + " us); no numbers reported");
    }

    Phase phase;
    phase.attempted = log.sent + log.reloads;
    phase.failed = log.failed + log.reload_failed;
    phase.correct = log.wrong == 0;
    auto& v = phase.values;
    v["pipeline_s"] = *std::min_element(pipeline_s_.begin(), pipeline_s_.end());
    v["fidelity"] = fidelity_;
    v["explanations_per_s"] = static_cast<double>(log.ok) / elapsed;
    const double window_s = mixed_ ? kMixedWindowSeconds : kSparseWindowSeconds;
    v["explain_p50_us"] = best_window_percentile(log, seconds, window_s, 50.0);
    v["explain_p99_us"] = best_window_percentile(log, seconds, window_s, 99.0);

    obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
    const double hits = static_cast<double>(metrics.counter("agua.serve.cache.hits").value());
    const double misses =
        static_cast<double>(metrics.counter("agua.serve.cache.misses").value());
    v["apps.bundle_s"] = median(bundle_s_);
    v["serve.handler_us.p50"] = percentile(log.handler_us, 50.0);
    v["serve.handler_us.p99"] = percentile(log.handler_us, 99.0);
    v["serve.wait_us.p50"] = percentile(log.wait_us, 50.0);
    v["serve.wait_us.p99"] = percentile(log.wait_us, 99.0);
    v["serve.batch_us.p50"] = percentile(log.batch_us, 50.0);
    v["serve.batch_us.p99"] = percentile(log.batch_us, 99.0);
    v["net.transport_us"] = percentile(log.transport_us, 50.0);
    v["serve.batch_size_mean"] = metrics.histogram("agua.serve.batch.size").snapshot().mean();
    v["serve.sojourn_p99_us"] = metrics.histogram("agua.overload.sojourn").snapshot().p99() * 1e6;
    v["serve.cache_hit_share"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    v["serve.cache_evictions"] =
        static_cast<double>(metrics.counter("agua.serve.cache.evictions").value());
    v["serve.reload_ms"] = percentile(log.reload_ms, 50.0);
    v["serve.refused"] = static_cast<double>(log.refused);
    v["net.rejected"] = static_cast<double>(after.rejected - before.rejected);
    v["net.write_errors"] = static_cast<double>(after.write_errors - before.write_errors);
    // Pool work the server's batches fan out, per second of load.
    v["common.pool.tasks"] =
        static_cast<double>(metrics.counter("agua.pool.tasks").value()) / elapsed;
    v["common.pool.explain_batch_ms"] =
        metrics.histogram("agua.pool.explain_batch").snapshot().sum * 1e3 / elapsed;
    v["loadgen.sent"] = static_cast<double>(log.sent);
    v["loadgen.ok"] = static_cast<double>(log.ok);
    v["loadgen.failed"] = static_cast<double>(log.failed);
    v["loadgen.late_p99_us"] = late_p99;
    return phase;
  }

  std::string headline() const override {
    return mixed_ ? "explanations_per_s" : "explain_p50_us";
  }
  bool headline_higher_is_better() const override { return mixed_; }

 private:
  core::AguaModel load(int archive) const {
    std::optional<core::AguaModel> model = core::load_model_file(archive_[archive]);
    if (!model) throw std::runtime_error("cannot load " + archive_[archive]);
    return std::move(*model);
  }

  void build_key_space() {
    keys_.clear();
    key_json_.clear();
    for (std::size_t k = 0; k < kMixedKeys; ++k) {
      keys_.push_back(noisy_input(rows_, spreads_, args_.seed, k));
      key_json_.push_back(json_array(keys_.back()));
    }
    // Zipf(s = 1): P(rank k) ∝ 1 / (k + 1).
    zipf_cdf_.assign(kMixedKeys, 0.0);
    double total = 0.0;
    for (std::size_t k = 0; k < kMixedKeys; ++k) {
      total += 1.0 / static_cast<double>(k + 1);
      zipf_cdf_[k] = total;
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  /// serve_mixed: the next request of a client's stream.
  Request next_mixed(common::Rng& rng) const {
    const std::size_t key = std::min<std::size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), rng.uniform()) -
            zipf_cdf_.begin(),
        kMixedKeys - 1);
    const double kind = rng.uniform();
    Request r;
    if (kind < 0.7) {
      r.body = "{\"input\":" + key_json_[key] + "}";
      r.id = "f" + std::to_string(key);
      r.embedding = &keys_[key];
    } else if (kind < 0.9) {
      const std::size_t classes = bundle_.test.num_outputs;
      r.output_class =
          std::min(static_cast<std::size_t>(rng.uniform() * static_cast<double>(classes)),
                   classes - 1);
      r.body = "{\"input\":" + key_json_[key] +
               ",\"output_class\":" + std::to_string(r.output_class) + "}";
      r.id = "c" + std::to_string(r.output_class) + ":" + std::to_string(key);
      r.embedding = &keys_[key];
    } else {
      const std::size_t row = key % rows_.size();
      r.body = "{\"row\":" + std::to_string(row) + "}";
      r.id = "r" + std::to_string(row);
      r.embedding = &rows_[row];
    }
    return r;
  }

  LoadLog run_load(double seconds, bool traced) {
    for (Client& client : clients_) client.log = LoadLog{};
    if (mixed_) {
      phase_start_ = Clock::now();
      run_clients([&](Client& client) { closed_loop(client, seconds, traced); });
    } else {
      run_open_loop(seconds, traced);
    }
    LoadLog total;
    for (const Client& client : clients_) total.merge(client.log);
    return total;
  }

  /// Run `body` once per client on its own thread; rethrows the first error.
  template <typename Fn>
  void run_clients(Fn body) {
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(clients_.size());
    for (std::size_t t = 0; t < clients_.size(); ++t) {
      threads.emplace_back([&, t] {
        try {
          body(clients_[t]);
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }

  void closed_loop(Client& client, double seconds, bool traced) {
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    while (Clock::now() < end) {
      if (explained_.fetch_add(1) % kReloadEvery == kReloadEvery - 1) reload(client);
      const Request request = next_mixed(client.rng);
      exchange(client, request, Clock::now(), traced);
    }
  }

  void run_open_loop(double seconds, bool traced) {
    // Poisson schedule and unique inputs, both from the seed; inputs never
    // repeat across phases, so the cache never hits.
    common::Rng schedule_rng(splitmix64(args_.seed ^ 0x5C4EDULL ^ next_sparse_key_));
    std::vector<double> offsets_s;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - schedule_rng.uniform()) / kSparseRate;
      if (t >= seconds) break;
      offsets_s.push_back(t);
    }
    std::vector<std::vector<double>> inputs;
    std::vector<Request> requests(offsets_s.size());
    inputs.reserve(offsets_s.size());
    for (std::size_t i = 0; i < offsets_s.size(); ++i) {
      const std::uint64_t key = next_sparse_key_++;
      inputs.push_back(noisy_input(rows_, spreads_, args_.seed, key));
      requests[i].body = "{\"input\":" + json_array(inputs.back()) + "}";
      requests[i].id = "s" + std::to_string(key);
      requests[i].embedding = &inputs.back();
    }
    phase_start_ = Clock::now() + std::chrono::milliseconds(10);
    std::atomic<std::size_t> next{0};
    run_clients([&](Client& client) {
      for (std::size_t i = next.fetch_add(1); i < requests.size(); i = next.fetch_add(1)) {
        const Clock::time_point due =
            phase_start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(offsets_s[i]));
        std::this_thread::sleep_until(due);
        exchange(client, requests[i], due, traced);
      }
    });
  }

  enum class Verdict { kOk, kFailed, kRefused, kWrong };

  /// Send one request, check the answer and record what was seen.
  void exchange(Client& client, const Request& request, Clock::time_point due, bool traced) {
    LoadLog& log = client.log;
    std::vector<std::pair<std::string, std::string>> headers;
    obs::TraceId trace;
    if (traced) {
      trace = {splitmix64(args_.seed ^ 0x7BACEULL), splitmix64(next_trace_++) | 1};
      headers.emplace_back("traceparent",
                           "00-" + trace.hex() + "-" + hex(trace.lo ^ trace.hi, 16) + "-01");
    }
    const Clock::time_point sent = Clock::now();
    net::HttpClientResponse response;
    const bool delivered =
        net::http_request("POST", "127.0.0.1", server_->http().port(), "/explain", response,
                          kTimeoutMs, request.body, "application/json", headers);
    const Clock::time_point done = Clock::now();
    ++log.sent;
    log.late_us.push_back(std::max(0.0, seconds_between(due, sent) * 1e6));
    log.latency_at_s.push_back(seconds_between(phase_start_, due));

    const Verdict verdict = delivered ? check(client, request, response) : Verdict::kFailed;
    if (verdict == Verdict::kOk) {
      ++log.ok;
      log.latency_us.push_back(seconds_between(due, done) * 1e6);
    } else {
      ++log.failed;
      if (verdict == Verdict::kRefused) ++log.refused;
      if (verdict == Verdict::kWrong) ++log.wrong;
      log.latency_us.push_back(kTimeoutMs * 1e3);  // a failure misses any latency limit
      if (log.failed <= 5) {
        std::fprintf(stderr, "request %s failed: status %d\n", request.id.c_str(),
                     response.status);
      }
    }
    if (traced && verdict == Verdict::kOk) {
      record_trace(log, trace, seconds_between(sent, done) * 1e6);
    }
  }

  Verdict check(Client& client, const Request& request,
                const net::HttpClientResponse& response) {
    if (response.status == 429 || response.status == 503 || response.status == 408) {
      return Verdict::kRefused;
    }
    if (response.status != 200) return Verdict::kFailed;
    const serve::JsonParseResult parsed = serve::json_parse(response.body);
    const serve::JsonValue* fingerprint = parsed.ok ? parsed.value.find("fingerprint") : nullptr;
    if (fingerprint == nullptr || !fingerprint->is_string()) return Verdict::kWrong;

    const std::string stripped = without_generation(response.body);
    const std::uint64_t body_hash = fnv1a(stripped.data(), stripped.size());
    {
      std::lock_guard<std::mutex> lock(bodies_mutex_);
      const auto [it, inserted] =
          first_bodies_.emplace(fingerprint->string + "|" + request.id, body_hash);
      if (!inserted && it->second != body_hash) return Verdict::kWrong;
    }

    if (response.header("x-agua-cache") == "miss" &&
        client.log.misses++ % kRecomputeEvery == 0) {
      core::AguaModel* model = client.model_for(fingerprint->string);
      if (model == nullptr) return Verdict::kWrong;
      const core::Explanation expected =
          request.output_class == kFactual
              ? core::explain_factual(*model, *request.embedding)
              : core::explain_for_class(*model, *request.embedding, request.output_class);
      if (!same_explanation(parsed.value, expected)) return Verdict::kWrong;
    }
    return Verdict::kOk;
  }

  /// Per-layer split of one traced request, from the per-trace span index.
  static void record_trace(LoadLog& log, const obs::TraceId& trace, double round_trip_us) {
    const obs::SpanRecord* request_span = nullptr;
    const obs::SpanRecord* batch_span = nullptr;
    const std::vector<obs::SpanRecord> spans = obs::spans_for_trace(trace);
    for (const obs::SpanRecord& span : spans) {
      if (span.name == "agua.serve.request") request_span = &span;
      if (span.name == "agua.serve.batch") batch_span = &span;
    }
    if (request_span == nullptr) return;
    const double handler_us =
        static_cast<double>(request_span->end_ns - request_span->begin_ns) * 1e-3;
    log.handler_us.push_back(handler_us);
    log.transport_us.push_back(round_trip_us - handler_us);
    if (batch_span != nullptr) {
      log.wait_us.push_back(static_cast<double>(batch_span->begin_ns - request_span->begin_ns) *
                            1e-3);
      log.batch_us.push_back(static_cast<double>(batch_span->end_ns - batch_span->begin_ns) *
                             1e-3);
    }
  }

  /// POST /reloadz to the archive not installed now, timed; checks the answer.
  void reload(Client& client) {
    const int target = reloads_.fetch_add(1) % 2 == 0 ? 1 : 0;
    net::HttpClientResponse response;
    const Clock::time_point begin = Clock::now();
    const bool delivered =
        net::http_request("POST", "127.0.0.1", server_->http().port(), "/reloadz", response,
                          kTimeoutMs, "{\"path\":\"" + archive_[target] + "\"}");
    client.log.reload_ms.push_back(seconds_between(begin, Clock::now()) * 1e3);
    ++client.log.reloads;
    const serve::JsonParseResult parsed = serve::json_parse(response.body);
    const serve::JsonValue* fingerprint =
        delivered && parsed.ok ? parsed.value.find("fingerprint") : nullptr;
    if (response.status != 200 || fingerprint == nullptr || !fingerprint->is_string() ||
        fingerprint->string != fingerprint_[target]) {
      ++client.log.reload_failed;
      ++client.log.wrong;
      std::fprintf(stderr, "reload to %s failed: status %d\n", archive_[target].c_str(),
                   response.status);
    }
  }

  void report(const char* phase, const LoadLog& log) const {
    std::fprintf(stderr,
                 "%s %s: sent %llu ok %llu failed %llu (refused %llu, wrong %llu), "
                 "reloads %llu, late p99 %.1f us, p50 %.1f us\n",
                 args_.workload.c_str(), phase, static_cast<unsigned long long>(log.sent),
                 static_cast<unsigned long long>(log.ok),
                 static_cast<unsigned long long>(log.failed),
                 static_cast<unsigned long long>(log.refused),
                 static_cast<unsigned long long>(log.wrong),
                 static_cast<unsigned long long>(log.reloads), percentile(log.late_us, 99.0),
                 percentile(log.latency_us, 50.0));
  }

  const bool mixed_;
  apps::AbrBundle bundle_;
  std::vector<double> bundle_s_;
  std::vector<double> pipeline_s_;
  double fidelity_ = 0.0;
  std::string archive_[2];
  std::string fingerprint_[2];
  std::vector<std::vector<double>> rows_;
  std::vector<double> spreads_;
  std::vector<Client> clients_;

  // serve_mixed key space.
  std::vector<std::vector<double>> keys_;
  std::vector<std::string> key_json_;
  std::vector<double> zipf_cdf_;

  Clock::time_point phase_start_;            ///< start of the current load phase
  std::uint64_t next_sparse_key_ = 0;        ///< serve_sparse inputs never repeat
  std::atomic<std::uint64_t> next_trace_{1};
  std::atomic<std::uint64_t> explained_{0};  ///< serve_mixed requests, for reloads
  std::atomic<std::uint64_t> reloads_{0};

  std::mutex bodies_mutex_;
  std::unordered_map<std::string, std::uint64_t> first_bodies_;  // guarded by bodies_mutex_

  // The service outlives the server that calls into it.
  std::unique_ptr<serve::ExplainService> service_;
  std::unique_ptr<obs::TelemetryServer> server_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_sparse(const Args& args) {
  return std::make_unique<ServeWorkload>(args, false);
}

std::unique_ptr<Workload> make_serve_mixed(const Args& args) {
  return std::make_unique<ServeWorkload>(args, true);
}

}  // namespace agua::perfbench
