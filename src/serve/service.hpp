// The explanation serving plane (DESIGN.md §6 "Endpoints", §8 degradation):
// mounts three handlers on the process's telemetry HttpServer —
//
//   POST /explain   explain one input (features or datastore row id,
//                   factual or counterfactual) and return the concept
//                   attribution as JSON
//   GET  /modelz    identity + health of the installed model: fingerprint,
//                   generation, source, cache + batcher counters
//   POST /reloadz   re-read a model archive via load_model_file_ex and swap
//                   it in atomically (RCU-style shared_ptr: in-flight
//                   batches finish on the model they started with)
//
// Shape of the data path: connection workers parse + validate requests and
// push misses into a bounded admission queue; a single dispatcher thread
// pops, lingers for more arrivals only while other admitted misses are in
// flight (a lone miss is explained at once), snapshots the current model
// once per batch, and runs core::explain_each_isolated — one pool fan-out
// per coalesced batch. Each request then gets its own rendered slot back.
// Per-request degradation reuses the net-layer status grammar: queue full →
// 503, deadline expired while queued/batched → 408, no model installed → 503.
//
// Caching: rendered responses are stored in a sharded LRU keyed by
// (model fingerprint, request kind/target class, raw input bytes). A hit is
// served directly on the connection worker — byte-identical body, no queue,
// no model touch — and announced via the `X-Agua-Cache: hit|miss` response
// header; the body is a pure function of (fingerprint, request), so repeats
// compare equal byte-for-byte, and the generation rides `X-Agua-Generation`.
// Fingerprint keying makes a hot-swap invalidate the cache for free.
//
// Threading contract: only the dispatcher thread runs forward passes on the
// installed AguaModel instance, and the shared_ptr swap needs no model-level
// locking — handlers read entry metadata only, and an in-flight batch keeps
// its entry alive through its own shared_ptr. Inference is const
// (nn::Module::infer), so the dispatcher-only rule and the per-worker clones
// of explain_each_isolated are no longer needed for safety. They stay until
// ROADMAP item 1's harness fix lets their removal be measured: removing them
// raised serve_mixed's peak RSS, which the harness inflates per request.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.hpp"
#include "core/surrogate.hpp"
#include "net/http.hpp"
#include "obs/trace.hpp"
#include "serve/cache.hpp"
#include "serve/overload.hpp"

namespace agua::serve {

struct ExplainServiceOptions {
  /// Micro-batcher: a batch closes at `max_batch` requests, once no other
  /// admitted miss is in flight to join it, or after `batch_linger_us`
  /// microseconds past the first request, whichever comes first. linger 0
  /// disables coalescing (each request is its own batch).
  std::size_t max_batch = 16;
  std::int64_t batch_linger_us = 500;
  /// Admission queue bound; arrivals beyond it are answered 503 immediately.
  std::size_t queue_capacity = 256;
  /// Wall-clock budget for one request from admission to rendered response;
  /// an overrun answers 408 and the eventual result (still computed and
  /// cached) is discarded.
  int request_deadline_ms = 2000;
  /// Result cache budget in entries (0 disables caching) and shard count.
  std::size_t cache_capacity = 1024;
  std::size_t cache_shards = 8;
  /// Overload-control plane (serve/overload.hpp): CoDel admission, per-client
  /// rate limiting, circuit breaking, SLO brownout, deadline-aware batching.
  OverloadOptions overload;
};

/// Identity of the installed model, as reported by /modelz.
struct ModelInfo {
  std::uint64_t generation = 0;  ///< bumps on every install/reload
  std::string fingerprint;       ///< core::model_fingerprint of the archive
  std::string source;            ///< provenance label, e.g. a file path
};

class ExplainService {
 public:
  explicit ExplainService(ExplainServiceOptions options = {});
  ~ExplainService();

  ExplainService(const ExplainService&) = delete;
  ExplainService& operator=(const ExplainService&) = delete;

  /// Install (or hot-swap) the model the plane serves from. Safe at any
  /// time, including while batches are in flight — they finish on the entry
  /// they snapshotted. `source` is a provenance label for /modelz.
  /// Returns the new generation's info.
  ModelInfo install_model(core::AguaModel model, std::string source);

  /// Rows addressable as {"row": N} in /explain requests (e.g. the test
  /// split's embeddings). Swapped atomically like the model.
  void set_rows(std::vector<std::vector<double>> rows);

  /// Default archive path for a /reloadz request with no "path" member
  /// (e.g. the --model-out the CLI just wrote).
  void set_default_model_path(std::string path);

  /// Register POST /explain, GET /modelz, POST /reloadz on `http` and start
  /// the dispatcher thread. Must run before http.start(); call stop()
  /// (or destroy the service) only after the HTTP server stopped, so no
  /// handler can touch a dead dispatcher.
  void mount(net::HttpServer& http);

  /// Start the dispatcher without mounting any handlers. mount() implies
  /// this; benchmarks use it to drive explain_http() with no server.
  void start();

  /// Run one request through the exact POST /explain path the mounted
  /// handler uses (admission, cache, batcher, rendering) — minus the HTTP
  /// transport. Requires start() or mount(). Exposed for benchmarks that
  /// measure serving latency without loopback-socket noise.
  net::HttpResponse explain_http(const net::HttpRequest& request) {
    return handle_explain(request);
  }

  /// Stop the dispatcher; queued requests are answered 503.
  void stop();

  std::optional<ModelInfo> model_info() const;
  CacheStats cache_stats() const { return cache_.stats(); }

  /// Lines describing the mounted endpoints (for the telemetry index page).
  static std::string index_lines();

  /// Operator text for /statusz (TelemetryServer::add_status_section):
  /// installed model identity plus cache and batcher state. Thread-safe.
  std::string status_section() const;

  /// The overload-control plane: admission/rate-limit/breaker/brownout state.
  /// Exposed for tests (drive the state machines directly) and the CLI
  /// (register overload_section on /statusz).
  OverloadControl& overload() { return overload_; }
  /// Operator text for the /statusz "overload" section. Thread-safe.
  std::string overload_section() const { return overload_.status_section(); }

  // --- test seams (set before mount(); not thread-safe afterwards) ---
  /// Runs on the dispatcher right after it pops the first request of a
  /// batch, before lingering. Tests block here to force coalescing.
  void set_collect_hook(std::function<void()> hook) { collect_hook_ = std::move(hook); }
  /// Runs on the connection worker once an admitted miss counts as in
  /// flight, before its enqueue. Tests block here to hold a batch lingering.
  void set_enqueue_hook(std::function<void()> hook) { enqueue_hook_ = std::move(hook); }
  /// Runs after the batch is closed and the model entry snapshotted, before
  /// the explain call. Tests hot-swap or stall here.
  void set_batch_hook(std::function<void(std::size_t batch_size)> hook) {
    batch_hook_ = std::move(hook);
  }

 private:
  struct ModelEntry {
    core::AguaModel model;  ///< forward passes run only on the dispatcher (see above)
    ModelInfo info;
    std::size_t embedding_dim = 0;  ///< expected input width, for validation
  };

  /// One admitted request waiting for its batch.
  struct Pending {
    std::vector<double> embedding;
    std::size_t output_class = static_cast<std::size_t>(-1);  ///< npos = factual
    std::size_t top_k = 5;
    std::string cache_suffix;  ///< cache key minus the model fingerprint
    obs::TraceId trace;  ///< requester's trace id; the batch span indexes under it
    std::chrono::steady_clock::time_point enqueued;  ///< admission time (sojourn basis)
    std::chrono::steady_clock::time_point deadline;
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;               // guarded by mutex
    net::HttpResponse response;      // guarded by mutex
    std::atomic<bool> abandoned{false};  ///< handler gave up (408)
  };

  net::HttpResponse handle_explain(const net::HttpRequest& request);
  net::HttpResponse handle_explain_inner(const net::HttpRequest& request,
                                         const obs::TraceId& trace);
  net::HttpResponse handle_modelz(const net::HttpRequest& request);
  net::HttpResponse handle_reloadz(const net::HttpRequest& request);
  void dispatcher_loop();
  void run_batch(std::vector<std::shared_ptr<Pending>>& batch);
  void fulfill(Pending& pending, net::HttpResponse response);

  ExplainServiceOptions options_;
  ShardedLruCache cache_;
  OverloadControl overload_;

  mutable std::mutex model_mutex_;
  std::shared_ptr<ModelEntry> model_;                       // guarded by model_mutex_
  std::string previous_fingerprint_;                        // same; pre-swap model
  std::shared_ptr<const std::vector<std::vector<double>>> rows_;  // same
  std::string default_model_path_;                          // same
  std::uint64_t next_generation_ = 1;                       // same

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Pending>> queue_;  // guarded by queue_mutex_
  bool stop_ = false;                           // guarded by queue_mutex_
  std::atomic<std::size_t> in_flight_{0};  ///< admitted misses not yet answered
  std::thread dispatcher_;
  std::atomic<bool> mounted_{false};

  std::function<void()> collect_hook_;
  std::function<void()> enqueue_hook_;
  std::function<void(std::size_t)> batch_hook_;
};

}  // namespace agua::serve
