// A small CLI driver over the library: trains a controller + surrogate for
// one of the three applications, prints the Agua report and a sample
// explanation, optionally writes a checkpoint, and optionally keeps serving
// telemetry and live explanations over loopback HTTP.
//
// Run `agua_cli --help` for the full flag reference; the operator runbook
// (docs/OPERATIONS.md) documents every flag with examples, and docs/API.md
// documents the HTTP endpoints that --serve / --serve-telemetry expose.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/abr_bundle.hpp"
#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "apps/cc_bundle.hpp"
#include "apps/ddos_bundle.hpp"
#include "core/explain.hpp"
#include "core/model_io.hpp"
#include "core/report.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/fault_telemetry.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"

namespace {

using namespace agua;

constexpr const char* kUsage =
    "usage: agua_cli <abr|cc|ddos> [flags]\n"
    "\n"
    "Train a controller + Agua surrogate for one application, print the\n"
    "report and a sample explanation, and optionally keep serving telemetry\n"
    "and live explanations. Full runbook: docs/OPERATIONS.md; HTTP schemas:\n"
    "docs/API.md.\n"
    "\n"
    "  --help            print this reference and exit\n"
    "  --seed N          experiment seed (default 42)\n"
    "  --open            use the open-source embedding stack (default: closed)\n"
    "  --paper-config    train with the paper's exact §4 hyperparameters\n"
    "  --save PATH       write the trained surrogate to PATH (binary archive)\n"
    "  --trace           capture spans and print the span tree after the run\n"
    "  --metrics-out PATH       write the metrics registry to PATH\n"
    "  --metrics-format json|prometheus\n"
    "                    format for --metrics-out (default json)\n"
    "  --flight-record PATH     record structured events into a bounded ring\n"
    "                    and write them to PATH as JSON lines; also dumps on\n"
    "                    std::terminate so failed runs leave a forensic trail\n"
    "  --threads N       worker-pool size (0 = auto: AGUA_THREADS env or\n"
    "                    hardware concurrency); results are bitwise identical\n"
    "                    for any N (DESIGN.md §7)\n"
    "  --tiny            shrink datasets/epochs to smoke-test scale\n"
    "  --serve-telemetry PORT   serve /metrics /metrics.json /healthz /tracez\n"
    "                    /eventsz /buildz on 127.0.0.1:PORT during the run\n"
    "                    (0 = ephemeral port, printed at startup)\n"
    "  --serve PORT      everything --serve-telemetry serves, plus the\n"
    "                    explanation plane: POST /explain, GET /modelz,\n"
    "                    POST /reloadz. The model installs when training\n"
    "                    finishes (/explain answers 503 before that) and the\n"
    "                    process lingers until POST /quitquitquit unless\n"
    "                    --serve-linger caps it\n"
    "  --serve-max-batch N      micro-batcher: close a batch at N coalesced\n"
    "                    requests (default 16)\n"
    "  --serve-batch-linger-us USEC\n"
    "                    micro-batcher: while other cache misses are in\n"
    "                    flight, linger up to USEC microseconds for them\n"
    "                    before explaining (default 500; 0 = no coalescing)\n"
    "  --serve-cache N   explanation result-cache capacity in entries\n"
    "                    (default 1024; 0 disables caching)\n"
    "  --serve-linger SECONDS   keep serving for up to SECONDS after the run\n"
    "                    (POST /quitquitquit ends it early); with --serve the\n"
    "                    default is to linger until quit is requested\n"
    "  --slo SPEC        track a latency/error objective for an endpoint and\n"
    "                    surface multi-window burn rates on /statusz, e.g.\n"
    "                    '/explain=250ms:99.9' (grammar: ENDPOINT=LATENCY:PCT;\n"
    "                    repeatable, or comma-separate several specs)\n"
    "  --slo-hook CMD    run CMD (via the shell, detached) whenever an SLO's\n"
    "                    burn state flips, appending: start|end ENDPOINT\n"
    "                    FAST_BURN SLOW_BURN — webhook/pager glue for\n"
    "                    unattended deployments\n"
    "  --slo-exit-nonzero       exit with status 4 when any SLO is still\n"
    "                    burning at shutdown, so supervisors notice\n"
    "  --shed-target-ms MS      overload control: CoDel sojourn target for\n"
    "                    /explain admission (default 25; 0 disables shedding)\n"
    "  --shed-interval-ms MS    overload control: sojourn must stay above the\n"
    "                    target this long before arrivals shed (default 100)\n"
    "  --rate-limit RPS[:BURST] per-client token bucket on /explain keyed on\n"
    "                    X-Agua-Client (fallback: peer address); over-rate\n"
    "                    clients get 429 + Retry-After (default off)\n"
    "  --breaker-threshold N    open the /explain circuit breaker after N\n"
    "                    consecutive backend failures (default 5; 0 disables)\n"
    "  --breaker-backoff-ms MS  first breaker open duration; doubles per\n"
    "                    reopen, capped at 30s (default 1000)\n"
    "  --brownout on|off SLO-driven degradation tiers for /explain: shrink\n"
    "                    top_k, allow slightly-stale cache hits, tighten\n"
    "                    admission while the --slo burn state fires\n"
    "                    (default on; inert without an /explain SLO)\n"
    "  --brownout-top-k N       top_k cap while browned out (default 3)\n"
    "  --deadline-margin-ms MS  close a micro-batch early when the oldest\n"
    "                    member's deadline is within MS, converting would-be\n"
    "                    408s into answers (default 20; 0 disables)\n"
    "  --checkpoint-dir DIR     write crash-safe training checkpoints into\n"
    "                    DIR at epoch boundaries (DESIGN.md §8)\n"
    "  --checkpoint-every N     epochs between checkpoints (default 5)\n"
    "  --resume          with --checkpoint-dir: restore the latest snapshots\n"
    "                    and continue training instead of starting over\n"
    "  --faults SPEC     arm deterministic fault injection, e.g.\n"
    "                    'model_io.save.write=short:0.5@once' (also read from\n"
    "                    the AGUA_FAULTS env var; grammar in common/fault.hpp)\n";

struct CliOptions {
  std::string app;
  std::uint64_t seed = 42;
  bool open_embeddings = false;
  bool paper_config = false;
  bool trace = false;
  bool tiny = false;
  std::size_t threads = 0;  // 0 = auto (AGUA_THREADS env or hardware)
  std::string save_path;
  std::string metrics_out;
  std::string metrics_format = "json";
  std::string flight_record;
  bool serve_telemetry = false;
  bool serve_explain = false;       // --serve: telemetry + explanation plane
  std::uint16_t serve_port = 0;     // 0 = ephemeral
  std::size_t serve_max_batch = 16;
  std::int64_t serve_batch_linger_us = 500;
  std::size_t serve_cache = 1024;
  std::vector<obs::SloSpec> slos;   // --slo specs, registered before serving
  std::string slo_hook;             // --slo-hook command, run on burn flips
  bool slo_exit_nonzero = false;    // exit 4 when burning at shutdown
  std::int64_t shed_target_ms = 25;     // CoDel sojourn target (0 = off)
  std::int64_t shed_interval_ms = 100;  // CoDel interval
  double rate_limit_rps = 0.0;          // per-client tokens/s (0 = off)
  double rate_limit_burst = 0.0;        // bucket depth (0 = max(1, rps))
  int breaker_threshold = 5;            // consecutive failures to open (0 = off)
  std::int64_t breaker_backoff_ms = 1000;
  bool brownout = true;
  std::size_t brownout_top_k = 3;
  std::int64_t deadline_margin_ms = 20;  // early batch close margin (0 = off)
  double serve_linger = 0.0;        // seconds to keep serving after the run
  bool serve_linger_set = false;    // --serve-linger given explicitly
  std::string checkpoint_dir;
  std::size_t checkpoint_every = 5;
  bool resume = false;
  std::string faults;               // --faults spec, armed before training
};

bool parse(int argc, char** argv, CliOptions& options) {
  if (argc < 2) return false;
  options.app = argv[1];
  if (options.app != "abr" && options.app != "cc" && options.app != "ddos") {
    return false;
  }
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      options.seed = static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--open") == 0) {
      options.open_embeddings = true;
    } else if (std::strcmp(argv[i], "--paper-config") == 0) {
      options.paper_config = true;
    } else if (std::strcmp(argv[i], "--save") == 0 && i + 1 < argc) {
      options.save_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      options.trace = true;
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      options.tiny = true;
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      options.metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-format") == 0 && i + 1 < argc) {
      options.metrics_format = argv[++i];
      if (options.metrics_format != "json" && options.metrics_format != "prometheus") {
        std::fprintf(stderr, "unknown --metrics-format: %s\n",
                     options.metrics_format.c_str());
        return false;
      }
    } else if (std::strcmp(argv[i], "--flight-record") == 0 && i + 1 < argc) {
      options.flight_record = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      options.threads = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--serve-telemetry") == 0 && i + 1 < argc) {
      options.serve_telemetry = true;
      options.serve_port =
          static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      options.serve_telemetry = true;
      options.serve_explain = true;
      options.serve_port =
          static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--serve-max-batch") == 0 && i + 1 < argc) {
      options.serve_max_batch =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      if (options.serve_max_batch == 0) options.serve_max_batch = 1;
    } else if (std::strcmp(argv[i], "--serve-batch-linger-us") == 0 && i + 1 < argc) {
      options.serve_batch_linger_us = std::strtoll(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--serve-cache") == 0 && i + 1 < argc) {
      options.serve_cache =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--slo") == 0 && i + 1 < argc) {
      // Accept both repeated flags and comma-separated spec lists.
      std::string_view specs = argv[++i];
      while (!specs.empty()) {
        const std::size_t comma = specs.find(',');
        const std::string_view one = specs.substr(0, comma);
        obs::SloSpec spec;
        std::string slo_error;
        if (!obs::parse_slo_spec(one, spec, &slo_error)) {
          std::fprintf(stderr, "bad --slo spec '%.*s': %s\n",
                       static_cast<int>(one.size()), one.data(), slo_error.c_str());
          return false;
        }
        options.slos.push_back(spec);
        if (comma == std::string_view::npos) break;
        specs.remove_prefix(comma + 1);
      }
    } else if (std::strcmp(argv[i], "--slo-hook") == 0 && i + 1 < argc) {
      options.slo_hook = argv[++i];
    } else if (std::strcmp(argv[i], "--slo-exit-nonzero") == 0) {
      options.slo_exit_nonzero = true;
    } else if (std::strcmp(argv[i], "--shed-target-ms") == 0 && i + 1 < argc) {
      options.shed_target_ms = std::strtoll(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--shed-interval-ms") == 0 && i + 1 < argc) {
      options.shed_interval_ms = std::strtoll(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--rate-limit") == 0 && i + 1 < argc) {
      const char* spec = argv[++i];
      char* end = nullptr;
      options.rate_limit_rps = std::strtod(spec, &end);
      if (end == spec || options.rate_limit_rps < 0.0) {
        std::fprintf(stderr, "bad --rate-limit spec: %s (want RPS or RPS:BURST)\n", spec);
        return false;
      }
      if (*end == ':') {
        options.rate_limit_burst = std::strtod(end + 1, &end);
      }
      if (*end != '\0') {
        std::fprintf(stderr, "bad --rate-limit spec: %s (want RPS or RPS:BURST)\n", spec);
        return false;
      }
    } else if (std::strcmp(argv[i], "--breaker-threshold") == 0 && i + 1 < argc) {
      options.breaker_threshold = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--breaker-backoff-ms") == 0 && i + 1 < argc) {
      options.breaker_backoff_ms = std::strtoll(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--brownout") == 0 && i + 1 < argc) {
      const std::string_view mode = argv[++i];
      if (mode == "on") {
        options.brownout = true;
      } else if (mode == "off") {
        options.brownout = false;
      } else {
        std::fprintf(stderr, "--brownout wants on|off, got: %s\n", argv[i]);
        return false;
      }
    } else if (std::strcmp(argv[i], "--brownout-top-k") == 0 && i + 1 < argc) {
      options.brownout_top_k =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      if (options.brownout_top_k == 0) options.brownout_top_k = 1;
    } else if (std::strcmp(argv[i], "--deadline-margin-ms") == 0 && i + 1 < argc) {
      options.deadline_margin_ms = std::strtoll(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--serve-linger") == 0 && i + 1 < argc) {
      options.serve_linger = std::strtod(argv[++i], nullptr);
      options.serve_linger_set = true;
    } else if (std::strcmp(argv[i], "--checkpoint-dir") == 0 && i + 1 < argc) {
      options.checkpoint_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0 && i + 1 < argc) {
      options.checkpoint_every = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      options.resume = true;
    } else if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      options.faults = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

/// Shrink a bundle's datasets and the training recipe to smoke-test scale.
void make_tiny(core::Dataset& train, core::Dataset& test, core::AguaConfig& config) {
  if (train.samples.size() > 160) train.samples.resize(160);
  if (test.samples.size() > 60) test.samples.resize(60);
  config.concept_epochs = 8;
  config.output_epochs = 40;
}

void run(const CliOptions& options, core::Dataset& train, core::Dataset& test,
         const concepts::ConceptSet& concept_set, const core::DescribeFn& describe,
         serve::ExplainService* explain_service) {
  core::AguaConfig config =
      options.paper_config ? core::paper_agua_config() : core::AguaConfig{};
  config.embedder = options.open_embeddings ? text::open_source_embedder_config()
                                            : text::closed_source_embedder_config();
  if (options.tiny) make_tiny(train, test, config);
  config.checkpoint_dir = options.checkpoint_dir;
  config.checkpoint_every = options.checkpoint_every;
  config.resume = options.resume;
  common::Rng rng(options.seed ^ 0xA90A);
  std::printf("training Agua (%s embeddings, %s recipe%s)...\n",
              options.open_embeddings ? "open" : "closed",
              options.paper_config ? "paper" : "tuned",
              options.tiny ? ", tiny smoke scale" : "");
  core::AguaArtifacts agua = core::train_agua(train, concept_set, describe, config, rng);

  const core::AguaReport report = core::build_report(*agua.model, train, test);
  std::printf("\n%s\n", report.format().c_str());

  std::printf("sample factual explanation (first test sample):\n%s\n",
              core::explain_factual(*agua.model, test.samples.front().embedding)
                  .format(5)
                  .c_str());

  if (!options.save_path.empty()) {
    if (core::save_model_file(options.save_path, *agua.model)) {
      std::printf("checkpoint written to %s\n", options.save_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", options.save_path.c_str());
    }
  }

  if (explain_service != nullptr) {
    // Hand the serving plane its own copy of the trained model plus the test
    // split's embeddings as row-addressable inputs; /explain flips from 503
    // to live at this point.
    std::vector<std::vector<double>> rows;
    rows.reserve(test.samples.size());
    for (const auto& sample : test.samples) rows.push_back(sample.embedding);
    const std::size_t num_rows = rows.size();
    explain_service->set_rows(std::move(rows));
    if (!options.save_path.empty()) {
      explain_service->set_default_model_path(options.save_path);
    }
    const serve::ModelInfo info =
        explain_service->install_model(agua.model->clone(), "train:" + options.app);
    std::printf("explanation service ready (fingerprint %s, %zu rows)\n",
                info.fingerprint.c_str(), num_rows);
    std::fflush(stdout);  // scripts watch for this line before POSTing
  }

  if (options.trace) {
    std::printf("span tree (wall-clock, children indented under parents):\n%s\n",
                obs::format_span_tree(obs::collect_spans()).c_str());
  }
  if (!options.metrics_out.empty()) {
    const bool ok = options.metrics_format == "prometheus"
                        ? obs::write_prometheus_file(options.metrics_out)
                        : obs::write_json_file(options.metrics_out);
    if (ok) {
      std::printf("metrics written to %s (%s)\n", options.metrics_out.c_str(),
                  options.metrics_format.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", options.metrics_out.c_str());
    }
  }
  if (!options.flight_record.empty()) {
    if (obs::flush_flight_record()) {
      std::printf("flight record written to %s (%zu events, %llu dropped)\n",
                  options.flight_record.c_str(), obs::event_log().size(),
                  static_cast<unsigned long long>(obs::event_log().dropped()));
    } else {
      std::fprintf(stderr, "failed to write %s\n", options.flight_record.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    }
  }
  CliOptions options;
  if (!parse(argc, argv, options)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  // Fault plumbing first: the injected-fault → obs bridge must be live before
  // any site can fire, and draws must be seeded before training starts so a
  // given (--seed, --faults) pair replays identically.
  obs::install_fault_telemetry();
  common::fault::set_seed(options.seed);
  common::fault::configure_from_env();
  if (!options.faults.empty()) {
    std::string fault_error;
    if (!common::fault::configure(options.faults, &fault_error)) {
      std::fprintf(stderr, "bad --faults spec: %s\n", fault_error.c_str());
      return 2;
    }
  }
  obs::set_trace_enabled(options.trace);
  // Generated trace ids (requests arriving without a traceparent header) are
  // derived from the experiment seed so a replayed run produces the same ids.
  net::seed_trace_ids(options.seed ^ 0x7C5A);
  for (const obs::SloSpec& spec : options.slos) {
    obs::SloRegistry::instance().track(spec);
  }
  if (!options.slo_hook.empty()) {
    // Alert routing: every burn flip spawns `CMD start|end ENDPOINT FAST SLOW`
    // through the shell. Detached on purpose — snapshot paths (handlers, the
    // brownout sampler) must never block on a webhook.
    const std::string hook_command = options.slo_hook;
    obs::set_burn_hook([hook_command](const obs::SloSnapshot& snap) {
      char burns[64];
      std::snprintf(burns, sizeof burns, " %.3f %.3f", snap.fast.burn_rate,
                    snap.slow.burn_rate);
      const std::string line = hook_command + (snap.burning ? " start " : " end ") +
                               snap.spec.endpoint + burns;
      std::thread([line] {
        if (std::system(line.c_str()) != 0) {
          std::fprintf(stderr, "slo hook failed: %s\n", line.c_str());
        }
      }).detach();
    });
  }
  if (!options.flight_record.empty() || options.serve_telemetry) {
    // Enable event capture up front — for --flight-record so even a crash
    // mid-training leaves the ring on disk, for --serve-telemetry so
    // /eventsz has something to show while the run is live.
    obs::event_log().set_enabled(true);
    obs::event_log().append("cli.run.begin",
                            {{"seed", static_cast<double>(options.seed)},
                             {"tiny", options.tiny ? 1.0 : 0.0}});
  }
  if (!options.flight_record.empty()) {
    // Install the dump-on-terminate hook before any real work starts.
    obs::set_flight_record_path(options.flight_record);
  }
  // The explanation service outlives the telemetry server (declared first =
  // destroyed last), so handlers can never outlive the service they call.
  serve::OverloadOptions overload;
  overload.codel.target_us = options.shed_target_ms * 1000;
  overload.codel.interval_us = options.shed_interval_ms * 1000;
  overload.rate_limit.rate_per_s = options.rate_limit_rps;
  overload.rate_limit.burst = options.rate_limit_burst;
  overload.breaker.failure_threshold = options.breaker_threshold;
  overload.breaker.backoff_ms = options.breaker_backoff_ms;
  overload.brownout.enabled = options.brownout;
  overload.brownout.degraded_top_k = options.brownout_top_k;
  overload.deadline_margin_us = options.deadline_margin_ms * 1000;
  serve::ExplainService explain_service(
      {.max_batch = options.serve_max_batch,
       .batch_linger_us = options.serve_batch_linger_us,
       .cache_capacity = options.serve_cache,
       .overload = overload});
  obs::TelemetryServer telemetry(
      {.port = options.serve_port,
       // Coalescing needs concurrent requests in flight; plain telemetry
       // keeps the classic one-at-a-time loop.
       .connection_threads = options.serve_explain ? std::size_t{4} : std::size_t{1},
       .extra_index = options.serve_explain ? serve::ExplainService::index_lines()
                                            : std::string{}});
  if (options.serve_explain) {
    explain_service.mount(telemetry.http());
    telemetry.add_status_section(
        "serving", [&explain_service] { return explain_service.status_section(); });
    telemetry.add_status_section(
        "overload", [&explain_service] { return explain_service.overload_section(); });
  }
  if (options.serve_telemetry) {
    if (!telemetry.start()) {
      std::fprintf(stderr, "failed to start telemetry server: %s\n",
                   telemetry.last_error().c_str());
      return 1;
    }
    std::printf(
        "telemetry server listening on %s "
        "(/metrics /metrics.json /healthz /statusz /tracez /eventsz /buildz%s)\n",
        telemetry.url().c_str(),
        options.serve_explain ? " /explain /modelz /reloadz" : "");
    std::fflush(stdout);  // scripts watch for this line before curling
  }
  common::set_default_thread_count(options.threads);
  std::printf("building the %s application bundle (seed %llu, %zu worker threads)...\n",
              options.app.c_str(), static_cast<unsigned long long>(options.seed),
              common::default_thread_count());
  serve::ExplainService* service_ptr =
      options.serve_explain ? &explain_service : nullptr;
  try {
    if (options.app == "abr") {
      apps::AbrBundle bundle = apps::make_abr_bundle(options.seed);
      run(options, bundle.train, bundle.test, bundle.describer.concept_set(),
          bundle.describe_fn(), service_ptr);
    } else if (options.app == "cc") {
      apps::CcBundle bundle = apps::make_cc_bundle(options.seed);
      run(options, bundle.train, bundle.test, bundle.describer->concept_set(),
          bundle.describe_fn(), service_ptr);
    } else {
      apps::DdosBundle bundle = apps::make_ddos_bundle(options.seed);
      run(options, bundle.train, bundle.test, bundle.describer.concept_set(),
          bundle.describe_fn(), service_ptr);
    }
  } catch (const std::exception& e) {
    // Injected faults (FaultInjected) and diverged training
    // (TrainDivergedError) land here: report, keep the flight record, exit
    // nonzero instead of std::terminate — a chaos run should leave evidence.
    std::fprintf(stderr, "run failed: %s\n", e.what());
    if (!options.flight_record.empty()) obs::flush_flight_record();
    return 1;
  }
  // --serve with no explicit --serve-linger keeps serving explanations until
  // quit is requested; plain telemetry only lingers when asked to.
  double linger = options.serve_linger;
  if (options.serve_explain && !options.serve_linger_set) linger = -1.0;
  if (options.serve_telemetry && (linger > 0.0 || linger < 0.0)) {
    if (linger < 0.0) {
      std::printf("run finished; serving until POST %s/quitquitquit\n",
                  telemetry.url().c_str());
    } else {
      std::printf("run finished; telemetry lingers for up to %.0f s "
                  "(curl -X POST %s/quitquitquit to end early)\n",
                  linger, telemetry.url().c_str());
    }
    std::fflush(stdout);
    telemetry.wait_for_quit(linger);
  }
  if (options.slo_exit_nonzero) {
    // Close the alerting loop for unattended runs: a burn still active at
    // shutdown makes the process exit nonzero so supervisors/cron notice.
    for (const obs::SloSnapshot& snap : obs::SloRegistry::instance().snapshot()) {
      if (snap.burning) {
        std::fprintf(stderr, "SLO burn active at shutdown: %s (fast %.2f, slow %.2f)\n",
                     snap.spec.endpoint.c_str(), snap.fast.burn_rate,
                     snap.slow.burn_rate);
        return 4;
      }
    }
  }
  return 0;
}
