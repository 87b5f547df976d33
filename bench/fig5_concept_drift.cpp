// Fig. 5: concept-based distribution-shift detection. Roll the ABR
// controller over the 2021-era training traces and the 2024-era deployment
// traces, tag each trace with its top-3 concepts via Agua's batched
// explanations, and compare normalized concept proportions.
// Paper: 'volatile network throughput', 'rapidly depleting buffer', 'recent
// network improvement' and 'high complexity content' grow; 'stable buffer',
// 'extreme network degradation' shrink.
//
//   fig5_concept_drift [--rounds N] [--serve-telemetry PORT] [--linger SECONDS]
//
// --rounds N turns the one-shot comparison into a drift *watch*: N rounds of
// freshly sampled 2024 deployment traces are scored against the 2021
// training distribution, feeding the `agua.health.drift` monitor and the
// flight-recorder ring each round. With --serve-telemetry the run is live-
// inspectable while it loops (curl /healthz to see the drift monitor state,
// /eventsz for the per-round drift.report events); --linger keeps the server
// up after the last round.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "apps/abr_bundle.hpp"
#include "bench/bench_util.hpp"
#include "core/drift.hpp"
#include "obs/events.hpp"
#include "obs/telemetry_server.hpp"

int main(int argc, char** argv) {
  using namespace agua;

  std::size_t rounds = 1;
  bool serve = false;
  std::uint16_t port = 0;
  double linger = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      if (rounds == 0) rounds = 1;
    } else if (std::strcmp(argv[i], "--serve-telemetry") == 0 && i + 1 < argc) {
      serve = true;
      port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--linger") == 0 && i + 1 < argc) {
      linger = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--rounds N] [--serve-telemetry PORT] "
                   "[--linger SECONDS]\n",
                   argv[0]);
      return 2;
    }
  }

  obs::TelemetryOptions telemetry_options;
  telemetry_options.port = port;
  obs::TelemetryServer telemetry(telemetry_options);
  if (serve) {
    obs::event_log().set_enabled(true);  // make /eventsz live
    if (!telemetry.start()) {
      std::fprintf(stderr, "failed to start telemetry server: %s\n",
                   telemetry.last_error().c_str());
      return 1;
    }
    std::printf("telemetry server listening on %s\n", telemetry.url().c_str());
    std::fflush(stdout);
  }

  bench::print_header("Figure 5", "Concept-level drift between 2021 and 2024 deployments");

  apps::AbrBundle bundle = apps::make_abr_bundle(11);
  core::AguaConfig config;
  config.embedder = text::closed_source_embedder_config();
  common::Rng rng(401);
  core::AguaArtifacts agua = core::train_agua(bundle.train, bundle.describer.concept_set(),
                                              bundle.describe_fn(), config, rng);

  common::Rng trace_rng(402);
  const auto traces_2021 =
      abr::generate_traces(abr::TraceFamily::kPuffer2021, 30, 140, trace_rng);
  const auto emb_2021 =
      apps::collect_abr_trace_embeddings(*bundle.controller, traces_2021, 50, trace_rng);

  core::DriftReport report;
  for (std::size_t round = 0; round < rounds; ++round) {
    // Each round samples a fresh batch of deployment-era traces — the
    // continuous-monitoring loop of §5 at bench scale. trace_rng advances
    // across rounds, so round r sees different 2024 traffic than round r-1.
    const auto traces_2024 =
        abr::generate_traces(abr::TraceFamily::kPuffer2024, 30, 140, trace_rng);
    const auto emb_2024 =
        apps::collect_abr_trace_embeddings(*bundle.controller, traces_2024, 50, trace_rng);
    report = core::detect_concept_drift(*agua.model, emb_2021, emb_2024, /*top_k=*/3);
    if (rounds > 1) {
      std::printf("round %zu/%zu: %zu concepts up, %zu down\n", round + 1, rounds,
                  report.increased.size(), report.decreased.size());
      std::fflush(stdout);
    }
  }

  std::printf("\nConcept proportions (A = 2021 training, B = 2024 deployment):\n%s",
              report.format().c_str());

  std::printf("\nConcepts with increased share in 2024 (retraining targets, 'red' set):\n");
  for (std::size_t c : report.increased) {
    std::printf("  +%.3f  %s\n", report.delta[c], report.concept_names[c].c_str());
  }
  std::printf("\nConcepts with decreased share in 2024:\n");
  for (std::size_t c : report.decreased) {
    std::printf("  %.3f  %s\n", report.delta[c], report.concept_names[c].c_str());
  }
  std::printf(
      "\nShape check: volatility/depletion-type concepts should grow while\n"
      "stable-buffer-type concepts shrink, mirroring Fig. 5.\n");

  if (serve && linger > 0.0) {
    std::printf("drift watch finished; telemetry lingers for up to %.0f s\n", linger);
    std::fflush(stdout);
    telemetry.wait_for_quit(linger);
  }
  return 0;
}
