// Fig. 7: the standard (feature-level) view of the 2021 -> 2024 drift — the
// client throughput distributions of the two trace eras. Paper: the
// distribution changed considerably, but the CDF alone does not reveal the
// nature of the shift (that's Fig. 5's job).
//
//   fig7_throughput_drift [--serve-telemetry PORT] [--linger SECONDS]
//
// --serve-telemetry exposes the run's metrics/health/events live (the same
// plane as `agua_cli --serve-telemetry`); --linger keeps it up after the
// tables print so the final registry can be scraped.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "abr/trace.hpp"
#include "bench/bench_util.hpp"
#include "common/stats.hpp"
#include "obs/events.hpp"
#include "obs/telemetry_server.hpp"

int main(int argc, char** argv) {
  using namespace agua;

  bool serve = false;
  std::uint16_t port = 0;
  double linger = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve-telemetry") == 0 && i + 1 < argc) {
      serve = true;
      port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--linger") == 0 && i + 1 < argc) {
      linger = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr, "usage: %s [--serve-telemetry PORT] [--linger SECONDS]\n",
                   argv[0]);
      return 2;
    }
  }
  obs::TelemetryOptions telemetry_options;
  telemetry_options.port = port;
  obs::TelemetryServer telemetry(telemetry_options);
  if (serve) {
    obs::event_log().set_enabled(true);
    if (!telemetry.start()) {
      std::fprintf(stderr, "failed to start telemetry server: %s\n",
                   telemetry.last_error().c_str());
      return 1;
    }
    std::printf("telemetry server listening on %s\n", telemetry.url().c_str());
    std::fflush(stdout);
  }

  bench::print_header("Figure 7", "Throughput distribution drift (2021 vs 2024)");

  common::Rng rng(601);
  std::vector<double> v2021;
  std::vector<double> v2024;
  for (const auto& trace : abr::generate_traces(abr::TraceFamily::kPuffer2021, 40, 200, rng)) {
    for (double b : trace.bandwidth_mbps) v2021.push_back(b);
  }
  for (const auto& trace : abr::generate_traces(abr::TraceFamily::kPuffer2024, 40, 200, rng)) {
    for (double b : trace.bandwidth_mbps) v2024.push_back(b);
  }

  bench::print_metrics(
      {
          {"mean throughput 2021 (Mbps)", 0, common::mean(v2021)},
          {"mean throughput 2024 (Mbps)", 0, common::mean(v2024)},
          {"coeff. of variation 2021", 0, common::stddev(v2021) / common::mean(v2021)},
          {"coeff. of variation 2024", 0, common::stddev(v2024) / common::mean(v2024)},
          {"KS statistic (2021 vs 2024)", 0, common::ks_statistic(v2021, v2024)},
      });

  std::printf("\nEmpirical CDFs (throughput in Mbps):\n");
  std::vector<std::vector<double>> rows;
  for (double x = 0.0; x <= 4.0001; x += 0.25) {
    rows.push_back({x, common::ecdf(v2021, x), common::ecdf(v2024, x)});
  }
  bench::print_series({"throughput", "cdf 2021", "cdf 2024"}, rows);

  std::printf(
      "\nShape check: 2024 has a higher mean but a fatter low-throughput tail\n"
      "(more deep fades) — the distribution visibly changed, but the CDF does\n"
      "not say *why*; the concept view (Fig. 5 bench) does.\n");

  if (serve && linger > 0.0) {
    std::printf("telemetry lingers for up to %.0f s\n", linger);
    std::fflush(stdout);
    telemetry.wait_for_quit(linger);
  }
  return 0;
}
