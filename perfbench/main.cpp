// agua_perfbench: the repository benchmark harness.
//
//   agua_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Sets the workload up several times (median = setup_s), measures it for S
// seconds and prints, as the last line of stdout, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the run
// measures S/2 untraced, then S/2 traced, and prints the per-layer set.
// Progress and check details go to stderr. perfbench/README.md describes the
// workloads and every metric.
#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "net/http.hpp"

namespace agua::perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

// Set-ups per run; their median is setup_s.
constexpr int kSetUps = 3;

// Pool width and the host the benchmark is sized for (nproc = 4).
constexpr std::size_t kThreads = 4;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (perfbench/test_perfbench.py checks).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"pipeline_s", "s"},
    {"fidelity", "fraction"},
    {"explanations_per_s", "1/s"},
    {"explain_p50_us", "us"},
    {"ok_share", "fraction"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"apps.bundle_s", "s"},
    {"core.describe_ms", "ms"},
    {"core.embed_label_ms", "ms"},
    {"text.labeler_fit_ms", "ms"},
    {"core.train_concept_ms", "ms"},
    {"core.train_output_ms", "ms"},
    {"core.fidelity_ms", "ms"},
    {"core.pipeline_stage_share", "fraction"},
    {"text.embed_calls", "count"},
    {"common.pool.tasks", "count"},
    {"common.pool.train_concept_ms", "ms"},
    {"common.pool.train_output_ms", "ms"},
    {"common.pool.embed_label_ms", "ms"},
    {"common.pool.labeler_fit_ms", "ms"},
    {"common.pool.explain_batch_ms", "ms"},
    {"core.explain_factual_us", "us"},
    {"core.explain_for_class_us", "us"},
    {"core.explain_batched_us_per_input", "us"},
    {"core.forwards_per_explanation", "count"},
    {"client.explain_p99_us", "us"},
    {"serve.handler_us.p50", "us"},
    {"serve.handler_us.p99", "us"},
    {"serve.wait_us.p50", "us"},
    {"serve.wait_us.p99", "us"},
    {"serve.batch_us.p50", "us"},
    {"serve.batch_us.p99", "us"},
    {"net.transport_us", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.sojourn_p99_us", "us"},
    {"serve.cache_hit_share", "fraction"},
    {"serve.cache_evictions", "count"},
    {"serve.reload_ms", "ms"},
    {"serve.refused", "count"},
    {"net.rejected", "count"},
    {"net.write_errors", "count"},
    {"loadgen.sent", "count"},
    {"loadgen.ok", "count"},
    {"loadgen.failed", "count"},
    {"loadgen.late_p99_us", "us"},
    {"obs.tracing_overhead_pct", "%"},
};

const char* const kUsage =
    "usage: agua_perfbench --workload pipeline_abr|explain_offline|serve_sparse|serve_mixed\n"
    "                      --seed N --seconds S --trace 0|1 [--work-dir DIR]\n";

bool parse(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      args.workload = argv[++i];
      have_workload = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (std::strcmp(argv[i], "--work-dir") == 0 && has_value) {
      args.work_dir = argv[++i];
    } else {
      return false;
    }
  }
  return have_workload && args.seconds > 0.0 && std::isfinite(args.seconds);
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "pipeline_abr") return make_pipeline_abr(args);
  if (args.workload == "explain_offline") return make_explain_offline(args);
  if (args.workload == "serve_sparse") return make_serve_sparse(args);
  if (args.workload == "serve_mixed") return make_serve_mixed(args);
  return nullptr;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Relative cost of tracing on the workload's headline metric, in percent.
double tracing_overhead_pct(const Workload& workload, const Phase& untraced,
                            const Phase& traced) {
  const double u = untraced.values.at(workload.headline());
  const double t = traced.values.at(workload.headline());
  if (u <= 0.0 || t <= 0.0) return 0.0;
  return (workload.headline_higher_is_better() ? u / t : t / u) * 100.0 - 100.0;
}

void print_result(const Phase& phase, bool trace) {
  std::string out = std::string("{\"correct\": ") + (phase.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(phase.attempted) +
                    ", \"failed\": " + std::to_string(phase.failed) + ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& spec, double value) {
    if (!std::isfinite(value)) value = 0.0;
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    out += std::string(first ? "" : ", ") + "\"" + spec.name + "\": {\"value\": " + number +
           ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = phase.values.find(spec.name);
      emit(spec, it == phase.values.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, phase.values.at(spec.name));
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::vector<double> setup_s;
  for (int i = 0; i < kSetUps; ++i) {
    const Clock::time_point begin = Clock::now();
    workload->set_up();
    setup_s.push_back(seconds_between(begin, Clock::now()));
    std::fprintf(stderr, "set-up %d: %.3f s\n", i + 1, setup_s.back());
  }
  Phase result;
  if (!args.trace) {
    result = workload->measure(args.seconds, false);
    result.values["setup_s"] = median(setup_s);
    result.values["peak_rss_mb"] = peak_rss_mb();
    result.values["ok_share"] =
        static_cast<double>(result.attempted - result.failed) /
        static_cast<double>(std::max<std::uint64_t>(result.attempted, 1));
  } else {
    const Phase untraced = workload->measure(args.seconds / 2.0, false);
    result = workload->measure(args.seconds / 2.0, true);
    // The tail is reported here, ungated: on a shared host its run-to-run
    // spread is wider than any regression bound.
    result.values["client.explain_p99_us"] = result.values.at("explain_p99_us");
    result.values["obs.tracing_overhead_pct"] =
        tracing_overhead_pct(*workload, untraced, result);
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
    result.correct = result.correct && untraced.correct;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "nothing was attempted\n");
    return 1;
  }
  print_result(result, args.trace);
  return 0;
}

}  // namespace
}  // namespace agua::perfbench

int main(int argc, char** argv) {
  agua::perfbench::Args args;
  if (!agua::perfbench::parse(argc, argv, args)) {
    std::fputs(agua::perfbench::kUsage, stderr);
    return 2;
  }
  // A peer closing early must fail one request, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  agua::common::set_default_thread_count(agua::perfbench::kThreads);
  // As agua_cli does: server-generated trace ids follow the seed.
  agua::net::seed_trace_ids(args.seed ^ 0x7C5A);
  try {
    return agua::perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
