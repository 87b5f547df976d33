// Shared pieces of the agua_perfbench harness: command-line arguments, the
// Workload interface every workload implements, and small statistics helpers.
//
// Every end-to-end number is timed here, from outside the library, around
// calls into the public functions of apps, core, serve and net. Per-layer
// numbers come from the same timers plus the spans and counters the library
// already records (agua.pipeline.*, agua.pool.*, agua.serve.*, ...).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/abr_bundle.hpp"
#include "core/surrogate.hpp"

namespace agua::perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  ///< where serve workloads write their archives
};

/// The outcome of one measured phase. `values` holds end-to-end and
/// per-layer metrics by name; main() picks the set the run prints.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;  ///< false when an output check found a wrong result
  std::map<std::string, double> values;
};

class Workload {
 public:
  explicit Workload(Args args) : args_(std::move(args)) {}
  virtual ~Workload() = default;

  /// Build the inputs and the model under test. main() calls it several
  /// times and reports the median as setup_s; the last call's state is used.
  virtual void set_up() = 0;

  /// Run the workload for `seconds`. `traced` turns on span capture and the
  /// per-request trace reads that feed the per-layer metrics.
  virtual Phase measure(double seconds, bool traced) = 0;

  /// The end-to-end metric obs.tracing_overhead_pct compares, and whether a
  /// larger value is better.
  virtual std::string headline() const = 0;
  virtual bool headline_higher_is_better() const = 0;

 protected:
  Args args_;
};

std::unique_ptr<Workload> make_pipeline_abr(const Args& args);
std::unique_ptr<Workload> make_explain_offline(const Args& args);
std::unique_ptr<Workload> make_serve_sparse(const Args& args);
std::unique_ptr<Workload> make_serve_mixed(const Args& args);

/// Bundle seed of the model explain_offline and the serve workloads run on.
/// That model is a fixed artifact, as a deployed one is; --seed picks their
/// inputs and traffic.
constexpr std::uint64_t kModelSeed = 1;

/// agua_cli seeds training with `seed ^ kTrainSalt`.
constexpr std::uint64_t kTrainSalt = 0xA90A;

/// The ABR surrogate trained at the CLI's --tiny scale (160 training rows,
/// 8 concept epochs, 40 output epochs; architecture as at full scale).
struct TinySurrogate {
  std::unique_ptr<core::AguaModel> model;
  double fidelity = 0.0;  ///< eq. 11 on the whole test split
};

/// Train the tiny surrogate `times` times from the same seed (identical
/// results), appending each train_agua + fidelity time to `pipeline_s`.
TinySurrogate train_tiny_surrogate(const apps::AbrBundle& bundle, std::uint64_t rng_seed,
                                   int times, std::vector<double>& pipeline_s);

/// make_abr_bundle(seed), timed; appends the seconds to `bundle_s`.
apps::AbrBundle make_bundle_timed(std::uint64_t seed, std::vector<double>& bundle_s);

/// Test-split embeddings of a bundle, and each feature's spread across them.
std::vector<std::vector<double>> test_rows(const apps::AbrBundle& bundle);
std::vector<double> feature_spreads(const std::vector<std::vector<double>>& rows);

/// Row `key % rows.size()` plus Gaussian noise of 5% of each feature's
/// spread, drawn from (seed, key): distinct keys give distinct inputs.
std::vector<double> noisy_input(const std::vector<std::vector<double>>& rows,
                                const std::vector<double>& spreads, std::uint64_t seed,
                                std::uint64_t key);

std::uint64_t splitmix64(std::uint64_t x);

inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

/// FNV-1a over raw bytes, continuing from `hash`.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

}  // namespace agua::perfbench
