// The two offline workloads. Both end in the same explain pass over 840
// inputs: core::explain_factual per input, core::explain_for_class per input
// and class, and core::explain_batched over all of them (7 explanations per
// input).
//
// pipeline_abr: the paper's offline path (Fig. 2 ②–⑤) plus its last step.
// Set-up builds the ABR bundle from the seed; each repetition times
// core::train_agua (default AguaConfig, closed embeddings) plus core::fidelity
// on the test split as pipeline_s, then runs four explain passes over the
// test split on the new model. Every repetition must reproduce the first
// one's model fingerprint, fidelity and explanation checksum.
//
// explain_offline: the explain pass alone, repeated, on the tiny-scale ABR
// surrogate over the test rows plus seeded noise. Every pass must reproduce
// the first pass's checksum.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "apps/noise.hpp"
#include "bench.hpp"
#include "core/explain.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "text/embedder.hpp"

namespace agua::perfbench {
namespace {

// pipeline_abr explain passes per repetition: about a third of a run explains,
// so the explain medians rest on as many passes as the pipeline's on runs.
constexpr int kExplainPasses = 4;

/// Fold an explanation's class, probability and every weight into `hash`.
std::uint64_t mix_explanation(std::uint64_t hash, const core::Explanation& e) {
  hash = fnv1a(&e.predicted_class, sizeof e.predicted_class, hash);
  hash = fnv1a(&e.output_probability, sizeof e.output_probability, hash);
  hash = fnv1a(e.concept_weights.data(), e.concept_weights.size() * sizeof(double), hash);
  return fnv1a(e.raw_contributions.data(), e.raw_contributions.size() * sizeof(double),
               hash);
}

double histogram_sum_ms(std::string_view name) {
  return obs::MetricsRegistry::instance().histogram(name).snapshot().sum * 1e3;
}

std::uint64_t counter(std::string_view name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

/// Total duration of the spans called `name`, in milliseconds.
double span_ms(const std::vector<obs::SpanRecord>& spans, std::string_view name) {
  double ms = 0.0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == name) ms += static_cast<double>(span.end_ns - span.begin_ns) * 1e-6;
  }
  return ms;
}

/// Per-repetition samples, reduced to the fastest one at the end of a phase.
/// The host's contention comes in episodes that slow a vCPU by up to 1.7x;
/// the fastest repetition is the code's cost outside them, and it repeats
/// across runs where the median does not. Counts repeat exactly anyway.
class Samples {
 public:
  void add(const std::string& name, double value) { samples_[name].push_back(value); }
  void fastest_into(std::map<std::string, double>& out) const {
    for (const auto& [name, values] : samples_) {
      out[name] = name == "explanations_per_s"
                      ? *std::max_element(values.begin(), values.end())
                      : *std::min_element(values.begin(), values.end());
    }
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// One explain pass over `inputs`; adds its timings to `samples` and returns
/// a checksum over every explanation.
std::uint64_t explain_pass(core::AguaModel& model,
                           const std::vector<std::vector<double>>& inputs, Samples& samples) {
  const std::size_t classes = model.num_outputs();
  std::uint64_t checksum = 0;
  const Clock::time_point begin = Clock::now();
  const std::uint64_t forwards_before = counter("agua.surrogate.forward");
  std::vector<double> factual_us;
  for (const std::vector<double>& input : inputs) {
    const Clock::time_point s = Clock::now();
    const core::Explanation e = core::explain_factual(model, input);
    factual_us.push_back(seconds_between(s, Clock::now()) * 1e6);
    checksum = mix_explanation(checksum, e);
  }
  const std::uint64_t factual_forwards = counter("agua.surrogate.forward") - forwards_before;
  std::vector<double> for_class_us;
  for (const std::vector<double>& input : inputs) {
    for (std::size_t c = 0; c < classes; ++c) {
      const Clock::time_point s = Clock::now();
      const core::Explanation e = core::explain_for_class(model, input, c);
      for_class_us.push_back(seconds_between(s, Clock::now()) * 1e6);
      checksum = mix_explanation(checksum, e);
    }
  }
  const Clock::time_point batched_begin = Clock::now();
  checksum = mix_explanation(checksum, core::explain_batched(model, inputs));
  const Clock::time_point end = Clock::now();

  const double n = static_cast<double>(inputs.size());
  std::vector<double> single_us = factual_us;
  single_us.insert(single_us.end(), for_class_us.begin(), for_class_us.end());
  samples.add("explanations_per_s",
              n * static_cast<double>(classes + 2) / seconds_between(begin, end));
  samples.add("explain_p50_us", percentile(single_us, 50.0));
  samples.add("explain_p99_us", percentile(single_us, 99.0));
  samples.add("core.explain_factual_us", median(factual_us));
  samples.add("core.explain_for_class_us", median(for_class_us));
  samples.add("core.explain_batched_us_per_input", seconds_between(batched_begin, end) * 1e6 / n);
  samples.add("core.forwards_per_explanation", static_cast<double>(factual_forwards) / n);
  return checksum;
}

/// Reference outputs of the first repetition; later ones must match.
struct Reference {
  bool set = false;
  std::string fingerprint;
  double fidelity = 0.0;
  std::uint64_t checksum = 0;
};

class PipelineAbr final : public Workload {
 public:
  using Workload::Workload;

  void set_up() override {
    bundle_ = make_bundle_timed(args_.seed, bundle_s_);
    rows_ = test_rows(bundle_);
  }

  Phase measure(double seconds, bool traced) override {
    obs::set_trace_enabled(traced);
    Phase phase;
    Samples samples;
    const Clock::time_point begin = Clock::now();
    do {
      obs::MetricsRegistry::instance().reset();
      obs::clear_spans();
      core::AguaConfig config;
      config.embedder = text::closed_source_embedder_config();
      common::Rng rng(args_.seed ^ kTrainSalt);
      const Clock::time_point t0 = Clock::now();
      core::AguaArtifacts agua = core::train_agua(bundle_.train, bundle_.describer.concept_set(),
                                                  bundle_.describe_fn(), config, rng);
      const Clock::time_point t1 = Clock::now();
      const double fidelity = core::fidelity(*agua.model, bundle_.test);
      const Clock::time_point t2 = Clock::now();
      const double pipeline_s = seconds_between(t0, t2);
      // Spans and counters of the pipeline stages, before the explain pass adds its own.
      const std::vector<obs::SpanRecord> spans = obs::collect_spans();
      const double embed_calls = static_cast<double>(
          obs::MetricsRegistry::instance().histogram("agua.text.embed").snapshot().count);

      std::uint64_t checksum = 0;
      for (int pass = 0; pass < kExplainPasses; ++pass) {
        checksum = explain_pass(*agua.model, rows_, samples);
      }

      const std::string fingerprint = core::model_fingerprint(*agua.model);
      ++phase.attempted;
      if (!reference_.set) {
        reference_ = {true, fingerprint, fidelity, checksum};
        std::fprintf(stderr, "pipeline_abr: fingerprint %s fidelity %.17g checksum %016llx\n",
                     fingerprint.c_str(), fidelity, static_cast<unsigned long long>(checksum));
      } else if (fingerprint != reference_.fingerprint || fidelity != reference_.fidelity ||
                 checksum != reference_.checksum) {
        std::fprintf(stderr, "pipeline_abr: repetition differs from the first one\n");
        ++phase.failed;
        phase.correct = false;
      }

      samples.add("pipeline_s", pipeline_s);
      samples.add("core.fidelity_ms", seconds_between(t1, t2) * 1e3);
      samples.add("text.embed_calls", embed_calls);
      samples.add("common.pool.tasks", static_cast<double>(counter("agua.pool.tasks")));
      for (const char* region :
           {"train_concept", "train_output", "embed_label", "labeler_fit", "explain_batch"}) {
        samples.add(std::string("common.pool.") + region + "_ms",
                    histogram_sum_ms(std::string("agua.pool.") + region));
      }
      if (traced) {
        const double describe = span_ms(spans, "agua.pipeline.describe");
        const double embed_label = span_ms(spans, "agua.pipeline.embed_label");
        const double train_concept = span_ms(spans, "agua.pipeline.train_concept");
        const double train_output = span_ms(spans, "agua.pipeline.train_output");
        samples.add("core.describe_ms", describe);
        samples.add("core.embed_label_ms", embed_label);
        samples.add("text.labeler_fit_ms", span_ms(spans, "agua.labeler.fit"));
        samples.add("core.train_concept_ms", train_concept);
        samples.add("core.train_output_ms", train_output);
        // labeler.fit runs inside embed_label, so it is not added again.
        const double stages_ms = describe + embed_label + train_concept + train_output +
                                 seconds_between(t1, t2) * 1e3;
        samples.add("core.pipeline_stage_share", stages_ms / (pipeline_s * 1e3));
      }
    } while (seconds_between(begin, Clock::now()) < seconds);
    obs::set_trace_enabled(false);
    obs::clear_spans();

    samples.fastest_into(phase.values);
    phase.values["fidelity"] = reference_.fidelity;
    phase.values["apps.bundle_s"] = median(bundle_s_);
    std::fprintf(stderr, "pipeline_abr: %llu repetitions\n",
                 static_cast<unsigned long long>(phase.attempted));
    return phase;
  }

  std::string headline() const override { return "pipeline_s"; }
  bool headline_higher_is_better() const override { return false; }

 private:
  apps::AbrBundle bundle_;
  std::vector<std::vector<double>> rows_;
  std::vector<double> bundle_s_;
  Reference reference_;
};

class ExplainOffline final : public Workload {
 public:
  using Workload::Workload;

  void set_up() override {
    bundle_ = make_bundle_timed(kModelSeed, bundle_s_);
    surrogate_ = train_tiny_surrogate(bundle_, kModelSeed ^ kTrainSalt, 3, pipeline_s_);
    // One input per test row: the row plus noise drawn from --seed.
    const std::vector<std::vector<double>> rows = test_rows(bundle_);
    const std::vector<double> spreads = feature_spreads(rows);
    inputs_.clear();
    for (std::size_t k = 0; k < rows.size(); ++k) {
      inputs_.push_back(noisy_input(rows, spreads, args_.seed, k));
    }
  }

  Phase measure(double seconds, bool traced) override {
    obs::set_trace_enabled(traced);
    Phase phase;
    Samples samples;
    const Clock::time_point begin = Clock::now();
    do {
      obs::MetricsRegistry::instance().reset();
      obs::clear_spans();
      const std::uint64_t checksum = explain_pass(*surrogate_.model, inputs_, samples);
      ++phase.attempted;
      if (!reference_set_) {
        reference_set_ = true;
        reference_checksum_ = checksum;
        std::fprintf(stderr, "explain_offline: %zu inputs, checksum %016llx\n",
                     inputs_.size(), static_cast<unsigned long long>(checksum));
      } else if (checksum != reference_checksum_) {
        std::fprintf(stderr, "explain_offline: pass checksum differs from the first pass\n");
        ++phase.failed;
        phase.correct = false;
      }
      samples.add("common.pool.tasks", static_cast<double>(counter("agua.pool.tasks")));
      samples.add("common.pool.explain_batch_ms", histogram_sum_ms("agua.pool.explain_batch"));
    } while (seconds_between(begin, Clock::now()) < seconds);
    obs::set_trace_enabled(false);
    obs::clear_spans();

    samples.fastest_into(phase.values);
    phase.values["pipeline_s"] = *std::min_element(pipeline_s_.begin(), pipeline_s_.end());
    phase.values["fidelity"] = surrogate_.fidelity;
    phase.values["apps.bundle_s"] = median(bundle_s_);
    std::fprintf(stderr, "explain_offline: %llu passes\n",
                 static_cast<unsigned long long>(phase.attempted));
    return phase;
  }

  std::string headline() const override { return "explanations_per_s"; }
  bool headline_higher_is_better() const override { return true; }

 private:
  apps::AbrBundle bundle_;
  TinySurrogate surrogate_;
  std::vector<std::vector<double>> inputs_;
  std::vector<double> bundle_s_;
  std::vector<double> pipeline_s_;
  bool reference_set_ = false;
  std::uint64_t reference_checksum_ = 0;
};

}  // namespace

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::vector<std::vector<double>> test_rows(const apps::AbrBundle& bundle) {
  std::vector<std::vector<double>> rows;
  for (const core::Sample& sample : bundle.test.samples) rows.push_back(sample.embedding);
  return rows;
}

std::vector<double> feature_spreads(const std::vector<std::vector<double>>& rows) {
  const std::size_t dim = rows.front().size();
  const double n = static_cast<double>(rows.size());
  std::vector<double> spreads(dim, 0.0);
  for (std::size_t j = 0; j < dim; ++j) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const std::vector<double>& row : rows) {
      sum += row[j];
      sum_sq += row[j] * row[j];
    }
    const double mean = sum / n;
    // The floor keeps constant features noisy too, so every input is distinct.
    spreads[j] = std::sqrt(std::max(0.0, sum_sq / n - mean * mean)) + 1e-3;
  }
  return spreads;
}

std::vector<double> noisy_input(const std::vector<std::vector<double>>& rows,
                                const std::vector<double>& spreads, std::uint64_t seed,
                                std::uint64_t key) {
  common::Rng rng(splitmix64(seed ^ splitmix64(key)));
  return apps::add_relative_noise(rows[key % rows.size()], spreads, 0.05, rng);
}

apps::AbrBundle make_bundle_timed(std::uint64_t seed, std::vector<double>& bundle_s) {
  const Clock::time_point begin = Clock::now();
  apps::AbrBundle bundle = apps::make_abr_bundle(seed);
  bundle_s.push_back(seconds_between(begin, Clock::now()));
  return bundle;
}

TinySurrogate train_tiny_surrogate(const apps::AbrBundle& bundle, std::uint64_t rng_seed,
                                   int times, std::vector<double>& pipeline_s) {
  core::Dataset train = bundle.train;
  if (train.samples.size() > 160) train.samples.resize(160);
  core::AguaConfig config;
  config.embedder = text::closed_source_embedder_config();
  config.concept_epochs = 8;
  config.output_epochs = 40;
  TinySurrogate out;
  for (int i = 0; i < times; ++i) {
    common::Rng rng(rng_seed);
    const Clock::time_point begin = Clock::now();
    out.model = core::train_agua(train, bundle.describer.concept_set(), bundle.describe_fn(),
                                 config, rng)
                    .model;
    out.fidelity = core::fidelity(*out.model, bundle.test);
    pipeline_s.push_back(seconds_between(begin, Clock::now()));
  }
  return out;
}

std::unique_ptr<Workload> make_pipeline_abr(const Args& args) {
  return std::make_unique<PipelineAbr>(args);
}

std::unique_ptr<Workload> make_explain_offline(const Args& args) {
  return std::make_unique<ExplainOffline>(args);
}

}  // namespace agua::perfbench
