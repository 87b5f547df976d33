// Explanation generation (§3.5/§3.6): Hadamard decomposition of Ω's dot
// product (eq. 8), softmax-normalized concept weights scaled by the
// controller-output probability (eq. 9/10), with factual, counterfactual,
// single-input and batched variants. No LLM is involved at explanation time.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/surrogate.hpp"

namespace agua::core {

/// The concept names of the model an explanation came from: a view of
/// AguaModel::concept_names(), so an explanation copies no string. It keeps
/// the list alive after the model itself is gone (a hot-swapped serve model).
class ConceptNames {
 public:
  ConceptNames() = default;
  explicit ConceptNames(std::shared_ptr<const std::vector<std::string>> names)
      : names_(std::move(names)) {}

  std::size_t size() const { return names_ ? names_->size() : 0; }
  const std::string& operator[](std::size_t i) const { return (*names_)[i]; }

 private:
  std::shared_ptr<const std::vector<std::string>> names_;
};

/// A concept-based explanation for one output class.
struct Explanation {
  std::size_t output_class = 0;      ///< class the explanation is for
  std::size_t predicted_class = 0;   ///< surrogate argmax for this input
  double output_probability = 0.0;   ///< surrogate probability of output_class
  /// Per-concept normalized weights (eq. 9/10 aggregated over the k levels);
  /// they sum to output_probability.
  std::vector<double> concept_weights;
  /// Raw signed contributions per (concept, level) before normalization
  /// (the "stop before the L1 norm" view of eq. 8).
  std::vector<double> raw_contributions;
  /// Raw signed contributions aggregated per concept.
  std::vector<double> signed_concept_contributions;
  /// Per concept: the similarity level whose contribution dominates, mapped
  /// to thirds of the level range (0 = low/absent, 1 = medium, 2 = high).
  /// Lets explanations read "absence of X" vs "X present" (Fig. 4b/6a).
  std::vector<std::size_t> dominant_levels;
  ConceptNames concept_names;

  /// Indices of the top-k concepts by normalized weight.
  std::vector<std::size_t> top_concepts(std::size_t k) const;

  /// Render as sorted ASCII bars (Fig. 4/6 style).
  std::string format(std::size_t top_k = 6) const;
};

// Every explanation runs δθ and Ω once, through the const inference path,
// so these functions may run concurrently on one shared model.

/// Factual explanation: why the surrogate's chosen class was chosen (§3.6).
/// The class is the argmax of the same forward the explanation decomposes.
Explanation explain_factual(const AguaModel& model, const std::vector<double>& embedding);

/// Explanation for an arbitrary class y'_i — the counterfactual query (§3.6).
Explanation explain_for_class(const AguaModel& model, const std::vector<double>& embedding,
                              std::size_t output_class);

/// Batched explanation: average concept contributions over a batch (§3.6).
/// When `output_class` is npos, each input contributes its own factual class.
///
/// Fans out over `common::default_pool()`; per-input results aggregate in
/// index order, so the explanation is bitwise identical for any pool size
/// (DESIGN.md §7). Each extra worker still runs on its own `model.clone()`.
/// Inference is const, so the clones are not needed for safety; they stay
/// until ROADMAP item 1's harness fix lets their removal be measured.
Explanation explain_batched(const AguaModel& model,
                            const std::vector<std::vector<double>>& embeddings,
                            std::size_t output_class = static_cast<std::size_t>(-1));

/// One failed slot of a batched explanation.
struct SlotError {
  std::size_t index = 0;  ///< position in the input batch
  std::string message;
};

/// Batched explanation with per-slot fault isolation (DESIGN.md §8): a
/// poisoned embedding (NaN/Inf) or a throwing explanation affects only its
/// own slot. `aggregate` averages the successful slots; `errors` lists the
/// failures in index order.
struct BatchExplainResult {
  Explanation aggregate;
  std::vector<SlotError> errors;
  std::size_t attempted = 0;
  std::size_t succeeded = 0;

  /// True when at least one slot produced an explanation.
  explicit operator bool() const { return succeeded > 0; }
};

/// Fault-isolated variant of explain_batched. Exceptions are caught inside
/// the worker (they never cross the pool boundary), each failure bumps the
/// `agua.explain.slot_errors` counter, and with no failing slot the
/// aggregate is bitwise identical to explain_batched's. Fault site:
/// `explain.single` (throw mode exercises the isolation path).
BatchExplainResult explain_batched_isolated(
    const AguaModel& model, const std::vector<std::vector<double>>& embeddings,
    std::size_t output_class = static_cast<std::size_t>(-1));

/// Per-slot result of a fault-isolated fan-out that keeps every slot's
/// explanation instead of aggregating — the shape the serving plane needs:
/// one coalesced micro-batch in, one independent explanation per request out.
struct EachExplainResult {
  std::vector<Explanation> slots;  ///< valid where ok[i] != 0
  std::vector<char> ok;            ///< 1 = slots[i] holds an explanation
  std::vector<SlotError> errors;   ///< failures in index order
  std::size_t attempted = 0;
  std::size_t succeeded = 0;
};

/// One pool fan-out over a heterogeneous batch: slot i is explained for
/// `output_classes[i]` (npos = factual, i.e. the surrogate's own argmax).
/// Same isolation, instrumentation (`agua.explain.batch` span,
/// `agua.explain.slot_errors`), clone-per-worker and index-order guarantees
/// as explain_batched_isolated — which is now a thin aggregation over this.
EachExplainResult explain_each_isolated(const AguaModel& model,
                                        const std::vector<std::vector<double>>& embeddings,
                                        const std::vector<std::size_t>& output_classes);

/// Average the successful slots in index order (eq. 8–10 batch semantics).
/// Shared by explain_batched_isolated and the serving plane's multi-input
/// requests, so both produce bitwise-identical aggregates for the same slots.
/// `C`/`k` are the model's concept/level counts (for dominant-level rebuild).
Explanation aggregate_explanations(const EachExplainResult& each, std::size_t C,
                                   std::size_t k);

}  // namespace agua::core
