// ModelGuidedTopK: the paper's §6 runtime recipe as an explicit, budgeted
// strategy. Rank the whole legal space with the trained regressor (cheap:
// batched MLP forward passes in parallel), then spend the measurement budget
// on the k best predictions only — the re-timing that "smooths out the
// inherent noise of our predictive model".
//
// The ranking itself — enumerate/probe X̂, filter to the legal space, score
// with the model, order best-first — is factored out as a reusable core:
// `rank_legal_space` (dense, what the strategy drives) and
// `rank_strided_probe` (bounded-work, what the zero-measurement dispatch
// fast path in core::predict<Op>() takes on cold shapes).
//
// Two properties keep ranking cheap enough to sit on the dispatch path:
//
//  * The scoring pipeline is allocation-free: candidates featurize in place
//    into one flat FeatureBatch (no vector-of-vectors), and the model scores
//    it through thread-local forward workspaces (mlp/regressor.hpp).
//
//  * Enumeration — dense ranking, the strided probe's saturated-space
//    fallback, and the repair scans — goes through the constraint-propagating
//    pruned walk (tuning::walk_legal + the op's prefix_constraints for the
//    real shape): whole illegal subtrees are skipped unvisited, so iteration
//    cost scales with the legal space X, not |X̂|. Dense ranking splits the
//    walk into pool chunks by surviving prefix (search/legal_walk.hpp). The
//    walk emits in exactly odometer order and every survivor still passes
//    the full validate gate, so candidate sets, scores and orderings stay
//    bit-identical to the generate-and-test sweep.
//
// Ranking cost is bounded by SearchConfig::max_candidates: oversized legal
// spaces are deterministically strided and the op's seed grid re-appended so
// subsampling can never lose the well-known-good region.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "common/thread_pool.hpp"
#include "search/legal_walk.hpp"
#include "search/random.hpp"  // choice_hash
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "tuning/feature_batch.hpp"

namespace isaac::search {

/// A model-ranked slice of the legal space. `order` indexes `candidates`/
/// `scores` best-first and is truncated to the requested k; `visited`/`legal`
/// account the X̂ traffic the ranking spent so callers can merge it into
/// their own stats.
template <typename Op>
struct RankedCandidates {
  std::vector<Choice> candidates;  // legal (possibly subsampled), seed grid kept
  std::vector<double> scores;      // predicted GFLOPS, aligned with candidates
  std::vector<std::size_t> order;  // best-first indices into candidates, ≤ k
  std::size_t visited = 0;         // X̂ points legality-checked
  std::size_t legal = 0;           // subset that passed validation
};

/// Decode a flat lexicographic index into an existing choice vector
/// (dimension 0 least significant — the same order advance_choice walks),
/// reusing the caller's storage.
inline void choice_from_flat_into(std::size_t flat,
                                  const std::vector<tuning::ParameterDomain>& domains,
                                  Choice& c) {
  c.resize(domains.size());
  for (std::size_t d = 0; d < domains.size(); ++d) {
    c[d] = flat % domains[d].values.size();
    flat /= domains[d].values.size();
  }
}

/// Decode a flat lexicographic index into a fresh choice vector.
inline Choice choice_from_flat(std::size_t flat,
                               const std::vector<tuning::ParameterDomain>& domains) {
  Choice c;
  choice_from_flat_into(flat, domains, c);
  return c;
}

namespace detail {

/// Append the op's seed grid to `candidates` (legality-checked, de-duplicated
/// against what is already there) so no subsampled ranking can lose the
/// well-known-good region.
template <typename Op>
void append_seed_grid(const SearchProblem<Op>& problem, std::vector<Choice>& candidates,
                      std::unordered_set<std::uint64_t>& present) {
  using Traits = typename SearchProblem<Op>::Traits;
  for (const auto& t : Traits::seed_grid()) {
    Choice c;
    if (!problem.space->encode(t, c)) continue;  // value outside this space's domains
    if (!problem.legal(c)) continue;
    if (present.insert(choice_hash(c)).second) candidates.push_back(std::move(c));
  }
}

/// Score `out.candidates` with the model and fill `out.order` with the
/// best-first top k (predicted GFLOPS, deterministic choice tie-break).
/// Featurization writes in place into one flat batch; scoring reuses
/// per-thread forward workspaces — no per-candidate allocations.
/// problem.model is read for the whole pass, so under hot-swappable models
/// the caller must pin one snapshot per ranking (Context::model_snapshot());
/// the whole order then reflects a single model version, never a mid-swap
/// mixture.
template <typename Op>
void score_and_order(const SearchProblem<Op>& problem, const SearchConfig& config,
                     std::size_t top_k, RankedCandidates<Op>& out) {
  if (out.candidates.empty()) return;
  // Size rows by the *op's* feature arity (probed once via the allocating
  // featurize), not the model's: featurize_into writes the op's full width,
  // and a model trained with a different feature set must surface as the
  // scorer's clean arity throw, not as out-of-row writes.
  const std::vector<double> probe =
      problem.featurize(problem.space->decode(out.candidates.front()));
  tuning::FeatureBatch batch(probe.size(), out.candidates.size());
  std::copy(probe.begin(), probe.end(), batch.row(0));
  ThreadPool::global().parallel_for_each(out.candidates.size() - 1, [&](std::size_t i) {
    problem.featurize_into(problem.space->decode(out.candidates[i + 1]), batch.row(i + 1));
  });
  const std::size_t chunk = config.batch > 0 ? config.batch : 8192;
  out.scores = problem.model->predict_gflops_chunked(batch, chunk);

  // Only the first k ranks are ever consumed, so a partial sort suffices —
  // O(n log k) on the latency-critical dispatch path.
  out.order.resize(out.candidates.size());
  for (std::size_t i = 0; i < out.order.size(); ++i) out.order[i] = i;
  const std::size_t k =
      std::min<std::size_t>(std::max<std::size_t>(top_k, 1), out.order.size());
  std::partial_sort(out.order.begin(), out.order.begin() + static_cast<std::ptrdiff_t>(k),
                    out.order.end(), [&](std::size_t a, std::size_t b) {
                      if (out.scores[a] != out.scores[b]) return out.scores[a] > out.scores[b];
                      return out.candidates[a] < out.candidates[b];  // deterministic tie-break
                    });
  out.order.resize(k);
}

}  // namespace detail

/// Dense ranking — the strategy's path: enumerate the legal space through the
/// pooled pruned walk, stride oversized sets down to config.max_candidates
/// (re-appending the seed grid), then model-score and order the top k.
/// Requires problem.model.
template <typename Op>
RankedCandidates<Op> rank_legal_space(const SearchProblem<Op>& problem,
                                      const SearchConfig& config, std::size_t top_k) {
  telemetry::Span span("rank.dense");
  ISAAC_TM_COUNT("rank.dense");
  RankedCandidates<Op> out;
  const auto& domains = problem.space->domains();

  // ---- enumerate the legal space ----------------------------------------
  // The lazy pruned walk, chunked for the pool without materializing index
  // vectors. The per-point legality gate keeps the result exactly the legal
  // space, and chunk concatenation preserves odometer order; the walk
  // conceptually covers all of X̂, so `visited` counts |X̂|.
  const tuning::ConstraintSet cs =
      prefix_constraints_for<Op>(*problem.shape, *problem.device, *problem.space);
  const tuning::ConstraintSet* csp = cs.empty() ? nullptr : &cs;
  const WalkChunkPlan plan = plan_legal_walk(domains, csp);
  std::vector<std::vector<Choice>> parts(plan.prefixes.size());
  ThreadPool::global().parallel_for_each(plan.prefixes.size(), [&](std::size_t ci) {
    auto& part = parts[ci];
    run_walk_chunk(domains, csp, plan, ci, [&](const Choice& c, std::uint64_t) {
      if (problem.legal(c)) part.push_back(c);
      return true;
    });
  });
  out.visited = problem.space->size();
  std::size_t n = 0;
  for (const auto& part : parts) n += part.size();
  out.candidates.reserve(n);
  for (auto& part : parts) {
    std::move(part.begin(), part.end(), std::back_inserter(out.candidates));
  }
  out.legal = out.candidates.size();
  if (out.candidates.empty()) return out;

  // ---- subsample oversized spaces, keeping the seed grid ----------------
  const std::size_t cap = config.max_candidates;
  if (cap > 0 && out.candidates.size() > cap) {
    std::vector<Choice> kept;
    kept.reserve(cap + 64);
    std::unordered_set<std::uint64_t> in_kept;
    const double step =
        static_cast<double>(out.candidates.size()) / static_cast<double>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      Choice& c = out.candidates[static_cast<std::size_t>(i * step)];
      if (in_kept.insert(choice_hash(c)).second) kept.push_back(std::move(c));
    }
    // Probe uncounted: the enumeration above already accounted every point
    // of X̂, this only re-selects from it.
    detail::append_seed_grid(problem, kept, in_kept);
    out.candidates = std::move(kept);
  }

  detail::score_and_order(problem, config, top_k, out);
  return out;
}

/// Bounded-work ranking — the dispatch fast path: instead of sweeping all of
/// X̂, probe at most config.max_candidates points by deterministic flat-index
/// striding, filter those to the legal space, and always re-append the seed
/// grid. Total work is O(cap) legality checks plus one batched model pass, no
/// matter how large X̂ is — this is what lets a cold `select()` answer in
/// microseconds-to-milliseconds rather than sweep-the-space time. The
/// returned `order` may be empty for degenerate shapes whose sparse legal set
/// the stride misses; callers fall back to `rank_legal_space` (and from
/// there, to reporting "no legal configuration").
template <typename Op>
RankedCandidates<Op> rank_strided_probe(const SearchProblem<Op>& problem,
                                        const SearchConfig& config, std::size_t top_k) {
  telemetry::Span span("rank.probe");
  ISAAC_TM_COUNT("rank.probe");
  RankedCandidates<Op> out;
  const auto& domains = problem.space->domains();
  const std::size_t total = problem.space->size();
  const std::size_t cap =
      config.max_candidates > 0 ? std::min(config.max_candidates, total) : total;
  const tuning::ConstraintSet cs =
      prefix_constraints_for<Op>(*problem.shape, *problem.device, *problem.space);

  std::unordered_set<std::uint64_t> present;
  if (total == std::numeric_limits<std::size_t>::max()) {
    // Saturated size(): no exact flat index exists to stride over. Probe the
    // pruned walk instead — the first `cap` legal points in flat order.
    // Still deterministic, and still bounded work: the walk skips illegal
    // subtrees rather than striding across an X̂ it cannot even measure.
    tuning::walk_legal(domains, cs.empty() ? nullptr : &cs,
                       [&](const Choice& walked, std::uint64_t) {
                         ++out.visited;
                         if (!problem.legal(walked)) return true;
                         ++out.legal;
                         if (present.insert(choice_hash(walked)).second) {
                           out.candidates.push_back(walked);
                         }
                         return out.candidates.size() < cap;
                       });
  } else {
    // The stride arithmetic below is exact only because product_size
    // saturates instead of wrapping (guarded above).
    assert(total < std::numeric_limits<std::size_t>::max());
    // Cheap necessary-condition pre-gate in front of the full validate.
    // Predicates can only reject points validate would also reject, so the
    // probed candidate set is bit-identical to the unfiltered probe's — the
    // definite failures just skip the decode + validate.
    std::vector<int> values(domains.size());
    const auto plausible = [&](const Choice& probe) {
      if (cs.empty()) return true;
      for (std::size_t d = 0; d < domains.size(); ++d) {
        values[d] = domains[d].values[probe[d]];
      }
      return cs.accepts(values.data());
    };
    const double step =
        static_cast<double>(total) / static_cast<double>(std::max<std::size_t>(cap, 1));
    Choice c;
    for (std::size_t i = 0; i < cap; ++i) {
      choice_from_flat_into(static_cast<std::size_t>(i * step), domains, c);
      ++out.visited;
      if (!plausible(c)) continue;
      if (!problem.legal(c)) continue;
      ++out.legal;
      if (present.insert(choice_hash(c)).second) out.candidates.push_back(c);
    }
  }
  detail::append_seed_grid(problem, out.candidates, present);

  detail::score_and_order(problem, config, top_k, out);
  return out;
}

template <typename Op>
class ModelGuidedTopK final : public SearchStrategy<Op> {
 public:
  using Base = SearchStrategy<Op>;
  using Tuning = typename Base::Tuning;

  ModelGuidedTopK(const SearchProblem<Op>& problem, const SearchConfig& config)
      : Base(problem, config) {
    if (this->problem_.model == nullptr) {
      throw std::invalid_argument("model_topk: this strategy requires a trained model");
    }
  }

  const char* name() const override { return "model_topk"; }

  std::vector<Proposal<Tuning>> propose(std::size_t max_batch) override {
    if (!ranked_) rank();
    std::vector<Proposal<Tuning>> out;
    while (out.size() < max_batch && next_ < ranked_space_.order.size()) {
      const std::size_t i = ranked_space_.order[next_++];
      out.push_back(
          this->make_proposal(ranked_space_.candidates[i], ranked_space_.scores[i]));
    }
    return out;
  }

 private:
  void rank() {
    ranked_ = true;
    // Only the first `budget` ranks can ever be proposed.
    ranked_space_ = rank_legal_space(this->problem_, this->config_,
                                     std::max<std::size_t>(this->config_.budget, 1));
    this->stats_.visited += ranked_space_.visited;
    this->stats_.legal += ranked_space_.legal;
  }

  bool ranked_ = false;
  RankedCandidates<Op> ranked_space_;
  std::size_t next_ = 0;
};

}  // namespace isaac::search
