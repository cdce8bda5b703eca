// Runtime kernel inference (paper §6), on top of the pluggable search
// subsystem (src/search/).
//
// With the input parameters fixed by the user, tune<Op>() optimizes over the
// tuning parameters by driving a SearchStrategy under an explicit measurement
// budget. The default strategy, "model_topk", is the paper's recipe: rank the
// legal space with the trained regression model ("guaranteed to find the
// global optimum within the specified search range", "highly parallelizable"
// — batched through the MLP), then re-time only the best predictions on the
// device to "smooth out the inherent noise of our predictive model".
// Alternative strategies (exhaustive / random / genetic / annealing) plug in
// through SearchConfig::strategy; see search/factory.hpp.
//
// The whole pipeline is one templated tune<Op>() over OperationTraits<Op>
// (core/operation.hpp).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/operation.hpp"
#include "gpusim/simulator.hpp"
#include "mlp/regressor.hpp"
#include "search/config.hpp"

namespace isaac::core {

template <typename Tuning>
struct Candidate {
  Tuning tuning{};
  double predicted_gflops = 0.0;  // 0 for model-free strategies
  double measured_gflops = 0.0;
};

template <typename Tuning>
struct TuneResult {
  Candidate<Tuning> best{};
  std::vector<Candidate<Tuning>> top;  // distinct measured candidates, best first
  std::size_t enumerated = 0;          // points of X̂ the strategy visited
  std::size_t legal = 0;               // subset that passed validation
  std::size_t measured = 0;            // device evaluations spent (≤ budget)
  std::string strategy;                // resolved strategy name
  std::size_t budget = 0;              // resolved evaluation budget
  bool stopped_early = false;          // deadline/cancellation cut the drive
                                       // loop; best is the anytime result
};

using GemmTuneResult = TuneResult<codegen::GemmTuning>;
using ConvTuneResult = TuneResult<codegen::ConvTuning>;
using BatchedGemmTuneResult = TuneResult<codegen::GemmTuning>;

/// A zero-measurement model decision (the dispatch fast path's tier 1).
template <typename Tuning>
struct PredictResult {
  Tuning tuning{};                // the model's argmax over the probed legal set
  double predicted_gflops = 0.0;
  std::size_t enumerated = 0;     // X̂ points legality-checked
  std::size_t legal = 0;          // subset that passed validation
  bool dense_fallback = false;    // strided probe found nothing legal; swept X̂
};

using GemmPredictResult = PredictResult<codegen::GemmTuning>;
using ConvPredictResult = PredictResult<codegen::ConvTuning>;
using BatchedGemmPredictResult = PredictResult<codegen::GemmTuning>;

/// Optimize the model over Op's tuning parameters for `shape` with the
/// configured strategy and budget (zero-valued SearchConfig fields resolve
/// against OperationTraits<Op>::default_search()). Throws std::runtime_error
/// when no legal configuration exists and std::invalid_argument for an
/// unknown strategy. Thread-safe: shares only const state and the global
/// thread pool. `model` is borrowed for the whole call — a caller whose
/// model can be hot-swapped (Context) pins one VersionedModel snapshot per
/// tune and passes its regressor, so the returned ranking (TuneResult::top,
/// the search's measured set, which the online lifecycle folds into the
/// observation log) is attributable to exactly one model version.
template <typename Op>
TuneResult<typename OperationTraits<Op>::Tuning> tune(
    const typename OperationTraits<Op>::Shape& shape, const mlp::Regressor& model,
    const gpusim::Simulator& sim, const search::SearchConfig& config = {});

/// The model's argmax over a bounded probe of the legal space — tune<Op>()'s
/// tier-1 sibling, factored out of ModelGuidedTopK's ranking core. Spends
/// *zero* device measurements: at most SearchConfig::max_candidates legality
/// checks (deterministic flat-index striding of X̂, seed grid always
/// re-appended) plus one batched model pass, so a cold dispatch answers in
/// ranking time instead of search time. Degenerate shapes whose sparse legal
/// set the stride misses fall back to a dense legality sweep (still
/// measurement-free); throws std::runtime_error only when no legal
/// configuration exists at all. Thread-safe like tune<Op>().
template <typename Op>
PredictResult<typename OperationTraits<Op>::Tuning> predict(
    const typename OperationTraits<Op>::Shape& shape, const mlp::Regressor& model,
    const gpusim::DeviceDescriptor& device, const search::SearchConfig& config = {});

extern template GemmTuneResult tune<GemmOp>(const codegen::GemmShape&, const mlp::Regressor&,
                                            const gpusim::Simulator&,
                                            const search::SearchConfig&);
extern template ConvTuneResult tune<ConvOp>(const codegen::ConvShape&, const mlp::Regressor&,
                                            const gpusim::Simulator&,
                                            const search::SearchConfig&);
extern template BatchedGemmTuneResult tune<BatchedGemmOp>(const codegen::BatchedGemmShape&,
                                                          const mlp::Regressor&,
                                                          const gpusim::Simulator&,
                                                          const search::SearchConfig&);
extern template GemmPredictResult predict<GemmOp>(const codegen::GemmShape&,
                                                  const mlp::Regressor&,
                                                  const gpusim::DeviceDescriptor&,
                                                  const search::SearchConfig&);
extern template ConvPredictResult predict<ConvOp>(const codegen::ConvShape&,
                                                  const mlp::Regressor&,
                                                  const gpusim::DeviceDescriptor&,
                                                  const search::SearchConfig&);
extern template BatchedGemmPredictResult predict<BatchedGemmOp>(
    const codegen::BatchedGemmShape&, const mlp::Regressor&, const gpusim::DeviceDescriptor&,
    const search::SearchConfig&);

}  // namespace isaac::core
