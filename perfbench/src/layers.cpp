// Per-layer probes for the traced run: direct calls into each layer's public
// functions, one span each, on shapes from the run's own sets. The phases
// already spanned core.select / codegen.execute / gpusim.*; these cover the
// layers a cold dispatch and a refinement go through.
#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "core/inference.hpp"
#include "linalg/blas.hpp"
#include "search/model_topk.hpp"
#include "trace.hpp"
#include "tuning/dataset.hpp"

namespace perfbench {

namespace {

constexpr int kForkJoins = 2000;
constexpr std::size_t kForkJoinWidth = 32;  // gemm executor's fan-out order
constexpr std::size_t kScoreRows = 65536;
constexpr int kGemmReps = 20;

std::atomic<std::uint64_t> g_sink{0};

/// The configuration core::predict probes with under the Context defaults:
/// the op's default search, where a dense ranking (no cap) is replaced by
/// predict's 8192-candidate tier-1 probe cap.
template <typename Op>
isaac::search::SearchConfig tier1_config() {
  isaac::search::SearchConfig cfg = icore::OperationTraits<Op>::default_search();
  if (cfg.max_candidates == 0) cfg.max_candidates = 8192;
  return cfg;
}

struct ProbeTotals {
  double candidates = 0.0, visited = 0.0, legal = 0.0;
  std::size_t probes = 0;
  isaac::tuning::FeatureBatch rows{isaac::tuning::kNumFeatures};
};

/// rank_strided_probe as core::predict runs it, then featurize its candidates.
template <typename Op>
void probe_rank(const Bench& b, const typename icore::OperationTraits<Op>::Shape& shape,
                const isaac::mlp::Regressor& model, ProbeTotals& totals) {
  using Traits = icore::OperationTraits<Op>;
  const typename Traits::SearchSpace space;
  isaac::search::SearchProblem<Op> problem;
  problem.shape = &shape;
  problem.device = &b.ctx->device();
  problem.space = &space;
  problem.model = &model;
  isaac::search::RankedCandidates<Op> ranked;
  {
    trace::Span span("search.probe", (std::uint64_t{5} << 40) | ++totals.probes);
    ranked = isaac::search::rank_strided_probe(problem, tier1_config<Op>(), 1);
  }
  totals.candidates += static_cast<double>(ranked.candidates.size());
  totals.visited += static_cast<double>(ranked.visited);
  totals.legal += static_cast<double>(ranked.legal);

  std::vector<typename Traits::Tuning> tunings;
  for (const auto& c : ranked.candidates) tunings.push_back(space.decode(c));
  isaac::tuning::FeatureBatch batch(isaac::tuning::kNumFeatures, tunings.size());
  {
    trace::Span span("tuning.featurize");
    for (std::size_t i = 0; i < tunings.size(); ++i) Traits::featurize_into(shape, tunings[i], batch.row(i));
  }
  for (std::size_t i = 0; i < batch.rows(); ++i) {
    std::copy(batch.row(i), batch.row(i) + batch.arity(), totals.rows.append_row());
  }
}

double per_row(const std::map<std::string, trace::Summary>& s, const char* name, double rows) {
  const auto it = s.find(name);
  if (it == s.end() || rows <= 0.0) return 0.0;
  double total = 0.0;
  for (double v : it->second.duration_ns) total += v;
  return total / rows;
}

}  // namespace

void probe_layers(Bench& b) {
  // ---- common: one fork/join on trivial work -------------------------------
  std::vector<std::uint64_t> slots(kForkJoinWidth, 0);
  for (int i = 0; i < kForkJoins; ++i) {
    trace::Span span("common.fork_join", (std::uint64_t{4} << 40) | static_cast<std::uint64_t>(i + 1));
    isaac::ThreadPool::global().parallel_for_each(kForkJoinWidth, [&](std::size_t j) { ++slots[j]; });
  }

  // ---- search + tuning: tier-1 probe ranking and featurization ---------------
  const auto snapshot = b.ctx->model_snapshot();
  const isaac::mlp::Regressor& model = snapshot->regressor();
  ProbeTotals totals;
  for (std::size_t i = 0; i < 8 && i < b.dispatch_set.gemm.size(); ++i) {
    probe_rank<icore::GemmOp>(b, b.dispatch_set.gemm[i], model, totals);
  }
  for (std::size_t i = 0; i < 4 && i < b.dispatch_set.conv.size(); ++i) {
    probe_rank<icore::ConvOp>(b, b.dispatch_set.conv[i], model, totals);
  }
  for (std::size_t i = 0; i < 4 && i < b.dispatch_set.bgemm.size(); ++i) {
    probe_rank<icore::BatchedGemmOp>(b, b.dispatch_set.bgemm[i], model, totals);
  }

  // ---- mlp: forward per row on one thread, and pooled scoring throughput -----
  isaac::tuning::FeatureBatch batch(isaac::tuning::kNumFeatures, kScoreRows);
  for (std::size_t i = 0; i < kScoreRows; ++i) {
    const double* src = totals.rows.row(i % totals.rows.rows());
    std::copy(src, src + batch.arity(), batch.row(i));
  }
  const std::size_t chunk = isaac::search::SearchConfig{}.batch;
  isaac::tuning::FeatureBatch one_chunk(isaac::tuning::kNumFeatures, chunk);
  std::copy(batch.data(), batch.data() + chunk * batch.arity(), one_chunk.data());
  for (int rep = 0; rep < 8; ++rep) {
    trace::Span span("mlp.forward");  // a single chunk runs on the calling thread
    g_sink += static_cast<std::uint64_t>(model.predict_gflops_chunked(one_chunk, chunk).size());
  }
  for (int rep = 0; rep < 4; ++rep) {
    trace::Span span("mlp.score");
    g_sink += static_cast<std::uint64_t>(model.predict_gflops_chunked(batch, chunk).size());
  }

  // ---- linalg: the MLP's widest layer (64 -> 128) on one scoring chunk -------
  const std::size_t hidden_in = 64, hidden_out = 128;
  isaac::linalg::Matrix x(chunk, hidden_in, 0.5f), w(hidden_in, hidden_out, 0.25f), y(chunk, hidden_out);
  for (int rep = 0; rep < kGemmReps; ++rep) {
    trace::Span span("linalg.gemm");
    isaac::linalg::gemm_serial(isaac::linalg::Trans::No, isaac::linalg::Trans::No, 1.0f, x, w, 0.0f, y);
  }

  // ---- search: full refinement searches with the Context's (default) configuration ----
  for (std::size_t i = 0; i < 2 && i < b.dispatch_set.gemm.size(); ++i) {
    trace::Span span("search.refine", (std::uint64_t{6} << 40) | (i + 1));
    icore::tune<icore::GemmOp>(b.dispatch_set.gemm[i], model, b.ctx->simulator());
  }
  if (!b.dispatch_set.conv.empty()) {
    trace::Span span("search.refine", (std::uint64_t{6} << 40) | 3);
    icore::tune<icore::ConvOp>(b.dispatch_set.conv[0], model, b.ctx->simulator());
  }
  if (!b.dispatch_set.bgemm.empty()) {
    trace::Span span("search.refine", (std::uint64_t{6} << 40) | 4);
    icore::tune<icore::BatchedGemmOp>(b.dispatch_set.bgemm[0], model, b.ctx->simulator());
  }

  // Ratios of work counted at the probe itself; timings come from the spans.
  const auto s = trace::summarize(trace::collect());
  const double probes = static_cast<double>(std::max<std::size_t>(totals.probes, 1));
  b.layers.set("search.probe_candidates", totals.candidates / probes, "count");
  b.layers.set("search.legal_ratio", totals.legal / std::max(1.0, totals.visited), "ratio");
  b.layers.set("tuning.featurize_ns_per_row", per_row(s, "tuning.featurize", totals.candidates), "ns");
  b.layers.set("mlp.forward_ns_per_row", per_row(s, "mlp.forward", 8.0 * static_cast<double>(chunk)), "ns");
  b.layers.set("mlp.configs_per_s", 1e9 / per_row(s, "mlp.score", 4.0 * kScoreRows), "1/s");
  const double gemm_flops = 2.0 * static_cast<double>(chunk * hidden_in * hidden_out) * kGemmReps;
  b.layers.set("linalg.gemm_gflops", gemm_flops / per_row(s, "linalg.gemm", 1.0), "GFLOP/s");
}

}  // namespace perfbench
