// Set-up: the paper's offline phase (collect + train) and the warm-up of the
// execute set, paid fresh on every run. Nothing is read from disk. (The
// dispatch set is warmed by the cold phase, which runs first.)
#include <stdexcept>

#include "bench.hpp"
#include "gpusim/device.hpp"
#include "mlp/regressor.hpp"
#include "trace.hpp"
#include "tuning/collector.hpp"

namespace perfbench {

namespace {

// Model size: the quickstart example's (4000 samples, 10 epochs), the same
// network shape Context::train_model uses.
constexpr std::size_t kSamples = 4000;
constexpr int kEpochs = 10;
constexpr int kSetupRepeats = 3;

/// Warm `shapes` until every entry is refined.
template <typename Op>
void warm(icore::Context& ctx, const std::vector<typename icore::OperationTraits<Op>::Shape>& shapes) {
  using Shape = typename icore::OperationTraits<Op>::Shape;
  ctx.warmup<Op>(shapes).get();
  ctx.drain_background();
  const std::string& dev = ctx.device().name;
  // A hit on an entry that is not yet refined re-arms its refinement.
  for (int round = 0;; ++round) {
    bool all_refined = true;
    for (const Shape& s : shapes) {
      if (ctx.cache().tier(icore::ProfileCache::key<Op>(dev, s)) != icore::EntryTier::refined) {
        all_refined = false;
        ctx.select<Op>(s);
      }
    }
    if (all_refined) break;
    if (round == 20) throw std::runtime_error("setup: warm-up did not converge to refined");
    ctx.drain_background();
  }
}

}  // namespace

void setup(Bench& b) {
  // Three complete set-ups, each on a fresh Context with the library's
  // default options; the last one is kept.
  const icore::ContextOptions options;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<icore::Context> ctx;
    {
      trace::Span span("core.context_build", b.cfg.seed);
      ctx = std::make_unique<icore::Context>(isaac::gpusim::tesla_p100(), options);
    }
    isaac::tuning::CollectorConfig collect_cfg;
    collect_cfg.num_samples = kSamples;
    collect_cfg.seed = options.seed ^ 0xDA7A;
    isaac::tuning::CollectionReport report;
    {
      trace::Span span("tuning.collect", b.cfg.seed);
      report = isaac::tuning::collect_gemm(ctx->simulator(), collect_cfg);
    }
    isaac::mlp::TrainConfig train_cfg;
    train_cfg.net.hidden = {64, 128, 64};
    train_cfg.epochs = kEpochs;
    train_cfg.seed = options.seed;
    {
      trace::Span span("mlp.train", b.cfg.seed);
      ctx->set_model(isaac::mlp::train(report.dataset, train_cfg));
    }
    {
      trace::Span span("core.warmup", b.cfg.seed);
      for_each_op([&](auto op) {
        using Op = decltype(op);
        warm<Op>(*ctx, shapes_of<Op>(b.execute_set));
      });
    }
    setup_s.push_back(seconds_between(t0, now_ns()));
    b.ctx = std::move(ctx);
  }
  b.e2e.set("setup_s", median(setup_s), "s");
}

}  // namespace perfbench
