// Fault-injected hardening of the dispatch runtime (DESIGN.md, "Failure
// domains"): corrupt-cache quarantine, the fallback tier, the circuit
// breaker, measurement retry, refinement admission control and retry-then-
// drop, disk-write degradation with re-probe, retrain backoff, the
// constructor-time option validation, the execute failpoint's one hit per
// executor call, and the executors' rejection of extreme shapes.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "codegen/batched_gemm_executor.hpp"
#include "codegen/conv_executor.hpp"
#include "codegen/gemm_executor.hpp"
#include "common/circuit_breaker.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "core/isaac.hpp"
#include "gpusim/device.hpp"
#include "mlp/regressor.hpp"
#include "search/config.hpp"
#include "tuning/dataset.hpp"
#include "tuning/observation_log.hpp"

namespace isaac {
namespace {

namespace fp = isaac::failpoint;

/// Every test disarms what it armed, but a crashed expectation must not
/// poison the rest of the binary: sweep on fixture teardown too.
class RobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override { fp::disarm_all(); }
};

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("isaac_robust_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

/// A cheap synthetic-law model: dispatch quality is irrelevant to these
/// tests — only that predict/tune can rank with *a* model.
const mlp::Regressor& unit_model() {
  static const mlp::Regressor model = [] {
    tuning::Dataset data;
    Rng rng(7);
    for (std::size_t i = 0; i < 1200; ++i) {
      tuning::Sample s;
      s.x.assign(tuning::kNumFeatures, 1.0);
      for (std::size_t f = 0; f < 6; ++f) s.x[f] = std::exp(rng.uniform(0.0, 6.0));
      s.y = 50.0 * std::pow(s.x[0], 0.7) * std::pow(s.x[1], 0.4) / s.x[2];
      data.add(std::move(s));
    }
    mlp::TrainConfig cfg;
    cfg.net.hidden = {24, 16};
    cfg.epochs = 6;
    cfg.seed = 99;
    return mlp::train(data, cfg);
  }();
  return model;
}

codegen::GemmShape gemm_shape(std::int64_t m, std::int64_t n, std::int64_t k) {
  codegen::GemmShape s;
  s.m = m;
  s.n = n;
  s.k = k;
  return s;
}

core::ContextOptions fast_options() {
  core::ContextOptions opts;
  opts.search.budget = 6;
  opts.search.reeval_reps = 1;
  opts.search.retry_backoff_ms = 0.0;  // tests should not sleep between retries
  return opts;
}

}  // namespace

// ---- profile cache failure domain --------------------------------------

TEST_F(RobustnessTest, CacheLoadQuarantinesGarbageLines) {
  TempDir dir("garbage");
  const auto shape = gemm_shape(64, 64, 64);
  const auto& tuning = core::OperationTraits<core::GemmOp>::seed_grid().front();
  {
    core::ProfileCache cache(dir.path.string());
    cache.store<core::GemmOp>("devA", shape, tuning,
                              core::ProfileCache::provenance("model_topk", 10,
                                                             core::EntryTier::refined));
  }
  {
    // Foreign garbage, a torn tail, binary junk: every flavor of corruption
    // the append-only file accumulates in the field.
    std::ofstream os(dir.path / "isaac_profiles.txt", std::ios::app);
    os << "complete nonsense without tabs\n";
    os << "one\ttab-but-bad-schema\tno-pipe\textra\n";
    os << "\x01\x02\x03 binary junk\n";
    os << "torn|line|without|value";  // no trailing newline: a torn tail
  }
  core::ProfileCache reloaded(dir.path.string());
  EXPECT_EQ(reloaded.stats().load_corrupt, 4u);
  // The surviving entry is intact and served.
  const auto hit = reloaded.lookup<core::GemmOp>("devA", shape);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(core::OperationTraits<core::GemmOp>::encode_tuning(*hit),
            core::OperationTraits<core::GemmOp>::encode_tuning(tuning));
}

TEST_F(RobustnessTest, FallbackTierRoundTripsAndUpgrades) {
  core::ProfileCache cache;
  const auto shape = gemm_shape(32, 32, 32);
  const auto& grid = core::OperationTraits<core::GemmOp>::seed_grid();
  const std::string meta =
      core::ProfileCache::provenance("fallback", 0, core::EntryTier::fallback);
  EXPECT_NE(meta.find("tier=fallback"), std::string::npos);
  EXPECT_EQ(core::ProfileCache::tier_from_meta(meta), core::EntryTier::fallback);

  cache.store<core::GemmOp>("devA", shape, grid.front(), meta);
  core::EntryTier tier = core::EntryTier::refined;
  ASSERT_TRUE(cache.lookup<core::GemmOp>("devA", shape, &tier).has_value());
  EXPECT_EQ(tier, core::EntryTier::fallback);

  // Fallback sits at the bottom of the ladder: a refinement may replace it…
  EXPECT_TRUE(cache.upgrade<core::GemmOp>(
      "devA", shape, grid.back(),
      core::ProfileCache::provenance("model_topk", 10, core::EntryTier::refined)));
  ASSERT_TRUE(cache.lookup<core::GemmOp>("devA", shape, &tier).has_value());
  EXPECT_EQ(tier, core::EntryTier::refined);
  // …and nothing may demote the refined result back down.
  EXPECT_FALSE(cache.upgrade<core::GemmOp>(
      "devA", shape, grid.front(),
      core::ProfileCache::provenance("fallback", 0, core::EntryTier::fallback)));
}

TEST_F(RobustnessTest, CacheDiskDegradesAndReprobes) {
  TempDir dir("degrade");
  core::ProfileCache cache(dir.path.string());
  cache.set_disk_retry_ms(50.0);
  const auto& grid = core::OperationTraits<core::GemmOp>::seed_grid();

  fp::arm("cache.write_fail", "once");
  cache.store<core::GemmOp>("devA", gemm_shape(32, 32, 32), grid.front());
  EXPECT_TRUE(cache.disk_degraded());
  // Inside the retry window every append is served memory-only.
  cache.store<core::GemmOp>("devA", gemm_shape(48, 48, 48), grid.front());
  EXPECT_GE(cache.disk_writes_skipped(), 1u);
  EXPECT_TRUE(cache.disk_degraded());

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  // The failpoint spent its one shot: the re-probe succeeds and disk writes
  // resume.
  cache.store<core::GemmOp>("devA", gemm_shape(64, 64, 64), grid.front());
  EXPECT_FALSE(cache.disk_degraded());

  // Memory never degraded — all three entries serve.
  EXPECT_TRUE(cache.lookup<core::GemmOp>("devA", gemm_shape(32, 32, 32)).has_value());
  EXPECT_TRUE(cache.lookup<core::GemmOp>("devA", gemm_shape(48, 48, 48)).has_value());
  // The disk lost the degraded-window lines but holds the post-recovery one.
  core::ProfileCache reloaded(dir.path.string());
  EXPECT_TRUE(reloaded.lookup<core::GemmOp>("devA", gemm_shape(64, 64, 64)).has_value());
  EXPECT_FALSE(reloaded.lookup<core::GemmOp>("devA", gemm_shape(32, 32, 32)).has_value());
}

TEST_F(RobustnessTest, ObservationLogDiskDegradesAndReprobes) {
  TempDir dir("obslog");
  tuning::ObservationLog log(64, dir.path.string());
  log.set_disk_retry_ms(50.0);
  tuning::Observation obs;
  obs.op = "gemm";
  obs.features.assign(tuning::kNumFeatures, 1.0);
  obs.measured_gflops = 100.0;
  obs.predicted_gflops = 90.0;

  fp::arm("obslog.write_fail", "once");
  log.append(obs);
  EXPECT_TRUE(log.disk_degraded());
  log.append(obs);
  EXPECT_GE(log.disk_writes_skipped(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  log.append(obs);
  EXPECT_FALSE(log.disk_degraded());
  // The ring kept everything regardless of the disk.
  EXPECT_EQ(log.size(), 3u);
}

// ---- circuit breaker state machine -------------------------------------

TEST_F(RobustnessTest, CircuitBreakerStateMachine) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 2;
  cfg.cooldown_ms = 40.0;
  CircuitBreaker breaker(cfg, "test");

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::closed);
  EXPECT_TRUE(breaker.allow_request());
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::closed);  // 1 < threshold
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::open);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_FALSE(breaker.allow_request());  // cooling down

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(breaker.allow_request());   // the half-open trial
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::half_open);
  EXPECT_FALSE(breaker.allow_request());  // only one trial at a time
  breaker.record_failure();               // trial failed: re-open
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::open);
  EXPECT_EQ(breaker.opens(), 2u);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(breaker.allow_request());
  breaker.record_success();               // trial passed: close + clear streak
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::closed);
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::closed);  // fresh streak
}

// ---- dispatch runtime under injected faults ----------------------------

TEST_F(RobustnessTest, TransientMeasureFailuresAreRetriedTransparently) {
  auto opts = fast_options();
  opts.two_tier = false;  // leader runs the measuring search on this thread
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(mlp::Regressor(unit_model()));

  // Two transient device failures, then clean: the drive loop's bounded
  // retry (default measure_retries = 2) absorbs both without surfacing
  // anything to the caller or the breaker.
  fp::arm("measure.throw", "count:2");
  core::EntryTier tier = core::EntryTier::provisional;
  EXPECT_NO_THROW(ctx.select<core::GemmOp>(gemm_shape(48, 32, 96), nullptr, &tier));
  EXPECT_EQ(tier, core::EntryTier::refined);
  EXPECT_EQ(ctx.fallbacks_served(), 0u);
  EXPECT_EQ(fp::fires("measure.throw"), 2u);
  EXPECT_EQ(ctx.breaker_state("gemm"), CircuitBreaker::State::closed);
}

TEST_F(RobustnessTest, LeaderFailureServesFallbackThenRefinesBack) {
  auto opts = fast_options();
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(mlp::Regressor(unit_model()));

  const auto shape = gemm_shape(64, 48, 128);
  fp::arm("predict.throw", "once");
  core::EntryTier tier = core::EntryTier::refined;
  bool from_cache = true;
  EXPECT_NO_THROW(ctx.select<core::GemmOp>(shape, &from_cache, &tier));
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(tier, core::EntryTier::fallback);
  EXPECT_EQ(ctx.fallbacks_served(), 1u);
  // One failure < threshold: the breaker never opened.
  EXPECT_EQ(ctx.breaker_state("gemm"), CircuitBreaker::State::closed);

  // The catch path re-armed refinement; once the fault clears the entry
  // converges to refined without any caller doing anything special.
  fp::disarm_all();
  ctx.drain_background();
  ctx.select<core::GemmOp>(shape, &from_cache, &tier);
  EXPECT_TRUE(from_cache);
  EXPECT_EQ(tier, core::EntryTier::refined);
  EXPECT_GE(ctx.refinements(), 1u);
}

TEST_F(RobustnessTest, PersistentFailureOpensBreakerAndShortCircuits) {
  auto opts = fast_options();
  opts.two_tier = false;
  opts.search.measure_retries = 0;  // fail fast: the fault is persistent
  opts.fault.breaker_failure_threshold = 2;
  opts.fault.breaker_cooldown_ms = 60.0;
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(mlp::Regressor(unit_model()));

  fp::arm("measure.throw", "prob:1");
  core::EntryTier tier = core::EntryTier::refined;
  // Every select survives: fallback entries, never an exception.
  EXPECT_NO_THROW(ctx.select<core::GemmOp>(gemm_shape(32, 32, 64), nullptr, &tier));
  EXPECT_EQ(tier, core::EntryTier::fallback);
  EXPECT_NO_THROW(ctx.select<core::GemmOp>(gemm_shape(48, 32, 64), nullptr, &tier));
  EXPECT_EQ(ctx.breaker_state("gemm"), CircuitBreaker::State::open);
  // With the breaker open the leader doesn't even attempt the search.
  const auto fires_before = fp::fires("measure.throw");
  EXPECT_NO_THROW(ctx.select<core::GemmOp>(gemm_shape(64, 32, 64), nullptr, &tier));
  EXPECT_EQ(tier, core::EntryTier::fallback);
  EXPECT_GE(ctx.breaker_short_circuits(), 1u);
  EXPECT_EQ(fp::fires("measure.throw"), fires_before);

  // Fault clears; after the cooldown the half-open trial succeeds and the
  // breaker re-closes — fresh shapes get real selections again.
  fp::disarm_all();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_NO_THROW(ctx.select<core::GemmOp>(gemm_shape(96, 32, 64), nullptr, &tier));
  EXPECT_EQ(tier, core::EntryTier::refined);
  EXPECT_EQ(ctx.breaker_state("gemm"), CircuitBreaker::State::closed);
}

TEST_F(RobustnessTest, RefinementAdmissionControlShedsThenConverges) {
  auto opts = fast_options();
  opts.fault.refine_max_pending = 1;
  opts.fault.refine_deadline_ms = 150.0;  // bounds the injected hang below
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(mlp::Regressor(unit_model()));

  std::vector<codegen::GemmShape> shapes;
  for (std::int64_t m : {32, 48, 64, 96, 128, 160}) shapes.push_back(gemm_shape(m, 32, 64));

  // Every refinement wedges for the full deadline: the queue caps at one
  // pending task and the rest are shed (re-armed, not lost).
  fp::arm("refine.hang", "prob:1");
  for (const auto& shape : shapes) EXPECT_NO_THROW(ctx.select<core::GemmOp>(shape));
  EXPECT_GE(ctx.refinements_shed(), 1u);
  ctx.drain_background();
  EXPECT_EQ(ctx.refinements_pending(), 0u);
  // A hung refinement is a failure, not an open breaker: leaders were fine.
  EXPECT_EQ(ctx.breaker_state("gemm"), CircuitBreaker::State::closed);

  // Storm over: repeated hits re-arm refinement (shed keys and failed keys
  // alike) and the cache converges to all-refined.
  fp::disarm_all();
  bool all_refined = false;
  for (int round = 0; round < 20 && !all_refined; ++round) {
    all_refined = true;
    for (const auto& shape : shapes) {
      core::EntryTier tier = core::EntryTier::refined;
      ctx.select<core::GemmOp>(shape, nullptr, &tier);
      all_refined = all_refined && tier == core::EntryTier::refined;
    }
    ctx.drain_background();
  }
  EXPECT_TRUE(all_refined);
}

TEST_F(RobustnessTest, RetrainFailureBacksOffInsteadOfHotLooping) {
  auto opts = fast_options();
  opts.two_tier = false;
  opts.online.enabled = true;
  opts.online.retrain.min_observations = 4;
  opts.online.retrain.epochs = 2;
  opts.online.retrain.failure_backoff_ms = 10000.0;  // plainly observable
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(mlp::Regressor(unit_model()));
  ctx.select<core::GemmOp>(gemm_shape(48, 32, 96));  // seed the log
  ctx.drain_background();

  fp::arm("retrain.throw", "prob:1");
  EXPECT_FALSE(ctx.retrain_now());  // the injected failure surfaces as false
  EXPECT_FALSE(ctx.retrain_in_flight());
  EXPECT_EQ(ctx.retrains(), 0u);
  // Scheduled retrains now refuse to enqueue until the backoff expires — the
  // trigger storm cannot hot-loop the worker.
  EXPECT_FALSE(ctx.request_retrain());
  fp::disarm_all();
  EXPECT_FALSE(ctx.request_retrain());  // still backing off, fault or not
}

// ---- construction-time validation --------------------------------------

TEST_F(RobustnessTest, SearchConfigValidateRejectsNonsense) {
  search::SearchConfig good;
  EXPECT_NO_THROW(good.validate());

  search::SearchConfig cfg;
  cfg.measure_retries = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = {};
  cfg.retry_backoff_ms = -0.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = {};
  cfg.timeout_ms = std::nan("");
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = {};
  cfg.retry_backoff_cap_ms = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST_F(RobustnessTest, ContextOptionsValidateAtConstruction) {
  const auto device = gpusim::tesla_p100();

  core::ContextOptions opts;
  opts.search.measure_retries = -3;
  EXPECT_THROW(core::Context ctx(device, opts), std::invalid_argument);

  opts = {};
  opts.fault.breaker_failure_threshold = 0;
  EXPECT_THROW(core::Context ctx(device, opts), std::invalid_argument);

  opts = {};
  opts.fault.breaker_cooldown_ms = std::nan("");
  EXPECT_THROW(core::Context ctx(device, opts), std::invalid_argument);

  opts = {};
  opts.online.log_capacity = 0;
  EXPECT_THROW(core::Context ctx(device, opts), std::invalid_argument);

  opts = {};
  opts.online.drift.threshold = -1.0;
  EXPECT_THROW(core::Context ctx(device, opts), std::invalid_argument);

  opts = {};
  opts.online.retrain.learning_rate = 0.0;
  EXPECT_THROW(core::Context ctx(device, opts), std::invalid_argument);

  opts = {};
  opts.noise_sigma = -0.1;
  EXPECT_THROW(core::Context ctx(device, opts), std::invalid_argument);
}

// ---- functional executors -----------------------------------------------

TEST_F(RobustnessTest, ExecuteFailpointHitsOncePerExecutorCall) {
  core::Context ctx(gpusim::tesla_p100(), fast_options());
  ctx.set_model(unit_model());
  // Armed but never firing: every evaluation of the site counts a hit.
  fp::arm("execute.throw", "prob:0");
  const std::uint64_t fires_before = fp::fires("execute.throw");

  codegen::BatchedGemmShape batched;
  batched.batch = 6;
  batched.gemm = gemm_shape(24, 16, 32);
  const std::int64_t sa = 24 * 32, sb = 32 * 16, sc = 24 * 16;
  std::vector<float> a(static_cast<std::size_t>(sa * batched.batch), 1.0f);
  std::vector<float> b(static_cast<std::size_t>(sb * batched.batch), 1.0f);
  std::vector<float> c(static_cast<std::size_t>(sc * batched.batch), 0.0f);
  const auto conv = codegen::ConvShape::from_npq(2, 5, 5, 8, 4, 3, 3);
  std::vector<float> input(static_cast<std::size_t>(conv.c * conv.h * conv.w * conv.n), 1.0f);
  std::vector<float> filters(static_cast<std::size_t>(conv.crs() * conv.k), 1.0f);
  std::vector<float> output(static_cast<std::size_t>(conv.k * conv.npq()), 0.0f);

  for (int round = 0; round < 3; ++round) {  // cold call, then cache hits
    std::uint64_t before = fp::hits("execute.throw");
    ctx.batched_gemm(batched, 1.0f, a.data(), 24, sa, b.data(), 32, sb, 0.0f, c.data(), 24, sc);
    EXPECT_EQ(fp::hits("execute.throw") - before, 1u) << "batched_gemm, round " << round;
    before = fp::hits("execute.throw");
    ctx.gemm(batched.gemm, 1.0f, a.data(), 24, b.data(), 32, 0.0f, c.data(), 24);
    EXPECT_EQ(fp::hits("execute.throw") - before, 1u) << "gemm, round " << round;
    before = fp::hits("execute.throw");
    ctx.conv(conv, 1.0f, input.data(), filters.data(), 0.0f, output.data());
    EXPECT_EQ(fp::hits("execute.throw") - before, 1u) << "conv, round " << round;
  }
  EXPECT_EQ(fp::fires("execute.throw"), fires_before);
  for (const float v : c) ASSERT_EQ(v, 32.0f);
  ctx.drain_background();
}

TEST_F(RobustnessTest, ExecutorsRejectOverflowingGridsBeforeWriting) {
  codegen::GemmTuning t;
  t.ms = t.ns = 4;
  t.ml = t.nl = 8;
  t.u = 4;
  // The buffers are never read: each call must throw before touching them.
  std::vector<float> a(16, 1.0f), b(16, 1.0f), c(16, 7.0f);
  const auto untouched = [&] {
    for (const float v : c) {
      if (v != 7.0f) return false;
    }
    return true;
  };

  // M = N = 2^40 with 8×8 tiles: 2^74 blocks.
  const std::int64_t big = std::int64_t{1} << 40;
  const auto huge = gemm_shape(big, big, 1);
  EXPECT_THROW(codegen::execute_gemm(huge, t, 1.0f, a.data(), big, b.data(), 1, 0.5f, c.data(),
                                     big),
               std::invalid_argument);
  // The same grid split along K: the KG pre-pass must not run either.
  t.kg = 4;
  EXPECT_THROW(codegen::execute_gemm(gemm_shape(big, big, 64), t, 1.0f, a.data(), big, b.data(),
                                     64, 0.0f, c.data(), big),
               std::invalid_argument);
  t.kg = 1;
  // 2^34 blocks per item, fine alone, times a 2^30 batch.
  codegen::BatchedGemmShape batched;
  batched.batch = std::int64_t{1} << 30;
  batched.gemm = gemm_shape(std::int64_t{1} << 20, std::int64_t{1} << 20, 1);
  const std::int64_t side = batched.gemm.m;
  EXPECT_THROW(codegen::execute_batched_gemm(batched, t, 1.0f, a.data(), side, side, b.data(), 1,
                                             side, 0.0f, c.data(), side, side * side),
               std::invalid_argument);
  // A stride check whose footprint product itself overflows: 2^40 × 2^30.
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  batched.batch = 2;
  batched.gemm = gemm_shape(8, 8, std::int64_t{1} << 30);
  EXPECT_THROW(codegen::execute_batched_gemm(batched, t, 1.0f, a.data(), big, max, b.data(),
                                             batched.gemm.k, max, 0.0f, c.data(), 8, max),
               std::invalid_argument);
  // Tunings the kernel cannot tile with: empty tiles, and a staged tile
  // (U·KL × ML = 2^35) past the kernel's int indexing.
  codegen::GemmTuning deep = t;
  deep.u = 1 << 20;
  deep.kl = 1 << 12;
  EXPECT_THROW(codegen::execute_gemm(gemm_shape(4, 4, 4), deep, 1.0f, a.data(), 4, b.data(), 4,
                                     0.0f, c.data(), 4),
               std::invalid_argument);
  for (const int bad : {0, -8}) {
    codegen::GemmTuning z = t;
    z.ml = bad;
    EXPECT_THROW(codegen::execute_gemm(gemm_shape(4, 4, 4), z, 1.0f, a.data(), 4, b.data(), 4,
                                       0.0f, c.data(), 4),
                 std::invalid_argument);
    z = t;
    z.kg = bad;
    EXPECT_THROW(codegen::execute_gemm(gemm_shape(4, 4, 4), z, 1.0f, a.data(), 4, b.data(), 4,
                                       0.0f, c.data(), 4),
                 std::invalid_argument);
  }
  EXPECT_TRUE(untouched());

  // Conv: tensor sizes past int64, a zero stride, a negative pad.
  codegen::ConvTuning ct;
  codegen::ConvShape cs = codegen::ConvShape::from_npq(big, 64, 64, 8, big, 3, 3);
  EXPECT_THROW(codegen::execute_conv(cs, ct, 1.0f, a.data(), b.data(), 0.0f, c.data()),
               std::invalid_argument);
  cs = codegen::ConvShape::from_npq(1, 4, 4, 8, 2, 3, 3);
  cs.h = std::numeric_limits<std::int64_t>::max() - 1;
  cs.pad_h = 2;
  EXPECT_THROW(codegen::execute_conv(cs, ct, 1.0f, a.data(), b.data(), 0.0f, c.data()),
               std::invalid_argument);
  cs = codegen::ConvShape::from_npq(1, 4, 4, 8, 2, 3, 3);
  cs.stride_w = 0;
  EXPECT_THROW(codegen::execute_conv(cs, ct, 1.0f, a.data(), b.data(), 0.0f, c.data()),
               std::invalid_argument);
  cs.stride_w = 1;
  cs.pad_h = -1;
  EXPECT_THROW(codegen::execute_conv(cs, ct, 1.0f, a.data(), b.data(), 0.0f, c.data()),
               std::invalid_argument);
  // Small tensors whose gather offsets overflow. A 2^61 pad at a 2^62
  // stride gives P = 2 and a first-row origin of −2^61 · W = −2^64.
  cs = codegen::ConvShape::from_npq(1, 4, 4, 8, 1, 3, 3);
  cs.h = 4;
  cs.w = 8;
  cs.pad_h = std::int64_t{1} << 61;
  cs.stride_h = std::int64_t{1} << 62;
  ASSERT_EQ(cs.p(), 2);
  EXPECT_THROW(codegen::execute_conv(cs, ct, 1.0f, a.data(), b.data(), 0.0f, c.data()),
               std::invalid_argument);
  // A filter 2^10 + 1 rows tall over a 2^9-padded one-row input 2^53
  // wide: one output pixel and 1025 steps, but step r = 2^10 sits at
  // offset r · W = 2^63.
  cs = codegen::ConvShape{};
  cs.w = std::int64_t{1} << 53;
  cs.r = (1 << 10) + 1;
  cs.pad_h = 1 << 9;
  cs.stride_w = cs.w;
  ASSERT_EQ(cs.p(), 1);
  ASSERT_EQ(cs.q(), 1);
  EXPECT_THROW(codegen::execute_conv(cs, ct, 1.0f, a.data(), b.data(), 0.0f, c.data()),
               std::invalid_argument);
  EXPECT_TRUE(untouched());
}

}  // namespace isaac
