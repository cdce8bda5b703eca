// Concurrent dispatch runtime tests: a shared Context hammered from many
// threads must (a) produce numerics identical to the serial reference,
// (b) lead each distinct cold shape exactly once (single-flight) and refine
// it exactly once in the background (two-tier dispatch), and (c) keep the
// profile cache consistent under concurrent writers.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "codegen/batched_gemm_executor.hpp"
#include "codegen/gemm_executor.hpp"
#include "common/thread_pool.hpp"
#include "core/isaac.hpp"
#include "gpusim/device.hpp"
#include "tuning/collector.hpp"

namespace isaac::core {
namespace {

constexpr int kThreads = 8;

/// One small trained model shared by every test in this binary (training is
/// the expensive part; the suite budget is single-digit seconds).
const mlp::Regressor& shared_model() {
  static const mlp::Regressor model = [] {
    gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 123);
    tuning::CollectorConfig cfg;
    cfg.num_samples = 2000;
    cfg.seed = 424242;
    const auto report = tuning::collect_gemm(sim, cfg);
    mlp::TrainConfig tc;
    tc.net.hidden = {48, 48};
    tc.epochs = 8;
    return mlp::train(report.dataset, tc);
  }();
  return model;
}

ContextOptions fast_options() {
  ContextOptions opts;
  opts.search.budget = 10;
  opts.search.reeval_reps = 3;
  opts.search.max_candidates = 8000;
  return opts;
}

/// Distinct small GEMM shapes (distinct cache keys) sized so the functional
/// executor stays cheap under thousands of calls.
std::vector<codegen::GemmShape> stress_shapes() {
  std::vector<codegen::GemmShape> shapes;
  for (const auto& [m, n, k] : {std::tuple{48, 32, 96}, std::tuple{64, 16, 128},
                               std::tuple{32, 48, 64}, std::tuple{96, 24, 80},
                               std::tuple{40, 40, 120}, std::tuple{56, 8, 144}}) {
    codegen::GemmShape s;
    s.m = m;
    s.n = n;
    s.k = k;
    s.trans_b = (n % 16) == 0;
    shapes.push_back(s);
  }
  return shapes;
}

struct GemmProblem {
  codegen::GemmShape shape;
  std::vector<float> a, b, c_ref;
};

GemmProblem make_problem(const codegen::GemmShape& shape, std::uint64_t seed) {
  GemmProblem p;
  p.shape = shape;
  Rng rng(seed);
  p.a.resize(static_cast<std::size_t>(shape.m * shape.k));
  p.b.resize(static_cast<std::size_t>(shape.n * shape.k));
  for (auto& x : p.a) x = static_cast<float>(rng.uniform(-1, 1));
  for (auto& x : p.b) x = static_cast<float>(rng.uniform(-1, 1));
  p.c_ref.assign(static_cast<std::size_t>(shape.m * shape.n), 0.0f);
  const std::int64_t ldb = shape.trans_b ? shape.n : shape.k;
  codegen::reference_gemm(shape, 1.0f, p.a.data(), shape.m, p.b.data(), ldb, 0.0f,
                          p.c_ref.data(), shape.m);
  return p;
}

double max_abs_diff(const std::vector<float>& got, const std::vector<float>& want) {
  double max_diff = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    max_diff = std::max(max_diff, static_cast<double>(std::abs(got[i] - want[i])));
  }
  return max_diff;
}

TEST(ConcurrentDispatch, StressMatchesSerialReferenceAndTunesOnce) {
  Context ctx(gpusim::tesla_p100(), fast_options());
  ctx.set_model(shared_model());

  const auto shapes = stress_shapes();
  std::vector<GemmProblem> problems;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    problems.push_back(make_problem(shapes[i], 100 + i));
  }

  // Pre-warm a subset so the mix has hot and cold shapes from the start.
  for (std::size_t i = 0; i < 2; ++i) {
    auto& p = problems[i];
    std::vector<float> c(p.c_ref.size(), 0.0f);
    const std::int64_t ldb = p.shape.trans_b ? p.shape.n : p.shape.k;
    ctx.gemm(p.shape, 1.0f, p.a.data(), p.shape.m, p.b.data(), ldb, 0.0f, c.data(), p.shape.m);
  }
  ctx.drain_background();  // let the two pre-warm refinements land
  ASSERT_EQ(ctx.tuning_runs(), 2u);

  constexpr int kItersPerThread = 12;
  std::atomic<int> failures{0};
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kItersPerThread; ++it) {
        // Each thread walks the shape list with its own offset, so every
        // cold shape sees several concurrent first-callers.
        const auto& p = problems[(t + it) % problems.size()];
        std::vector<float> c(p.c_ref.size(), 0.0f);
        const std::int64_t ldb = p.shape.trans_b ? p.shape.n : p.shape.k;
        const auto info = ctx.gemm(p.shape, 1.0f, p.a.data(), p.shape.m, p.b.data(), ldb, 0.0f,
                                   c.data(), p.shape.m);
        if (info.gflops <= 0.0 || max_abs_diff(c, p.c_ref) > 1e-2) {
          if (failures.fetch_add(1) == 0) {
            errors[t] = "mismatch on " + p.shape.to_string();
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0) << errors[0];
  // Single-flight + exactly-once refinement: each distinct shape was led
  // once and refined once, no matter how many threads raced on its cold
  // start. (Four shapes went cold under two-tier dispatch: one prediction
  // each; the refinement is what tuning_runs counts.)
  ctx.drain_background();
  EXPECT_EQ(ctx.tuning_runs(), problems.size());
  EXPECT_EQ(ctx.predictions(), problems.size());
}

TEST(ConcurrentDispatch, ColdShapeBurstPredictsOnceRefinesOnce) {
  // The two-tier stress case: N threads race one cold shape. Exactly one
  // leader serves the provisional model prediction (zero measurements on its
  // thread), exactly one background refinement runs, and the cache entry
  // ends refined.
  Context ctx(gpusim::tesla_p100(), fast_options());
  ctx.set_model(shared_model());

  codegen::GemmShape shape;
  shape.m = 72;
  shape.n = 40;
  shape.k = 112;

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> cold_calls{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      bool from_cache = false;
      const auto tuning = ctx.select<GemmOp>(shape, &from_cache);
      EXPECT_TRUE(codegen::validate(shape, tuning, ctx.device()));
      if (!from_cache) cold_calls.fetch_add(1);
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true);
  for (auto& th : threads) th.join();

  EXPECT_EQ(ctx.predictions(), 1u);  // exactly one provisional prediction
  EXPECT_EQ(cold_calls.load(), 1);   // exactly one leader paid for it

  ctx.drain_background();
  EXPECT_EQ(ctx.refinements(), 1u);  // exactly one background refinement
  EXPECT_EQ(ctx.tuning_runs(), 1u);
  EntryTier tier = EntryTier::provisional;
  const auto final_entry = ctx.cache().lookup<GemmOp>(ctx.device().name, shape, &tier);
  ASSERT_TRUE(final_entry.has_value());
  EXPECT_EQ(tier, EntryTier::refined);
  EXPECT_TRUE(codegen::validate(shape, *final_entry, ctx.device()));
}

TEST(ConcurrentDispatch, ColdSelectIsMeasurementFreeAndRefinementMatchesBlocking) {
  // Tier 1 answers without a single simulated measurement on the calling
  // thread, and the background refinement converges to the same selection a
  // blocking search would have made.
  auto opts = fast_options();
  opts.noise_sigma = 0.0;  // deterministic measurements: selections comparable
  Context two_tier(gpusim::tesla_p100(), opts);
  two_tier.set_model(shared_model());
  auto blocking_opts = opts;
  blocking_opts.two_tier = false;
  Context blocking(gpusim::tesla_p100(), blocking_opts);
  blocking.set_model(shared_model());

  codegen::GemmShape shape;
  shape.m = 80;
  shape.n = 56;
  shape.k = 128;

  // Park every pool worker on a latch so the background refinement cannot
  // start until the counter has been read: any launch observed between here
  // and the release would have come from the calling thread. (The fast path
  // itself stays live — parallel_for's calling thread drains its own chunks.)
  std::atomic<bool> release{false};
  for (std::size_t i = 0; i < ThreadPool::global().size(); ++i) {
    ThreadPool::global().submit([&release] {
      while (!release.load()) std::this_thread::yield();
    });
  }
  const std::uint64_t launches_before = two_tier.simulator().launches();
  bool from_cache = true;
  EntryTier tier = EntryTier::refined;
  const auto predicted = two_tier.select<GemmOp>(shape, &from_cache, &tier);
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(tier, EntryTier::provisional);
  EXPECT_TRUE(codegen::validate(shape, predicted, two_tier.device()));
  // Tier 1 ran no simulated measurement on the calling thread.
  EXPECT_EQ(two_tier.simulator().launches(), launches_before);
  release.store(true);

  const auto truth = blocking.select<GemmOp>(shape);
  two_tier.drain_background();
  const auto refined = two_tier.cache().lookup<GemmOp>(two_tier.device().name, shape, &tier);
  ASSERT_TRUE(refined.has_value());
  EXPECT_EQ(tier, EntryTier::refined);
  EXPECT_EQ(*refined, truth);  // same search config, noise-free: same winner
}

TEST(ConcurrentDispatch, WarmupPreTunesAsynchronously) {
  Context ctx(gpusim::tesla_p100(), fast_options());
  ctx.set_model(shared_model());

  auto shapes = stress_shapes();
  shapes.resize(3);
  auto done = ctx.warmup<GemmOp>(shapes);
  done.wait();
  // The warmup future resolves once every shape is cached (provisionally at
  // least); draining also lands the refinements.
  EXPECT_EQ(ctx.predictions(), shapes.size());
  ctx.drain_background();
  EXPECT_EQ(ctx.tuning_runs(), shapes.size());

  // Every warmed shape dispatches straight from the (refined) cache.
  for (const auto& shape : shapes) {
    bool from_cache = false;
    EntryTier tier = EntryTier::provisional;
    ctx.select<GemmOp>(shape, &from_cache, &tier);
    EXPECT_TRUE(from_cache) << shape.to_string();
    EXPECT_EQ(tier, EntryTier::refined) << shape.to_string();
  }
  EXPECT_EQ(ctx.tuning_runs(), shapes.size());
}

TEST(ConcurrentDispatch, AbandonedWarmupFutureIsSafe) {
  // Warmup tasks capture the Context; dropping the future and destroying the
  // Context immediately must not leave tasks running against freed state
  // (~Context blocks until the queue drains).
  auto shapes = stress_shapes();
  shapes.resize(2);
  {
    Context ctx(gpusim::tesla_p100(), fast_options());
    ctx.set_model(shared_model());
    ctx.warmup<GemmOp>(shapes);  // future discarded on purpose
  }                              // ~Context waits for both tasks here
  SUCCEED();
}

TEST(ConcurrentDispatch, BatchedGemmSingleFlight) {
  Context ctx(gpusim::tesla_p100(), fast_options());
  ctx.set_model(shared_model());

  codegen::BatchedGemmShape shape;
  shape.batch = 6;
  shape.gemm.m = 40;
  shape.gemm.n = 24;
  shape.gemm.k = 64;

  const std::int64_t stride_a = shape.gemm.m * shape.gemm.k;
  const std::int64_t stride_b = shape.gemm.k * shape.gemm.n;
  const std::int64_t stride_c = shape.gemm.m * shape.gemm.n;
  Rng rng(9);
  std::vector<float> a(static_cast<std::size_t>(stride_a * shape.batch));
  std::vector<float> b(static_cast<std::size_t>(stride_b * shape.batch));
  for (auto& x : a) x = static_cast<float>(rng.uniform(-1, 1));
  for (auto& x : b) x = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> c_ref(static_cast<std::size_t>(stride_c * shape.batch), 0.0f);
  codegen::reference_batched_gemm(shape, 1.0f, a.data(), shape.gemm.m, stride_a, b.data(),
                                  shape.gemm.k, stride_b, 0.0f, c_ref.data(), shape.gemm.m,
                                  stride_c);

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<float> c(c_ref.size(), 0.0f);
      const auto info =
          ctx.batched_gemm(shape, 1.0f, a.data(), shape.gemm.m, stride_a, b.data(),
                           shape.gemm.k, stride_b, 0.0f, c.data(), shape.gemm.m, stride_c);
      if (info.tuning.kg != 1 || max_abs_diff(c, c_ref) > 1e-2) failures.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ctx.predictions(), 1u);
  ctx.drain_background();
  EXPECT_EQ(ctx.tuning_runs(), 1u);
}

TEST(ConcurrentDispatch, DiskLoadedProvisionalEntryIsRefinedOnHit) {
  // A process that dies between its tier-1 prediction and the refinement
  // landing leaves `tier=provisional` on disk. The next process to hit that
  // entry serves it instantly but re-arms the background refinement.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "isaac_cache_two_tier_test").string();
  std::filesystem::remove_all(dir);

  codegen::GemmShape shape;
  shape.m = 64;
  shape.n = 32;
  shape.k = 96;
  const std::string dev = gpusim::tesla_p100().name;
  {
    ProfileCache stale(dir);
    const auto pred = predict<GemmOp>(shape, shared_model(), gpusim::tesla_p100());
    stale.store<GemmOp>(dev, shape, pred.tuning,
                        ProfileCache::provenance("predict", 0, EntryTier::provisional));
  }

  auto opts = fast_options();
  opts.cache_dir = dir;
  Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(shared_model());

  bool from_cache = false;
  EntryTier tier = EntryTier::refined;
  ctx.select<GemmOp>(shape, &from_cache, &tier);
  EXPECT_TRUE(from_cache);  // served instantly from the stale entry
  EXPECT_EQ(tier, EntryTier::provisional);

  ctx.drain_background();
  EXPECT_EQ(ctx.predictions(), 0u);  // no new prediction, just the re-armed refinement
  EXPECT_EQ(ctx.refinements(), 1u);
  EXPECT_EQ(ctx.cache().tier(ProfileCache::key<GemmOp>(dev, shape)), EntryTier::refined);
  std::filesystem::remove_all(dir);
}

TEST(ProfileCacheConcurrency, ParallelStoresAndLookupsStayConsistent) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "isaac_cache_mt_test").string();
  std::filesystem::remove_all(dir);

  constexpr int kShapesPerThread = 24;
  {
    ProfileCache cache(dir);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, t] {
        for (int i = 0; i < kShapesPerThread; ++i) {
          codegen::GemmShape shape;
          shape.m = 16 + t;
          shape.n = 16 + i;
          shape.k = 64;
          codegen::GemmTuning tuning;
          tuning.ml = 32;
          tuning.nl = 16 << (i % 3);
          cache.store<GemmOp>("p100", shape, tuning);
          const auto got = cache.lookup<GemmOp>("p100", shape);
          if (!got || got->nl != tuning.nl) {
            ADD_FAILURE() << "lost store for " << shape.to_string();
            return;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(kThreads * kShapesPerThread));
  }

  // The flocked append never tears lines: a fresh instance reloads every
  // entry the writers produced.
  ProfileCache reloaded(dir);
  EXPECT_EQ(reloaded.size(), static_cast<std::size_t>(kThreads * kShapesPerThread));
  std::filesystem::remove_all(dir);
}

TEST(ConcurrentDispatch, TuningFailurePropagatesToAllWaiters) {
  Context ctx(gpusim::tesla_p100(), fast_options());
  ctx.set_model(shared_model());

  codegen::GemmShape shape;
  shape.m = shape.n = 64;
  shape.k = 2;  // below the smallest prefetch depth: no legal config

  std::atomic<int> throws{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        ctx.select<GemmOp>(shape);
      } catch (const std::runtime_error&) {
        throws.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(throws.load(), kThreads);  // nobody hangs, everybody sees the error
  // A failed flight leaves no cache entry and no stuck in-flight record: a
  // later caller retries (and fails) cleanly.
  EXPECT_THROW(ctx.select<GemmOp>(shape), std::runtime_error);
}

TEST(ConcurrentDispatch, HotSwapDuringDispatchIsRaceFree) {
  // The latent set_model() race this PR closes: swapping the model while
  // readers rank with it used to hand dispatchers a reference into an object
  // being destroyed. Under the snapshot API every reader pins one
  // shared_ptr<const VersionedModel> per operation, so a writer thread
  // hammering set_model() while kThreads dispatch cold shapes must be clean
  // under TSan and never wrong: each select still returns a legal tuning.
  Context ctx(gpusim::tesla_p100(), fast_options());
  ctx.set_model(shared_model());
  const std::uint64_t first_version = ctx.model_snapshot()->version();

  std::atomic<bool> stop{false};
  std::atomic<int> swaps{0};
  std::thread writer([&] {
    while (!stop.load()) {
      ctx.set_model(mlp::Regressor(shared_model()));  // fresh copy each swap
      swaps.fetch_add(1);
      std::this_thread::yield();
    }
  });

  const auto shapes = stress_shapes();
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int it = 0; it < 16; ++it) {
        const auto& shape = shapes[(t + it) % shapes.size()];
        const auto tuning = ctx.select<GemmOp>(shape);
        if (!codegen::validate(shape, tuning, ctx.device())) failures.fetch_add(1);
        // Pinned snapshots stay valid even while the writer churns versions.
        const auto snap = ctx.model_snapshot();
        if (!snap || snap->version() < first_version) failures.fetch_add(1);
        (void)snap->regressor().num_features();
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  writer.join();
  ctx.drain_background();  // refinements pinned their own snapshots; all land

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(swaps.load(), 0);
  // Every install bumped the monotonic version; swaps of a live model count.
  EXPECT_EQ(ctx.model_snapshot()->version(),
            first_version + static_cast<std::uint64_t>(swaps.load()));
  EXPECT_EQ(ctx.model_swaps(), static_cast<std::size_t>(swaps.load()));
}

}  // namespace
}  // namespace isaac::core
