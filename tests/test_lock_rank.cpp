// Lock-rank deadlock detector tests (src/common/lock_rank.hpp).
//
// The detector has two layers with different build gates:
//   - the hook machinery in lock_rank.cpp (thread-local held stacks, the
//     violation reporter, the handler slot) is ALWAYS compiled, so the
//     hook-level tests below run in every build type;
//   - the sync::Mutex wrappers only CALL the hooks when
//     ISAAC_LOCK_RANK_CHECKS is on (Debug, or -DISAAC_LOCK_RANK=ON). The
//     wrapper-level tests assert violations when the gate is on and assert
//     *silence* — the compile-out satellite — when it is off.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "codegen/gemm_executor.hpp"
#include "common/lock_rank.hpp"
#include "common/thread_annotations.hpp"
#include "core/isaac.hpp"
#include "gpusim/device.hpp"
#include "tuning/collector.hpp"

namespace isaac {
namespace {

using lock_rank::Rank;

// The violation handler is a plain function pointer, so the recorder state
// lives at namespace scope. Tests that install it are serial within the
// binary (gtest runs tests sequentially) and restore the previous handler.
std::atomic<int> g_violations{0};
std::string g_last_message;  // written only from the test thread's handler

void recording_handler(const char* message) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  g_last_message = message;
  // Returning (instead of aborting) lets the acquisition proceed: the
  // hammer test wants to count violations, not crash on the first one.
}

class RecordingHandler {
 public:
  RecordingHandler() : previous_(lock_rank::set_violation_handler(&recording_handler)) {
    g_violations.store(0, std::memory_order_relaxed);
    g_last_message.clear();
  }
  ~RecordingHandler() { lock_rank::set_violation_handler(previous_); }

 private:
  lock_rank::ViolationHandler previous_;
};

TEST(LockRank, RankNamesAndOrderingMatchTheDocumentedTable) {
  // The DESIGN.md table is outer > inner; spot-check the load-bearing edges.
  EXPECT_LT(static_cast<int>(Rank::cache_shard), static_cast<int>(Rank::inflight));
  EXPECT_LT(static_cast<int>(Rank::inflight), static_cast<int>(Rank::background));
  EXPECT_LT(static_cast<int>(Rank::telemetry_registry), static_cast<int>(Rank::cache_shard));
  EXPECT_LT(static_cast<int>(Rank::logging), static_cast<int>(Rank::failpoint_registry));
  EXPECT_LT(static_cast<int>(Rank::failpoint_registry), static_cast<int>(Rank::cache_shard));
  EXPECT_LT(static_cast<int>(Rank::breaker), static_cast<int>(Rank::breaker_map));
  EXPECT_STREQ(lock_rank::name(Rank::inflight), "inflight");
  EXPECT_STREQ(lock_rank::name(Rank::cache_shard), "cache_shard");
  EXPECT_STREQ(lock_rank::name(Rank::background), "background");
}

TEST(LockRank, HeaderGateAndLibraryAgree) {
  // The wrappers (header) and the hook library must see the same gate; a
  // mismatch would be an ODR hazard. checks_compiled_in() is constexpr from
  // the header macro, so this is really a build-system sanity check.
  EXPECT_EQ(lock_rank::checks_compiled_in(), static_cast<bool>(ISAAC_LOCK_RANK_CHECKS));
}

TEST(LockRank, DescendingAcquisitionIsSilent) {
  RecordingHandler guard;
  lock_rank::on_acquire(Rank::background);   // 60
  lock_rank::on_acquire(Rank::inflight);     // 50 < 60: fine
  lock_rank::on_acquire(Rank::cache_shard);  // 30 < 50: fine
  EXPECT_EQ(lock_rank::held_count(), 3u);
  lock_rank::on_release(Rank::cache_shard);
  lock_rank::on_release(Rank::inflight);
  lock_rank::on_release(Rank::background);
  EXPECT_EQ(lock_rank::held_count(), 0u);
  EXPECT_EQ(g_violations.load(), 0);
}

TEST(LockRank, AscendingAcquisitionReportsBothNames) {
  RecordingHandler guard;
  lock_rank::on_acquire(Rank::cache_shard);
  lock_rank::on_acquire(Rank::inflight);  // 50 >= 30 while holding 30: inversion
  EXPECT_EQ(g_violations.load(), 1);
  // The message names both the offending acquisition and the held stack, so
  // a single abort line is actionable without a debugger.
  EXPECT_NE(g_last_message.find("inflight"), std::string::npos) << g_last_message;
  EXPECT_NE(g_last_message.find("cache_shard"), std::string::npos) << g_last_message;
  EXPECT_NE(g_last_message.find("lock-rank violation"), std::string::npos) << g_last_message;
  lock_rank::on_release(Rank::inflight);
  lock_rank::on_release(Rank::cache_shard);
  EXPECT_EQ(lock_rank::held_count(), 0u);
}

TEST(LockRank, EqualRankReacquisitionIsAViolation) {
  // Two distinct mutexes at the same rank must never nest (either order
  // deadlocks against a thread nesting them the other way).
  RecordingHandler guard;
  lock_rank::on_acquire(Rank::cache_shard);
  lock_rank::on_acquire(Rank::cache_shard);
  EXPECT_EQ(g_violations.load(), 1);
  lock_rank::on_release(Rank::cache_shard);
  lock_rank::on_release(Rank::cache_shard);
}

TEST(LockRank, TryAcquirePushesWithoutChecking) {
  // try_lock cannot deadlock (it never blocks), so an "ascending" try is
  // legal — but once held, it joins the stack and constrains what a later
  // *blocking* acquisition may take: strictly below the MINIMUM held rank.
  RecordingHandler guard;
  lock_rank::on_acquire(Rank::cache_shard);       // 30, blocking
  lock_rank::on_try_acquire(Rank::background);    // 60, try: silent by design
  EXPECT_EQ(g_violations.load(), 0);
  EXPECT_EQ(lock_rank::held_count(), 2u);
  lock_rank::on_acquire(Rank::pool);  // 20 < min(30, 60): fine
  EXPECT_EQ(g_violations.load(), 0);
  lock_rank::on_release(Rank::pool);
  lock_rank::on_acquire(Rank::obslog);  // 44 < 60 but >= 30: violation
  EXPECT_EQ(g_violations.load(), 1);
  lock_rank::on_release(Rank::obslog);
  lock_rank::on_release(Rank::background);
  lock_rank::on_release(Rank::cache_shard);
  EXPECT_EQ(lock_rank::held_count(), 0u);
}

TEST(LockRank, OutOfOrderReleaseUnwindsCorrectly) {
  // Releases need not mirror acquisition order (manual unlock patterns);
  // the stack pops the innermost occurrence of the released rank.
  RecordingHandler guard;
  lock_rank::on_acquire(Rank::background);
  lock_rank::on_acquire(Rank::inflight);
  lock_rank::on_release(Rank::background);  // outer released first
  EXPECT_EQ(lock_rank::held_count(), 1u);
  lock_rank::on_acquire(Rank::cache_shard);  // 30 < 50 (only inflight held now)
  EXPECT_EQ(g_violations.load(), 0);
  lock_rank::on_release(Rank::cache_shard);
  lock_rank::on_release(Rank::inflight);
  EXPECT_EQ(lock_rank::held_count(), 0u);
}

TEST(LockRankDeathTest, DefaultHandlerAbortsWithBothStackNames) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // No handler installed: the default reporter prints to stderr and aborts.
  // This is the production (Debug build) behavior — a deadlock that would
  // have been timing-dependent becomes a deterministic one-line crash.
  EXPECT_DEATH(
      {
        lock_rank::on_acquire(Rank::cache_shard);
        lock_rank::on_acquire(Rank::inflight);
      },
      "lock-rank violation.*'inflight'.*cache_shard");
}

// ---------------------------------------------------------------------------
// Wrapper-level tests: sync::Mutex / sync::MutexLock / sync::CondVar call the
// hooks only when ISAAC_LOCK_RANK_CHECKS is on.

TEST(LockRankWrappers, CompiledOutBuildsAreCompletelySilent) {
  if (lock_rank::checks_compiled_in()) {
    GTEST_SKIP() << "rank checks are compiled in; the inversion tests below cover this build";
  }
  // The compile-out satellite: in Release (tier-1) builds the wrappers are
  // plain std::mutex — even a deliberate inversion reports nothing.
  RecordingHandler guard;
  sync::Mutex inner{Rank::cache_shard};
  sync::Mutex outer{Rank::inflight};
  {
    sync::MutexLock a(inner);
    sync::MutexLock b(outer);  // inverted on purpose
  }
  EXPECT_EQ(g_violations.load(), 0);
  EXPECT_EQ(lock_rank::held_count(), 0u);
}

TEST(LockRankWrappers, MutexLockInversionIsDetected) {
  if (!lock_rank::checks_compiled_in()) GTEST_SKIP() << "rank checks compiled out";
  RecordingHandler guard;
  sync::Mutex inner{Rank::cache_shard};
  sync::Mutex outer{Rank::inflight};
  {
    sync::MutexLock a(outer);
    sync::MutexLock b(inner);  // correct order: outer (50) then inner (30)
  }
  EXPECT_EQ(g_violations.load(), 0);
  {
    sync::MutexLock a(inner);
    sync::MutexLock b(outer);  // seeded inversion
  }
  EXPECT_EQ(g_violations.load(), 1);
  EXPECT_NE(g_last_message.find("inflight"), std::string::npos) << g_last_message;
  EXPECT_NE(g_last_message.find("cache_shard"), std::string::npos) << g_last_message;
  EXPECT_EQ(lock_rank::held_count(), 0u);
}

TEST(LockRankWrappers, SharedMutexReadersParticipate) {
  if (!lock_rank::checks_compiled_in()) GTEST_SKIP() << "rank checks compiled out";
  // Shared (reader) holds can block on writers, so they join deadlock
  // cycles and must obey the same ordering as exclusive holds.
  RecordingHandler guard;
  sync::SharedMutex shard{Rank::cache_shard};
  sync::Mutex inflight{Rank::inflight};
  {
    sync::ReaderMutexLock r(shard);
    sync::MutexLock m(inflight);  // 50 while holding shared 30: violation
  }
  EXPECT_EQ(g_violations.load(), 1);
  {
    sync::MutexLock m(inflight);
    sync::ReaderMutexLock r(shard);  // correct order
  }
  EXPECT_EQ(g_violations.load(), 1);
  EXPECT_EQ(lock_rank::held_count(), 0u);
}

TEST(LockRankWrappers, CondVarWaitReleasesAndReacquiresTheRank) {
  if (!lock_rank::checks_compiled_in()) GTEST_SKIP() << "rank checks compiled out";
  RecordingHandler guard;
  sync::Mutex mu{Rank::pool};
  sync::CondVar cv;
  {
    sync::MutexLock lock(mu);
    EXPECT_EQ(lock_rank::held_count(), 1u);
    // wait_for pops the rank while blocked and re-pushes on wakeup; after a
    // timeout the stack must look exactly as before the wait.
    (void)cv.wait_for(mu, std::chrono::milliseconds(1));
    EXPECT_EQ(lock_rank::held_count(), 1u);
    sync::Mutex leaf_mu{Rank::leaf};
    sync::MutexLock inner(leaf_mu);  // 2 < 20: still fine after the wait
  }
  EXPECT_EQ(g_violations.load(), 0);
  EXPECT_EQ(lock_rank::held_count(), 0u);
}

// ---------------------------------------------------------------------------
// The integration hammer: the real runtime, all subsystems at once, must be
// rank-clean. Dispatch (inflight -> cache_shard -> telemetry), background
// refinement (pool workers, breakers, upgrade), and online retraining
// (obslog, drift, model swap) all run concurrently for several rounds.

const mlp::Regressor& hammer_model() {
  static const mlp::Regressor model = [] {
    gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 123);
    tuning::CollectorConfig cfg;
    cfg.num_samples = 1500;
    cfg.seed = 424242;
    const auto report = tuning::collect_gemm(sim, cfg);
    mlp::TrainConfig tc;
    tc.net.hidden = {48, 48};
    tc.epochs = 8;
    return mlp::train(report.dataset, tc);
  }();
  return model;
}

TEST(LockRankHammer, EightThreadDispatchRefineRetrainIsRankClean) {
  if (!lock_rank::checks_compiled_in()) {
    GTEST_SKIP() << "rank checks compiled out; run with -DISAAC_LOCK_RANK=ON or a Debug build";
  }
  RecordingHandler guard;

  core::ContextOptions opts;
  opts.search.budget = 10;
  opts.search.reeval_reps = 2;
  opts.search.max_candidates = 8000;
  opts.online.enabled = true;
  opts.online.drift.threshold = 1e9;  // retrains come from request_retrain below
  opts.online.retrain.min_observations = 8;
  opts.online.retrain.epochs = 2;
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(mlp::Regressor(hammer_model()));

  std::vector<codegen::GemmShape> shapes;
  for (const auto& [m, n, k] : {std::tuple{48, 32, 96}, std::tuple{64, 16, 128},
                               std::tuple{32, 48, 64}, std::tuple{96, 24, 80},
                               std::tuple{40, 40, 120}, std::tuple{56, 8, 144}}) {
    codegen::GemmShape s;
    s.m = m;
    s.n = n;
    s.k = k;
    shapes.push_back(s);
  }

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 10;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (int it = 0; it < kItersPerThread; ++it) {
        const auto& shape = shapes[(t + it) % shapes.size()];
        const auto tuning = ctx.select<core::GemmOp>(shape);
        EXPECT_TRUE(codegen::validate(shape, tuning, ctx.device()));
        // A couple of threads also poke the retrain path so model swaps and
        // observation-log folds interleave with dispatch and refinement.
        if (t < 2 && it % 4 == 3) (void)ctx.request_retrain();
      }
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true);
  for (auto& th : threads) th.join();
  ctx.drain_background();

  EXPECT_EQ(g_violations.load(), 0) << "first violation: " << g_last_message;
  EXPECT_EQ(lock_rank::held_count(), 0u);
}

}  // namespace
}  // namespace isaac
