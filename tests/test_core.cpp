// Integration tests for runtime inference, the profile cache, and the public
// ISAAC API end-to-end (train → tune → execute → verify numerics).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "codegen/batched_gemm_executor.hpp"
#include "core/inference.hpp"
#include "core/isaac.hpp"
#include "core/profile_cache.hpp"
#include "gpusim/device.hpp"
#include "tuning/collector.hpp"

namespace isaac::core {
namespace {

/// One small trained model shared by the inference tests (training is the
/// expensive part; the suite budget is single-digit seconds).
const mlp::Regressor& shared_model() {
  static const mlp::Regressor model = [] {
    gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 123);
    tuning::CollectorConfig cfg;
    cfg.num_samples = 2500;
    cfg.seed = 31337;
    const auto report = tuning::collect_gemm(sim, cfg);
    mlp::TrainConfig tc;
    tc.net.hidden = {48, 48};
    tc.epochs = 10;
    return mlp::train(report.dataset, tc);
  }();
  return model;
}

search::SearchConfig fast_inference() {
  search::SearchConfig cfg;
  cfg.budget = 20;  // measured re-timings (the old top-k)
  cfg.reeval_reps = 3;
  cfg.max_candidates = 20000;
  return cfg;
}

// ---------------------------------------------------------------- inference --
TEST(Inference, FindsLegalWinner) {
  gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 7);
  codegen::GemmShape shape;
  shape.m = shape.n = shape.k = 512;
  const auto result = tune<GemmOp>(shape, shared_model(), sim, fast_inference());
  EXPECT_GT(result.legal, 0u);
  EXPECT_GT(result.enumerated, result.legal);
  EXPECT_GT(result.best.measured_gflops, 0.0);
  EXPECT_TRUE(codegen::validate(shape, result.best.tuning, sim.device()));
}

TEST(Inference, TopKSortedByMeasurement) {
  gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 7);
  codegen::GemmShape shape;
  shape.m = 2560;
  shape.n = 32;
  shape.k = 2560;
  const auto result = tune<GemmOp>(shape, shared_model(), sim, fast_inference());
  ASSERT_GE(result.top.size(), 2u);
  for (std::size_t i = 1; i < result.top.size(); ++i) {
    EXPECT_GE(result.top[i - 1].measured_gflops, result.top[i].measured_gflops);
  }
  EXPECT_DOUBLE_EQ(result.best.measured_gflops, result.top.front().measured_gflops);
}

TEST(Inference, SkinnyShapeGetsNarrowTile) {
  // The input-aware property: for N = 16 the tuner must not pick a 64- or
  // 128-wide N tile (the §8.1 failure mode of static libraries).
  gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 7);
  codegen::GemmShape shape;
  shape.m = 2560;
  shape.n = 16;
  shape.k = 2560;
  const auto result = tune<GemmOp>(shape, shared_model(), sim, fast_inference());
  EXPECT_LE(result.best.tuning.nl, 32) << result.best.tuning.to_string();
}

TEST(Inference, DeepReductionGetsSplit) {
  // ICA regime: tiny output, K = 60000 — the winner must split the reduction.
  gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 7);
  codegen::GemmShape shape;
  shape.m = shape.n = 32;
  shape.k = 60000;
  const auto result = tune<GemmOp>(shape, shared_model(), sim, fast_inference());
  EXPECT_GT(result.best.tuning.kg * result.best.tuning.kl, 1)
      << result.best.tuning.to_string();
}

TEST(Inference, ConvTuningWorks) {
  gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 7);
  const auto shape = codegen::ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  search::SearchConfig cfg = fast_inference();
  cfg.max_candidates = 5000;
  const auto result = tune<ConvOp>(shape, shared_model(), sim, cfg);
  EXPECT_GT(result.best.measured_gflops, 0.0);
  EXPECT_TRUE(codegen::validate(shape, result.best.tuning, sim.device()));
}

TEST(Inference, BatchedGemmTuningRespectsConstraints) {
  // The third operation goes through the same generic tune<Op>() as GEMM and
  // CONV; its search space pins the grid-level reduction split to KG = 1.
  gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 7);
  codegen::BatchedGemmShape shape;
  shape.batch = 32;
  shape.gemm.m = 128;
  shape.gemm.n = 64;
  shape.gemm.k = 256;
  const auto result = tune<BatchedGemmOp>(shape, shared_model(), sim, fast_inference());
  EXPECT_GT(result.legal, 0u);
  EXPECT_GT(result.best.measured_gflops, 0.0);
  EXPECT_EQ(result.best.tuning.kg, 1);
  EXPECT_TRUE(codegen::validate(shape, result.best.tuning, sim.device()));
}

TEST(Inference, ImpossibleShapeThrows) {
  gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 7);
  codegen::GemmShape shape;
  shape.m = shape.n = 64;
  shape.k = 2;  // below the smallest prefetch depth (U >= 4): no legal config
  EXPECT_THROW(tune<GemmOp>(shape, shared_model(), sim, fast_inference()), std::runtime_error);
}

// ------------------------------------------------------------ profile cache --
TEST(ProfileCache, InMemoryRoundTrip) {
  ProfileCache cache;
  codegen::GemmShape shape;
  shape.m = shape.n = shape.k = 512;
  EXPECT_FALSE(cache.lookup<GemmOp>("p100", shape).has_value());
  codegen::GemmTuning t;
  t.ml = 32;
  cache.store<GemmOp>("p100", shape, t);
  const auto got = cache.lookup<GemmOp>("p100", shape);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->ml, 32);
  // Different device or shape: miss.
  EXPECT_FALSE(cache.lookup<GemmOp>("gtx980ti", shape).has_value());
  shape.trans_a = true;
  EXPECT_FALSE(cache.lookup<GemmOp>("p100", shape).has_value());
}

TEST(ProfileCache, PersistsAcrossInstances) {
  const std::string dir = (std::filesystem::temp_directory_path() / "isaac_cache_test").string();
  std::filesystem::remove_all(dir);
  codegen::GemmShape shape;
  shape.m = 2560;
  shape.n = 16;
  shape.k = 2560;
  codegen::ConvShape cshape = codegen::ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  {
    ProfileCache cache(dir);
    codegen::GemmTuning t;
    t.nl = 16;
    t.kg = 4;
    cache.store<GemmOp>("p100", shape, t);
    codegen::ConvTuning ct;
    ct.bk = 64;
    cache.store<ConvOp>("p100", cshape, ct);
  }
  ProfileCache reloaded(dir);
  const auto got = reloaded.lookup<GemmOp>("p100", shape);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->nl, 16);
  EXPECT_EQ(got->kg, 4);
  const auto cgot = reloaded.lookup<ConvOp>("p100", cshape);
  ASSERT_TRUE(cgot.has_value());
  EXPECT_EQ(cgot->bk, 64);
  std::filesystem::remove_all(dir);
}

TEST(ProfileCache, KeysDistinguishDtypeAndLayout) {
  codegen::GemmShape a, b;
  a.m = b.m = a.n = b.n = a.k = b.k = 128;
  b.dtype = gpusim::DataType::F16;
  EXPECT_NE(ProfileCache::key<GemmOp>("d", a), ProfileCache::key<GemmOp>("d", b));
  b = a;
  b.trans_b = true;
  EXPECT_NE(ProfileCache::key<GemmOp>("d", a), ProfileCache::key<GemmOp>("d", b));
}

TEST(ProfileCache, KeysDistinguishOperations) {
  // A batched problem with batch == 1 matches its plain-GEMM twin shape but
  // must not alias its cache entry (the legal spaces differ).
  codegen::GemmShape g;
  g.m = g.n = g.k = 128;
  codegen::BatchedGemmShape bg;
  bg.batch = 1;
  bg.gemm = g;
  EXPECT_NE(ProfileCache::key<GemmOp>("d", g), ProfileCache::key<BatchedGemmOp>("d", bg));

  ProfileCache cache;
  codegen::GemmTuning t;
  t.ml = 32;
  cache.store<GemmOp>("d", g, t);
  EXPECT_FALSE(cache.lookup<BatchedGemmOp>("d", bg).has_value());
}

TEST(ProfileCache, BatchedGemmPersistsAcrossInstances) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "isaac_cache_bgemm_test").string();
  std::filesystem::remove_all(dir);
  codegen::BatchedGemmShape shape;
  shape.batch = 16;
  shape.gemm.m = 64;
  shape.gemm.n = 32;
  shape.gemm.k = 128;
  {
    ProfileCache cache(dir);
    codegen::GemmTuning t;
    t.nl = 16;
    cache.store<BatchedGemmOp>("p100", shape, t);
  }
  ProfileCache reloaded(dir);
  const auto got = reloaded.lookup<BatchedGemmOp>("p100", shape);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->nl, 16);
  std::filesystem::remove_all(dir);
}

TEST(ProfileCache, RecordsSearchProvenance) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "isaac_cache_meta_test").string();
  std::filesystem::remove_all(dir);
  codegen::GemmShape shape;
  shape.m = shape.n = shape.k = 384;
  codegen::GemmTuning t;
  t.ml = 32;
  const std::string key = ProfileCache::key<GemmOp>("p100", shape);
  {
    ProfileCache cache(dir);
    cache.store<GemmOp>("p100", shape, t, ProfileCache::provenance("genetic", 64));
    EXPECT_EQ(cache.meta(key), "strategy=genetic;budget=64");
  }
  // The provenance column survives the disk round trip.
  ProfileCache reloaded(dir);
  ASSERT_TRUE(reloaded.lookup<GemmOp>("p100", shape).has_value());
  EXPECT_EQ(reloaded.meta(key), "strategy=genetic;budget=64");
  EXPECT_FALSE(reloaded.meta("no|such|key").has_value());
  std::filesystem::remove_all(dir);
}

TEST(ProfileCache, ReadsPreProvenanceSchemas) {
  // Both older on-disk formats must still load: two-column key \t value, and
  // the original three-column kind \t key \t value.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "isaac_cache_legacy_test").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  codegen::GemmShape two, three;
  two.m = two.n = two.k = 128;
  three.m = three.n = three.k = 256;
  codegen::GemmTuning t;
  t.nl = 16;
  {
    std::ofstream os(std::filesystem::path(dir) / "isaac_profiles.txt");
    os << ProfileCache::key<GemmOp>("p100", two) << '\t'
       << OperationTraits<GemmOp>::encode_tuning(t) << '\n';
    os << "gemm\t" << ProfileCache::key<GemmOp>("p100", three) << '\t'
       << OperationTraits<GemmOp>::encode_tuning(t) << '\n';
  }
  ProfileCache cache(dir);
  const auto got_two = cache.lookup<GemmOp>("p100", two);
  const auto got_three = cache.lookup<GemmOp>("p100", three);
  ASSERT_TRUE(got_two.has_value());
  ASSERT_TRUE(got_three.has_value());
  EXPECT_EQ(got_two->nl, 16);
  EXPECT_EQ(got_three->nl, 16);
  // Legacy entries carry no provenance.
  EXPECT_EQ(cache.meta(ProfileCache::key<GemmOp>("p100", two)), "");
  std::filesystem::remove_all(dir);
}

TEST(ProfileCache, TierRoundTripsAndUpgradesInPlace) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "isaac_cache_tier_test").string();
  std::filesystem::remove_all(dir);
  codegen::GemmShape shape;
  shape.m = shape.n = shape.k = 320;
  const std::string key = ProfileCache::key<GemmOp>("p100", shape);
  codegen::GemmTuning predicted;
  predicted.ml = 32;
  codegen::GemmTuning refined;
  refined.ml = 64;
  {
    ProfileCache cache(dir);
    cache.store<GemmOp>("p100", shape, predicted,
                        ProfileCache::provenance("predict", 0, EntryTier::provisional));
    EXPECT_EQ(cache.tier(key), EntryTier::provisional);

    // Upgrade replaces the provisional entry in place…
    EXPECT_TRUE(cache.upgrade<GemmOp>(
        "p100", shape, refined, ProfileCache::provenance("model_topk", 64, EntryTier::refined)));
    EXPECT_EQ(cache.tier(key), EntryTier::refined);
    EXPECT_EQ(cache.lookup<GemmOp>("p100", shape)->ml, 64);

    // …and never demotes a refined one.
    EXPECT_FALSE(cache.upgrade<GemmOp>(
        "p100", shape, predicted, ProfileCache::provenance("predict", 0, EntryTier::provisional)));
    EXPECT_EQ(cache.lookup<GemmOp>("p100", shape)->ml, 64);
  }
  // The tier survives the disk round trip (last line wins).
  ProfileCache reloaded(dir);
  EXPECT_EQ(reloaded.tier(key), EntryTier::refined);
  EXPECT_EQ(reloaded.lookup<GemmOp>("p100", shape)->ml, 64);

  // Absent tier field (legacy and pre-two-tier lines) parses as refined.
  EXPECT_EQ(ProfileCache::tier_from_meta(""), EntryTier::refined);
  EXPECT_EQ(ProfileCache::tier_from_meta("strategy=genetic;budget=64"), EntryTier::refined);
  EXPECT_EQ(ProfileCache::tier_from_meta("strategy=predict;budget=0;tier=provisional"),
            EntryTier::provisional);
  std::filesystem::remove_all(dir);
}

TEST(ProfileCache, CompactsDuplicateHeavyFilesOnLoad) {
  // The append-only file accumulates one dead line per re-store; once
  // duplicates outnumber live entries, load_from_disk rewrites it last-wins.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "isaac_cache_compact_test").string();
  std::filesystem::remove_all(dir);
  const auto file = std::filesystem::path(dir) / "isaac_profiles.txt";

  constexpr int kShapes = 6;
  constexpr int kRewrites = 8;
  {
    ProfileCache cache(dir);
    for (int round = 0; round < kRewrites; ++round) {
      for (int i = 0; i < kShapes; ++i) {
        codegen::GemmShape shape;
        shape.m = shape.n = 64 + 16 * i;
        shape.k = 128;
        codegen::GemmTuning t;
        t.ml = 32;
        t.u = 8 * (1 + round % 2);  // alternate so last-wins is observable
        cache.store<GemmOp>("p100", shape, t,
                            ProfileCache::provenance("random", 10 + round));
      }
    }
  }
  // 48 appended lines, 6 live keys.
  std::size_t lines_before = 0;
  {
    std::ifstream is(file);
    for (std::string line; std::getline(is, line);) ++lines_before;
  }
  ASSERT_EQ(lines_before, static_cast<std::size_t>(kShapes * kRewrites));

  // Loading compacts the file down to the live entries, keeping each key's
  // final value and provenance.
  ProfileCache compacted(dir);
  EXPECT_EQ(compacted.size(), static_cast<std::size_t>(kShapes));
  std::size_t lines_after = 0;
  {
    std::ifstream is(file);
    for (std::string line; std::getline(is, line);) ++lines_after;
  }
  EXPECT_EQ(lines_after, static_cast<std::size_t>(kShapes));
  for (int i = 0; i < kShapes; ++i) {
    codegen::GemmShape shape;
    shape.m = shape.n = 64 + 16 * i;
    shape.k = 128;
    const auto got = compacted.lookup<GemmOp>("p100", shape);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->u, 8 * (1 + (kRewrites - 1) % 2));
    EXPECT_EQ(compacted.meta(ProfileCache::key<GemmOp>("p100", shape)),
              ProfileCache::provenance("random", 10 + kRewrites - 1));
  }

  // And the compacted file still round-trips.
  ProfileCache reloaded(dir);
  EXPECT_EQ(reloaded.size(), static_cast<std::size_t>(kShapes));
  std::filesystem::remove_all(dir);
}

TEST(ProfileCache, CompactionPreservesLegacySchemaEntries) {
  // A file mixing all three schemas plus enough duplicate lines to trip the
  // compactor: every schema's entry must survive, rewritten in the current
  // format, with last-wins semantics across duplicate keys.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "isaac_cache_compact_legacy_test").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto file = std::filesystem::path(dir) / "isaac_profiles.txt";

  codegen::GemmShape two, three, dup;
  two.m = two.n = two.k = 128;
  three.m = three.n = three.k = 256;
  dup.m = dup.n = dup.k = 384;
  codegen::GemmTuning t16, t32;
  t16.nl = 16;
  t32.nl = 32;
  {
    std::ofstream os(file);
    // Legacy two-column and kind-prefixed three-column lines…
    os << ProfileCache::key<GemmOp>("p100", two) << '\t'
       << OperationTraits<GemmOp>::encode_tuning(t16) << '\n';
    os << "gemm\t" << ProfileCache::key<GemmOp>("p100", three) << '\t'
       << OperationTraits<GemmOp>::encode_tuning(t16) << '\n';
    // …plus one key re-stored often enough that duplicates (7) outnumber the
    // three live entries: 9 lines total, 3 live.
    for (int i = 0; i < 7; ++i) {
      const auto& t = (i % 2 == 0) ? t16 : t32;
      os << ProfileCache::key<GemmOp>("p100", dup) << '\t'
         << OperationTraits<GemmOp>::encode_tuning(t) << '\t'
         << ProfileCache::provenance("genetic", i) << '\n';
    }
  }

  ProfileCache cache(dir);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.lookup<GemmOp>("p100", two)->nl, 16);
  EXPECT_EQ(cache.lookup<GemmOp>("p100", three)->nl, 16);
  EXPECT_EQ(cache.lookup<GemmOp>("p100", dup)->nl, 16);  // i = 6 wrote t16 last
  EXPECT_EQ(cache.meta(ProfileCache::key<GemmOp>("p100", dup)),
            ProfileCache::provenance("genetic", 6));
  // Legacy entries keep their empty provenance through the rewrite.
  EXPECT_EQ(cache.meta(ProfileCache::key<GemmOp>("p100", two)), "");

  std::size_t lines_after = 0;
  {
    std::ifstream is(file);
    for (std::string line; std::getline(is, line);) ++lines_after;
  }
  EXPECT_EQ(lines_after, 3u);

  ProfileCache reloaded(dir);
  EXPECT_EQ(reloaded.size(), 3u);
  EXPECT_EQ(reloaded.lookup<GemmOp>("p100", dup)->nl, 16);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------------ context --
TEST(Context, GemmEndToEndProducesCorrectNumerics) {
  ContextOptions opts;
  opts.search = fast_inference();
  Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(shared_model());

  codegen::GemmShape shape;
  shape.m = 96;
  shape.n = 48;
  shape.k = 200;
  shape.trans_b = true;
  Rng rng(5);
  std::vector<float> a(static_cast<std::size_t>(shape.m * shape.k));
  std::vector<float> b(static_cast<std::size_t>(shape.n * shape.k));
  for (auto& x : a) x = static_cast<float>(rng.uniform(-1, 1));
  for (auto& x : b) x = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> c(static_cast<std::size_t>(shape.m * shape.n), 0.0f);
  std::vector<float> c_ref = c;

  const auto info = ctx.gemm(shape, 1.0f, a.data(), shape.m, b.data(), shape.n, 0.0f, c.data(),
                             shape.m);
  EXPECT_GT(info.gflops, 0.0);
  EXPECT_FALSE(info.from_cache);
  EXPECT_TRUE(info.provisional);  // two-tier: the cold call served tier 1

  codegen::reference_gemm(shape, 1.0f, a.data(), shape.m, b.data(), shape.n, 0.0f,
                          c_ref.data(), shape.m);
  double max_diff = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    max_diff = std::max(max_diff, static_cast<double>(std::abs(c[i] - c_ref[i])));
  }
  EXPECT_LT(max_diff, 1e-2);

  // Once the background refinement lands, the cache serves the refined
  // selection and still computes correctly.
  ctx.drain_background();
  std::vector<float> c2(c.size(), 0.0f);
  const auto info2 = ctx.gemm(shape, 1.0f, a.data(), shape.m, b.data(), shape.n, 0.0f,
                              c2.data(), shape.m);
  EXPECT_TRUE(info2.from_cache);
  EXPECT_FALSE(info2.provisional);
  max_diff = 0;
  for (std::size_t i = 0; i < c2.size(); ++i) {
    max_diff = std::max(max_diff, static_cast<double>(std::abs(c2[i] - c_ref[i])));
  }
  EXPECT_LT(max_diff, 1e-2);

  // The refined entry records which strategy and budget produced it.
  const auto meta = ctx.cache().meta(ProfileCache::key<GemmOp>(ctx.device().name, shape));
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(*meta, ProfileCache::provenance("model_topk", 20, EntryTier::refined));
}

TEST(Context, ConvEndToEnd) {
  ContextOptions opts;
  opts.search = fast_inference();
  opts.search.max_candidates = 4000;
  Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(shared_model());

  const auto shape = codegen::ConvShape::from_npq(4, 10, 10, 16, 8, 3, 3);
  Rng rng(6);
  std::vector<float> input(static_cast<std::size_t>(shape.c * shape.h * shape.w * shape.n));
  std::vector<float> filters(static_cast<std::size_t>(shape.crs() * shape.k));
  for (auto& x : input) x = static_cast<float>(rng.uniform(-1, 1));
  for (auto& x : filters) x = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> out(static_cast<std::size_t>(shape.k * shape.p() * shape.q() * shape.n));
  std::vector<float> out_ref = out;

  const auto info = ctx.conv(shape, 1.0f, input.data(), filters.data(), 0.0f, out.data());
  EXPECT_GT(info.gflops, 0.0);

  codegen::reference_conv(shape, 1.0f, input.data(), filters.data(), 0.0f, out_ref.data());
  double max_diff = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    max_diff = std::max(max_diff, static_cast<double>(std::abs(out[i] - out_ref[i])));
  }
  EXPECT_LT(max_diff, 1e-2);
}

TEST(Context, BatchedGemmEndToEndProducesCorrectNumerics) {
  ContextOptions opts;
  opts.search = fast_inference();
  Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(shared_model());

  codegen::BatchedGemmShape shape;
  shape.batch = 5;
  shape.gemm.m = 48;
  shape.gemm.n = 24;
  shape.gemm.k = 96;
  const std::int64_t stride_a = shape.gemm.m * shape.gemm.k;
  const std::int64_t stride_b = shape.gemm.k * shape.gemm.n;
  const std::int64_t stride_c = shape.gemm.m * shape.gemm.n;

  Rng rng(8);
  std::vector<float> a(static_cast<std::size_t>(stride_a * shape.batch));
  std::vector<float> b(static_cast<std::size_t>(stride_b * shape.batch));
  for (auto& x : a) x = static_cast<float>(rng.uniform(-1, 1));
  for (auto& x : b) x = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> c(static_cast<std::size_t>(stride_c * shape.batch), 0.0f);
  std::vector<float> c_ref = c;

  const auto info = ctx.batched_gemm(shape, 1.0f, a.data(), shape.gemm.m, stride_a, b.data(),
                                     shape.gemm.k, stride_b, 0.0f, c.data(), shape.gemm.m,
                                     stride_c);
  EXPECT_GT(info.gflops, 0.0);
  EXPECT_FALSE(info.from_cache);
  EXPECT_EQ(info.tuning.kg, 1);

  codegen::reference_batched_gemm(shape, 1.0f, a.data(), shape.gemm.m, stride_a, b.data(),
                                  shape.gemm.k, stride_b, 0.0f, c_ref.data(), shape.gemm.m,
                                  stride_c);
  double max_diff = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    max_diff = std::max(max_diff, static_cast<double>(std::abs(c[i] - c_ref[i])));
  }
  EXPECT_LT(max_diff, 1e-2);

  // Second call hits the cache (refined once the background search lands —
  // the batched constraint still holds for the refined winner).
  ctx.drain_background();
  const auto info2 = ctx.batched_gemm(shape, 1.0f, a.data(), shape.gemm.m, stride_a, b.data(),
                                      shape.gemm.k, stride_b, 0.0f, c.data(), shape.gemm.m,
                                      stride_c);
  EXPECT_TRUE(info2.from_cache);
  EXPECT_FALSE(info2.provisional);
  EXPECT_EQ(info2.tuning.kg, 1);
}

TEST(Context, RequiresModel) {
  Context ctx(gpusim::gtx980ti());
  codegen::GemmShape shape;
  shape.m = shape.n = shape.k = 256;
  EXPECT_THROW(ctx.tune<GemmOp>(shape), std::logic_error);
}

TEST(Context, TrainModelProducesUsableModel) {
  ContextOptions opts;
  opts.search = fast_inference();
  Context ctx(gpusim::gtx980ti(), opts);
  ctx.train_model(/*samples=*/1200, /*epochs=*/6);
  EXPECT_TRUE(ctx.has_model());
  codegen::GemmShape shape;
  shape.m = shape.n = shape.k = 512;
  const auto result = ctx.tune<GemmOp>(shape);
  EXPECT_GT(result.best.measured_gflops, 0.0);
}

}  // namespace
}  // namespace isaac::core
