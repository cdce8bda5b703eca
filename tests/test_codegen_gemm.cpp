// Tests for the GEMM parameterization: validity (legal space X), static
// analysis (KernelProfile), and the functional executor against the naive
// reference across shapes, layouts, and reduction splits, plus the exact
// per-element semantics every KG == 1 tuning must reproduce bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "codegen/batched_gemm_executor.hpp"
#include "codegen/gemm.hpp"
#include "codegen/gemm_executor.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"

namespace isaac::codegen {
namespace {

using gpusim::DataType;

GemmShape make_shape(std::int64_t m, std::int64_t n, std::int64_t k,
                     DataType dt = DataType::F32, bool ta = false, bool tb = false) {
  GemmShape s;
  s.m = m;
  s.n = n;
  s.k = k;
  s.dtype = dt;
  s.trans_a = ta;
  s.trans_b = tb;
  return s;
}

GemmTuning make_tuning(int ms, int ns, int ml, int nl, int u, int kl = 1, int kg = 1,
                       int vec = 1) {
  GemmTuning t;
  t.ms = ms;
  t.ns = ns;
  t.ml = ml;
  t.nl = nl;
  t.u = u;
  t.kl = kl;
  t.kg = kg;
  t.vec = vec;
  return t;
}

// --------------------------------------------------------------- validity --
TEST(GemmValidity, TypicalConfigIsLegal) {
  std::string why;
  EXPECT_TRUE(validate(make_shape(1024, 1024, 1024), make_tuning(8, 8, 64, 64, 8),
                       gpusim::gtx980ti(), &why))
      << why;
}

TEST(GemmValidity, NonPowerOfTwoRejected) {
  GemmTuning t = make_tuning(8, 8, 64, 64, 8);
  t.u = 6;
  std::string why;
  EXPECT_FALSE(validate(make_shape(512, 512, 512), t, gpusim::gtx980ti(), &why));
  EXPECT_NE(why.find("powers of two"), std::string::npos);
}

TEST(GemmValidity, TileDivisibilityRequired) {
  GemmTuning t = make_tuning(8, 8, 64, 64, 8);
  t.ms = 16;
  t.ml = 8;  // ML < MS
  EXPECT_FALSE(validate(make_shape(512, 512, 512), t, gpusim::gtx980ti()));
}

TEST(GemmValidity, OversizedBlockRejected) {
  // 128/1 * 128/1 = 16384 threads.
  std::string why;
  EXPECT_FALSE(
      validate(make_shape(512, 512, 512), make_tuning(1, 1, 128, 128, 8), gpusim::gtx980ti(), &why));
  EXPECT_NE(why.find("threads"), std::string::npos);
}

TEST(GemmValidity, SmemBudgetEnforced) {
  // (128+128)*32*2*4B*2 = 128 KiB of staging: far over the 48 KiB limit.
  GemmTuning t = make_tuning(8, 8, 128, 128, 32, 2);
  std::string why;
  EXPECT_FALSE(validate(make_shape(4096, 4096, 4096), t, gpusim::gtx980ti(), &why));
  EXPECT_NE(why.find("hared memory"), std::string::npos);
}

TEST(GemmValidity, KgBeyondKRejected) {
  GemmTuning t = make_tuning(4, 4, 32, 32, 4);
  t.kg = 64;
  EXPECT_FALSE(validate(make_shape(128, 128, 32), t, gpusim::gtx980ti()));
}

TEST(GemmValidity, DeepSplitNeedsDepth) {
  // U*KL = 64 > K/KG = 16.
  GemmTuning t = make_tuning(4, 4, 32, 32, 16, 4);
  t.kg = 4;
  std::string why;
  EXPECT_FALSE(validate(make_shape(128, 128, 64), t, gpusim::gtx980ti(), &why));
}

TEST(GemmValidity, F16AtomicsRejected) {
  GemmTuning t = make_tuning(4, 4, 32, 32, 8);
  t.kg = 2;
  std::string why;
  EXPECT_FALSE(
      validate(make_shape(512, 512, 4096, DataType::F16), t, gpusim::tesla_p100(), &why));
  EXPECT_NE(why.find("f16"), std::string::npos);
  t.kg = 1;
  EXPECT_TRUE(validate(make_shape(512, 512, 4096, DataType::F16), t, gpusim::tesla_p100()));
}

TEST(GemmValidity, PrefetchMustDivideAmongThreads) {
  // threads = (8/1)*(8/8) = 8... choose tile where (ml*u*kl) % threads != 0.
  GemmTuning t = make_tuning(1, 8, 8, 64, 4);  // threads = 8*8=64; elems_a=8*4=32 < 64
  std::string why;
  EXPECT_FALSE(validate(make_shape(512, 512, 512), t, gpusim::gtx980ti(), &why));
  EXPECT_NE(why.find("divide"), std::string::npos);
}

// --------------------------------------------------------------- analysis --
TEST(GemmAnalyze, ProfileBasics) {
  const auto shape = make_shape(2048, 2048, 2048);
  const auto tuning = make_tuning(8, 8, 64, 64, 8);
  const auto p = analyze(shape, tuning, gpusim::gtx980ti());
  EXPECT_EQ(p.grid_blocks, 32 * 32);
  EXPECT_EQ(p.threads_per_block, 64);
  EXPECT_DOUBLE_EQ(p.useful_flops, 2.0 * 2048 * 2048 * 2048);
  // fma per thread = K * MS * NS.
  EXPECT_DOUBLE_EQ(p.fma_insts, 2048.0 * 8 * 8);
  EXPECT_GT(p.regs_per_thread, 64);  // 64 accumulators + staging
  EXPECT_EQ(p.st_global_insts, 64.0);
  EXPECT_EQ(p.atom_global_insts, 0.0);
  EXPECT_EQ(p.extra_launches, 0);
  EXPECT_DOUBLE_EQ(p.bounds_overhead_factor, 1.0);  // tiles divide exactly
}

TEST(GemmAnalyze, EdgePredicationOverheadOnlyWhenRagged) {
  const auto tuning = make_tuning(8, 8, 64, 64, 8);
  const auto clean = analyze(make_shape(2048, 2048, 2048), tuning, gpusim::gtx980ti());
  const auto ragged = analyze(make_shape(2000, 2000, 2000), tuning, gpusim::gtx980ti());
  EXPECT_DOUBLE_EQ(clean.bounds_overhead_factor, 1.0);
  EXPECT_NEAR(ragged.bounds_overhead_factor, 1.02, 1e-9);
}

TEST(GemmAnalyze, BranchyBoundsCostMore) {
  GemmTuning t = make_tuning(8, 8, 64, 64, 8);
  t.bounds = gpusim::BoundsMode::Branchy;
  const auto p = analyze(make_shape(2000, 2000, 2000), t, gpusim::gtx980ti());
  EXPECT_NEAR(p.bounds_overhead_factor, 1.18, 1e-9);
}

TEST(GemmAnalyze, PaddedModeInflatesWork) {
  GemmTuning t = make_tuning(8, 8, 64, 64, 8);
  t.bounds = gpusim::BoundsMode::Padded;
  const auto p = analyze(make_shape(2000, 2000, 2000), t, gpusim::gtx980ti());
  // Grid covers the padded extent.
  EXPECT_EQ(p.grid_blocks, 32 * 32);
  EXPECT_DOUBLE_EQ(p.bounds_overhead_factor, 1.0);
  EXPECT_GT(p.extra_launches, 0);  // pad/unpad pass
}

TEST(GemmAnalyze, SplitReductionUsesAtomics) {
  GemmTuning t = make_tuning(4, 4, 32, 32, 8);
  t.kg = 8;
  const auto p = analyze(make_shape(64, 64, 60000), t, gpusim::tesla_p100());
  EXPECT_GT(p.atom_global_insts, 0.0);
  EXPECT_EQ(p.st_global_insts, 0.0);
  EXPECT_EQ(p.extra_launches, 1);
  EXPECT_EQ(p.grid_blocks, 2 * 2 * 8);
}

TEST(GemmAnalyze, KlAddsWarpsAndSmem) {
  const auto shape = make_shape(64, 64, 60000);
  const auto base = analyze(shape, make_tuning(4, 4, 32, 32, 8, 1), gpusim::tesla_p100());
  const auto split = analyze(shape, make_tuning(4, 4, 32, 32, 8, 4), gpusim::tesla_p100());
  EXPECT_EQ(split.threads_per_block, base.threads_per_block * 4);
  EXPECT_GT(split.smem_bytes_per_block, base.smem_bytes_per_block);
  // Same FLOPs, split across 4x the threads.
  EXPECT_LT(split.fma_insts, base.fma_insts);
}

TEST(GemmAnalyze, Fp16PairingHalvesInstructions) {
  const auto f32 = analyze(make_shape(2048, 2048, 2048, DataType::F32),
                           make_tuning(8, 8, 64, 64, 8), gpusim::tesla_p100());
  const auto f16 = analyze(make_shape(2048, 2048, 2048, DataType::F16),
                           make_tuning(8, 8, 64, 64, 8), gpusim::tesla_p100());
  EXPECT_TRUE(f16.uses_fp16x2);
  EXPECT_DOUBLE_EQ(f16.fma_insts * 2.0, f32.fma_insts);
}

TEST(GemmAnalyze, TransposeLayoutsRaiseSmemCost) {
  // (N,T) — LINPACK — needs no smem transposes; (T,N) needs both. In-flight
  // transposition scalarizes the vectorized staging stores.
  const auto nt = analyze(make_shape(1024, 1024, 1024, DataType::F32, false, true),
                          make_tuning(8, 8, 64, 64, 8, 1, 1, 4), gpusim::gtx980ti());
  const auto tn = analyze(make_shape(1024, 1024, 1024, DataType::F32, true, false),
                          make_tuning(8, 8, 64, 64, 8, 1, 1, 4), gpusim::gtx980ti());
  EXPECT_LT(nt.smem_conflict_ways, tn.smem_conflict_ways);
  EXPECT_LT(nt.st_shared_insts, tn.st_shared_insts);
}

TEST(GemmAnalyze, IllegalConfigThrows) {
  GemmTuning t = make_tuning(1, 1, 128, 128, 8);
  EXPECT_THROW(analyze(make_shape(512, 512, 512), t, gpusim::gtx980ti()),
               std::invalid_argument);
}

TEST(GemmAnalyze, RequestedTrafficScalesWithGrid) {
  const auto small = analyze(make_shape(512, 512, 512), make_tuning(8, 8, 64, 64, 8),
                             gpusim::gtx980ti());
  const auto large = analyze(make_shape(2048, 2048, 512), make_tuning(8, 8, 64, 64, 8),
                             gpusim::gtx980ti());
  EXPECT_GT(large.requested_read_bytes, small.requested_read_bytes * 10);
}

// --------------------------------------------------------------- executor --
struct ExecCase {
  std::int64_t m, n, k;
  bool ta, tb;
  GemmTuning tuning;
};

class GemmExecutorMatchesReference : public ::testing::TestWithParam<ExecCase> {};

TEST_P(GemmExecutorMatchesReference, Float) {
  const ExecCase& ec = GetParam();
  const GemmShape shape =
      make_shape(ec.m, ec.n, ec.k, DataType::F32, ec.ta, ec.tb);
  Rng rng(static_cast<std::uint64_t>(ec.m * 7 + ec.n * 3 + ec.k));

  const std::int64_t lda = ec.ta ? ec.k : ec.m;
  const std::int64_t ldb = ec.tb ? ec.n : ec.k;
  std::vector<float> a(static_cast<std::size_t>(lda * (ec.ta ? ec.m : ec.k)));
  std::vector<float> b(static_cast<std::size_t>(ldb * (ec.tb ? ec.k : ec.n)));
  for (auto& x : a) x = static_cast<float>(rng.uniform(-1, 1));
  for (auto& x : b) x = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> c(static_cast<std::size_t>(ec.m * ec.n));
  for (auto& x : c) x = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> c_ref = c;

  execute_gemm(shape, ec.tuning, 1.5f, a.data(), lda, b.data(), ldb, 0.5f, c.data(), ec.m);
  reference_gemm(shape, 1.5f, a.data(), lda, b.data(), ldb, 0.5f, c_ref.data(), ec.m);

  double max_diff = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    max_diff = std::max(max_diff, static_cast<double>(std::abs(c[i] - c_ref[i])));
  }
  EXPECT_LT(max_diff, 1e-3 * static_cast<double>(ec.k))
      << "shape " << shape.to_string() << " tuning " << ec.tuning.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    ShapesLayoutsSplits, GemmExecutorMatchesReference,
    ::testing::Values(
        // Exact tiles, all four layouts.
        ExecCase{64, 64, 64, false, false, make_tuning(4, 4, 32, 32, 8)},
        ExecCase{64, 64, 64, false, true, make_tuning(4, 4, 32, 32, 8)},
        ExecCase{64, 64, 64, true, false, make_tuning(4, 4, 32, 32, 8)},
        ExecCase{64, 64, 64, true, true, make_tuning(4, 4, 32, 32, 8)},
        // Ragged edges in every dimension (predication paths).
        ExecCase{61, 67, 53, false, false, make_tuning(4, 4, 32, 32, 8)},
        ExecCase{33, 31, 17, false, true, make_tuning(4, 4, 32, 32, 8)},
        ExecCase{7, 100, 129, true, false, make_tuning(2, 4, 16, 32, 4)},
        // Skinny shapes (the paper's DeepBench/ICA regimes).
        ExecCase{256, 16, 256, false, false, make_tuning(4, 2, 64, 16, 8)},
        ExecCase{32, 32, 4096, false, true, make_tuning(4, 4, 32, 32, 8)},
        // Split reductions: KL, KG, and both.
        ExecCase{64, 64, 512, false, false, make_tuning(4, 4, 32, 32, 8, 2, 1)},
        ExecCase{64, 64, 512, false, true, make_tuning(4, 4, 32, 32, 8, 1, 4)},
        ExecCase{48, 48, 1000, true, false, make_tuning(4, 4, 32, 32, 4, 2, 8)},
        // K not divisible by KG (empty tail slices).
        ExecCase{32, 32, 100, false, false, make_tuning(4, 4, 32, 32, 4, 1, 8)},
        // Single-element micro-tiles.
        ExecCase{16, 16, 32, false, false, make_tuning(1, 1, 8, 8, 4)}));

// -------------------------------------------------------- exact semantics --
// With KG == 1 every element of C is one ordered float reduction: k
// ascending, products whose B value is zero skipped, then
// c = {0 | c | c·beta} + alpha·acc. Any tiling (ML, NL, U, KL) and layout
// must reproduce it bit for bit. (Assumes the default x86-64 build, which
// has no FMA to contract a·b + acc into.)
template <typename T>
void ordered_reference(const GemmShape& s, T alpha, const T* a, std::int64_t lda, const T* b,
                       std::int64_t ldb, T beta, T* c, std::int64_t ldc) {
  for (std::int64_t n = 0; n < s.n; ++n) {
    for (std::int64_t m = 0; m < s.m; ++m) {
      T acc = 0;
      for (std::int64_t k = 0; k < s.k; ++k) {
        const T bv = s.trans_b ? b[n + k * ldb] : b[k + n * ldb];
        if (bv == T(0)) continue;
        acc += (s.trans_a ? a[k + m * lda] : a[m + k * lda]) * bv;
      }
      T& out = c[m + n * ldc];
      const T base = beta == T(0) ? T(0) : beta == T(1) ? out : out * beta;
      out = base + alpha * acc;
    }
  }
}

/// Uniform values with about one in five set to an exact zero (some -0).
template <typename T>
std::vector<T> with_zeros(Rng& rng, std::size_t n) {
  std::vector<T> v(n);
  for (auto& x : v) {
    const double u = rng.uniform(0, 1);
    x = u < 0.1 ? T(0) : u < 0.2 ? -T(0) : static_cast<T>(rng.uniform(-1, 1));
  }
  return v;
}

template <typename T>
bool bit_equal(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

struct ExactCase {
  std::int64_t m, n, k;
  GemmTuning tuning;
};

class GemmExecutorExact
    : public ::testing::TestWithParam<std::tuple<ExactCase, bool, bool>> {};

TEST_P(GemmExecutorExact, BitIdenticalToOrderedReference) {
  const auto& [ec, ta, tb] = GetParam();
  const GemmShape shape = make_shape(ec.m, ec.n, ec.k, DataType::F32, ta, tb);
  Rng rng(static_cast<std::uint64_t>(ec.m * 31 + ec.n * 7 + ec.k + (ta ? 1000 : 0) +
                                     (tb ? 2000 : 0)));
  // Padded leading dimensions; C's padding rows must come back unchanged.
  const std::int64_t lda = (ta ? ec.k : ec.m) + 3;
  const std::int64_t ldb = (tb ? ec.n : ec.k) + 1;
  const std::int64_t ldc = ec.m + 2;
  const auto a = with_zeros<float>(rng, static_cast<std::size_t>(lda * (ta ? ec.m : ec.k)));
  const auto b = with_zeros<float>(rng, static_cast<std::size_t>(ldb * (tb ? ec.k : ec.n)));
  const auto c0 = with_zeros<float>(rng, static_cast<std::size_t>(ldc * ec.n));
  for (const float beta : {0.0f, 1.0f, 0.5f}) {
    std::vector<float> c = c0, c_ref = c0;
    execute_gemm(shape, ec.tuning, 1.25f, a.data(), lda, b.data(), ldb, beta, c.data(), ldc);
    ordered_reference(shape, 1.25f, a.data(), lda, b.data(), ldb, beta, c_ref.data(), ldc);
    EXPECT_TRUE(bit_equal(c, c_ref)) << shape.to_string() << " / " << ec.tuning.to_string()
                                     << " beta " << beta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TilesLayoutsBetas, GemmExecutorExact,
    ::testing::Combine(
        ::testing::Values(
            // ML = 8 / 16 / 32 / 64, exact tiles.
            ExactCase{64, 32, 48, make_tuning(4, 4, 8, 16, 4)},
            ExactCase{64, 64, 64, make_tuning(4, 4, 16, 32, 8)},
            ExactCase{64, 64, 40, make_tuning(4, 4, 32, 8, 8, 2)},
            ExactCase{128, 32, 64, make_tuning(8, 4, 64, 32, 4)},
            // Ragged M, N and K with every ML.
            ExactCase{61, 37, 53, make_tuning(2, 4, 8, 16, 4)},
            ExactCase{45, 29, 19, make_tuning(4, 2, 16, 8, 8)},
            ExactCase{70, 33, 77, make_tuning(4, 4, 32, 16, 4, 2)},
            ExactCase{97, 41, 35, make_tuning(8, 4, 64, 16, 8)},
            // ML = 1 / 2 / 4, with ragged column counts.
            ExactCase{13, 21, 30, make_tuning(1, 1, 4, 4, 2)},
            ExactCase{19, 27, 41, make_tuning(1, 2, 2, 16, 4)},
            ExactCase{9, 50, 33, make_tuning(1, 4, 1, 32, 8)}),
        ::testing::Bool(), ::testing::Bool()));

TEST(GemmExecutorExact, NonFiniteAWithZeroBIsSkipped) {
  // inf · 0 would be NaN: a zero B value must skip the product outright.
  for (const int ml : {1, 2, 4, 8, 16, 64}) {
    for (const bool tb : {false, true}) {
      const GemmShape shape = make_shape(23, 19, 29, DataType::F32, false, tb);
      Rng rng(static_cast<std::uint64_t>(ml * 2 + tb));
      auto a = with_zeros<float>(rng, 23 * 29);
      const auto b = with_zeros<float>(rng, 29 * 23);
      for (std::size_t i = 0; i < a.size(); i += 7) {
        a[i] = i % 3 == 0 ? std::numeric_limits<float>::infinity()
                          : std::numeric_limits<float>::quiet_NaN();
      }
      std::vector<float> c(23 * 19, 0.0f), c_ref = c;
      const GemmTuning t = make_tuning(1, 1, ml, 8, 4);
      execute_gemm(shape, t, 1.0f, a.data(), 23, b.data(), tb ? 19 : 29, 0.0f, c.data(), 23);
      ordered_reference(shape, 1.0f, a.data(), 23, b.data(), tb ? 19 : 29, 0.0f, c_ref.data(),
                        23);
      for (std::size_t i = 0; i < c.size(); ++i) {
        const bool same = std::isnan(c[i]) ? std::isnan(c_ref[i])
                                           : std::memcmp(&c[i], &c_ref[i], sizeof(float)) == 0;
        ASSERT_TRUE(same) << "ml " << ml << " tb " << tb << " at " << i << ": " << c[i]
                          << " vs " << c_ref[i];
      }
    }
  }
}

TEST(GemmExecutorExact, DoublePrecisionBitIdentical) {
  const GemmShape shape = make_shape(37, 45, 71, DataType::F64, true, false);
  Rng rng(21);
  const auto a = with_zeros<double>(rng, 71 * 37);
  const auto b = with_zeros<double>(rng, 71 * 45);
  const auto c0 = with_zeros<double>(rng, 37 * 45);
  for (const double beta : {0.0, 1.0, 0.5}) {
    std::vector<double> c = c0, c_ref = c0;
    execute_gemm(shape, make_tuning(4, 4, 16, 16, 4), -0.75, a.data(), 71, b.data(), 71, beta,
                 c.data(), 37);
    ordered_reference(shape, -0.75, a.data(), 71, b.data(), 71, beta, c_ref.data(), 37);
    EXPECT_TRUE(bit_equal(c, c_ref)) << "beta " << beta;
  }
}

TEST(GemmExecutorExact, BatchedEqualsPerItemGemm) {
  BatchedGemmShape shape;
  shape.batch = 5;
  shape.gemm = make_shape(37, 26, 45, DataType::F32, false, true);
  const GemmTuning tuning = make_tuning(4, 2, 16, 8, 4);
  const std::int64_t lda = 40, ldb = 27, ldc = 38;
  const std::int64_t stride_a = lda * 45 + 5, stride_b = ldb * 45 + 3, stride_c = ldc * 26 + 7;
  Rng rng(5);
  const auto a = with_zeros<float>(rng, static_cast<std::size_t>(stride_a * shape.batch));
  const auto b = with_zeros<float>(rng, static_cast<std::size_t>(stride_b * shape.batch));
  const auto c0 = with_zeros<float>(rng, static_cast<std::size_t>(stride_c * shape.batch));
  for (const float beta : {0.0f, 1.0f, 0.5f}) {
    std::vector<float> c = c0, c_items = c0;
    execute_batched_gemm(shape, tuning, 1.5f, a.data(), lda, stride_a, b.data(), ldb, stride_b,
                         beta, c.data(), ldc, stride_c);
    for (std::int64_t i = 0; i < shape.batch; ++i) {
      execute_gemm(shape.gemm, tuning, 1.5f, a.data() + i * stride_a, lda,
                   b.data() + i * stride_b, ldb, beta, c_items.data() + i * stride_c, ldc);
    }
    EXPECT_TRUE(bit_equal(c, c_items)) << "beta " << beta;
  }
}

TEST(GemmExecutor, DoublePrecision) {
  const GemmShape shape = make_shape(40, 40, 200, DataType::F64, false, true);
  Rng rng(9);
  std::vector<double> a(40 * 200), b(40 * 200), c(40 * 40, 0.0), c_ref(40 * 40, 0.0);
  for (auto& x : a) x = rng.uniform(-1, 1);
  for (auto& x : b) x = rng.uniform(-1, 1);
  execute_gemm(shape, make_tuning(4, 4, 8, 8, 4, 1, 4), 1.0, a.data(), 40, b.data(), 40, 0.0,
               c.data(), 40);
  reference_gemm(shape, 1.0, a.data(), 40, b.data(), 40, 0.0, c_ref.data(), 40);
  double max_diff = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(c[i] - c_ref[i]));
  }
  EXPECT_LT(max_diff, 1e-9);
}

TEST(GemmExecutor, BetaZeroIgnoresGarbage) {
  const GemmShape shape = make_shape(8, 8, 8);
  std::vector<float> a(64, 1.0f), b(64, 1.0f);
  std::vector<float> c(64, std::numeric_limits<float>::quiet_NaN());
  execute_gemm(shape, make_tuning(2, 2, 8, 8, 4), 1.0f, a.data(), 8, b.data(), 8, 0.0f,
               c.data(), 8);
  for (float v : c) EXPECT_FLOAT_EQ(v, 8.0f);
}

TEST(GemmExecutor, LeadingDimensionValidated) {
  const GemmShape shape = make_shape(16, 16, 16);
  std::vector<float> a(256), b(256), c(256);
  EXPECT_THROW(execute_gemm(shape, make_tuning(2, 2, 8, 8, 4), 1.0f, a.data(), 8, b.data(), 16,
                            0.0f, c.data(), 16),
               std::invalid_argument);
}

TEST(GemmExecutor, EmptyProblemThrows) {
  const GemmShape shape = make_shape(0, 8, 8);
  std::vector<float> dummy(64);
  EXPECT_THROW(execute_gemm(shape, make_tuning(2, 2, 8, 8, 4), 1.0f, dummy.data(), 8,
                            dummy.data(), 8, 0.0f, dummy.data(), 8),
               std::invalid_argument);
}

}  // namespace
}  // namespace isaac::codegen
