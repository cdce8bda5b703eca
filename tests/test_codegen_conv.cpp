// Tests for the CONV parameterization: implicit-GEMM lowering, validity,
// analysis, and the functional executor against the naive direct reference
// and, bit for bit, against the ordered per-element semantics.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "codegen/conv.hpp"
#include "codegen/conv_executor.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"

namespace isaac::codegen {
namespace {

ConvTuning tiny_tuning() {
  ConvTuning t;
  t.tk = 2;
  t.tp = 1;
  t.tq = 1;
  t.tn = 2;
  t.bk = 8;
  t.bp = 2;
  t.bq = 2;
  t.bn = 4;
  t.u = 4;
  return t;
}

// ---------------------------------------------------------------- shapes --
TEST(ConvShape, DerivedDims) {
  ConvShape s;
  s.h = 8;
  s.w = 10;
  s.r = 3;
  s.s = 3;
  EXPECT_EQ(s.p(), 6);
  EXPECT_EQ(s.q(), 8);
  s.pad_h = s.pad_w = 1;
  EXPECT_EQ(s.p(), 8);
  EXPECT_EQ(s.q(), 10);
  s.stride_h = s.stride_w = 2;
  EXPECT_EQ(s.p(), 4);
  EXPECT_EQ(s.q(), 5);
}

TEST(ConvShape, FilterLargerThanPaddedInputHasNoOutput) {
  // 2×2 input, 3×3 filter, stride 2: the only window hangs off the image.
  ConvShape s;
  s.n = 2;
  s.c = 2;
  s.k = 8;
  s.h = s.w = 2;
  s.r = s.s = 3;
  s.stride_h = s.stride_w = 2;
  EXPECT_LE(s.p(), 0);
  EXPECT_LE(s.q(), 0);
  std::string why;
  EXPECT_FALSE(validate(s, tiny_tuning(), gpusim::gtx980ti(), &why));
  EXPECT_EQ(why, "filter larger than padded input");
  const std::vector<float> input(16, 1.0f), filters(256, 1.0f);
  std::vector<float> output(64, 7.0f);
  EXPECT_THROW(execute_conv(s, tiny_tuning(), 1.0f, input.data(), filters.data(), 0.0f,
                            output.data()),
               std::invalid_argument);
  for (float v : output) EXPECT_EQ(v, 7.0f);
}

TEST(ConvShape, FromNpqMatchesTable5Convention) {
  // Conv5 of Table 5: N=8, P=Q=54, K=64, C=64, R=S=3.
  const auto s = ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  EXPECT_EQ(s.p(), 54);
  EXPECT_EQ(s.q(), 54);
  EXPECT_EQ(s.npq(), 8 * 54 * 54);
  EXPECT_EQ(s.crs(), 64 * 3 * 3);
}

TEST(ConvShape, FlopsMatchImplicitGemm) {
  const auto s = ConvShape::from_npq(16, 7, 7, 512, 512, 3, 3);
  const auto g = conv_gemm_shape(s);
  EXPECT_DOUBLE_EQ(s.flops(), g.flops());
  EXPECT_EQ(g.m, s.npq());
  EXPECT_EQ(g.n, s.k);
  EXPECT_EQ(g.k, s.crs());
}

// -------------------------------------------------------------- validity --
TEST(ConvValidity, TypicalConfigLegal) {
  const auto s = ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  std::string why;
  EXPECT_TRUE(validate(s, tiny_tuning(), gpusim::gtx980ti(), &why)) << why;
}

TEST(ConvValidity, ThreadTileMustDivideBlockTile) {
  auto t = tiny_tuning();
  t.tk = 4;
  t.bk = 2;
  const auto s = ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  EXPECT_FALSE(validate(s, t, gpusim::gtx980ti()));
}

TEST(ConvValidity, OversizedSpatialTileRejected) {
  auto t = tiny_tuning();
  t.bp = 8;
  t.bq = 8;  // output is 3x3: hopeless tile
  ConvShape s = ConvShape::from_npq(4, 3, 3, 16, 16, 3, 3);
  std::string why;
  EXPECT_FALSE(validate(s, t, gpusim::gtx980ti(), &why));
  EXPECT_NE(why.find("exceeds output"), std::string::npos);
}

TEST(ConvValidity, GemmConstraintsPropagate) {
  auto t = tiny_tuning();
  t.cg = 64;  // CRS = 576 < ... fine; but make it beyond: use small filter
  ConvShape s = ConvShape::from_npq(8, 54, 54, 64, 2, 1, 1);  // CRS = 2
  EXPECT_FALSE(validate(s, t, gpusim::gtx980ti()));
}

// --------------------------------------------------------------- analysis --
TEST(ConvAnalyze, ProfileLowersToGemm) {
  const auto s = ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  const auto p = analyze(s, tiny_tuning(), gpusim::gtx980ti());
  const auto gt = conv_gemm_tuning(tiny_tuning());
  EXPECT_EQ(p.threads_per_block, gt.threads_per_block());
  EXPECT_DOUBLE_EQ(p.useful_flops, s.flops());
  EXPECT_GT(p.fma_insts, 0.0);
  // Indirection table adds integer and load traffic over the plain GEMM.
  const auto plain = analyze(conv_gemm_shape(s), gt, gpusim::gtx980ti());
  EXPECT_GT(p.ld_global_insts, plain.ld_global_insts);
  EXPECT_GT(p.int_insts, plain.int_insts);
}

TEST(ConvAnalyze, CompulsoryTrafficUsesUniqueInput) {
  // 3x3 filter: implicit-GEMM A would be ~9x the input; compulsory traffic
  // must reflect the unique C*H*W*N input instead.
  const auto s = ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  const auto p = analyze(s, tiny_tuning(), gpusim::gtx980ti());
  const double unique = 64.0 * s.h * s.w * 8 * 4;
  const double implicit_a = static_cast<double>(s.npq()) * s.crs() * 4;
  EXPECT_LT(p.dram_read_bytes, implicit_a);
  EXPECT_GE(p.dram_read_bytes, unique);
}

TEST(ConvAnalyze, DeepReductionCanSplit) {
  // Conv8-like: tiny NPQ, huge CRS — the regime where CG/CL wins (paper §7.4).
  const auto s = ConvShape::from_npq(16, 7, 7, 128, 832, 5, 5);
  auto t = tiny_tuning();
  t.cg = 8;
  t.cl = 2;
  std::string why;
  ASSERT_TRUE(validate(s, t, gpusim::tesla_p100(), &why)) << why;
  const auto p = analyze(s, t, gpusim::tesla_p100());
  EXPECT_GT(p.atom_global_insts, 0.0);
  EXPECT_EQ(p.extra_launches, 1);
}

TEST(ConvAnalyze, IllegalThrows) {
  auto t = tiny_tuning();
  t.bk = 4;  // tk=2 ok, but make block tiny and thread tile not dividing
  t.tk = 8;
  const auto s = ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  EXPECT_THROW(analyze(s, t, gpusim::gtx980ti()), std::invalid_argument);
}

// --------------------------------------------------------------- executor --
struct ConvCase {
  ConvShape shape;
  ConvTuning tuning;
};

class ConvExecutorMatchesReference : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvExecutorMatchesReference, Float) {
  const ConvShape& s = GetParam().shape;
  const ConvTuning& t = GetParam().tuning;
  Rng rng(static_cast<std::uint64_t>(s.c * 7 + s.k * 3 + s.n));

  std::vector<float> input(static_cast<std::size_t>(s.c * s.h * s.w * s.n));
  std::vector<float> filters(static_cast<std::size_t>(s.c * s.r * s.s * s.k));
  for (auto& x : input) x = static_cast<float>(rng.uniform(-1, 1));
  for (auto& x : filters) x = static_cast<float>(rng.uniform(-1, 1));

  const std::size_t out_size = static_cast<std::size_t>(s.k * s.p() * s.q() * s.n);
  std::vector<float> out(out_size, 0.5f), out_ref(out_size, 0.5f);

  execute_conv(s, t, 1.0f, input.data(), filters.data(), 0.0f, out.data());
  reference_conv(s, 1.0f, input.data(), filters.data(), 0.0f, out_ref.data());

  double max_diff = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    max_diff = std::max(max_diff, static_cast<double>(std::abs(out[i] - out_ref[i])));
  }
  EXPECT_LT(max_diff, 1e-3 * static_cast<double>(s.crs()))
      << s.to_string() << " / " << t.to_string();
}

ConvCase cc(ConvShape s, ConvTuning t) { return ConvCase{s, t}; }

ConvShape strided_padded() {
  ConvShape s;
  s.n = 2;
  s.c = 3;
  s.h = 11;
  s.w = 9;
  s.k = 4;
  s.r = 3;
  s.s = 3;
  s.pad_h = 1;
  s.pad_w = 1;
  s.stride_h = 2;
  s.stride_w = 2;
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSplits, ConvExecutorMatchesReference,
    ::testing::Values(
        // Basic 3x3, exact-ish tiles.
        cc(ConvShape::from_npq(4, 8, 8, 8, 4, 3, 3), tiny_tuning()),
        // 1x1 "pointwise" (degenerates to plain GEMM).
        cc(ConvShape::from_npq(4, 6, 6, 16, 8, 1, 1), tiny_tuning()),
        // Single-image single-filter signal processing case (N=C=K=1, §3.3).
        cc(ConvShape::from_npq(1, 16, 16, 1, 1, 5, 5),
           [] {
             auto t = tiny_tuning();
             t.bk = 8;
             t.tk = 1;
             t.bn = 1;
             t.tn = 1;
             t.bp = 4;
             t.bq = 4;
             t.tp = 2;
             t.tq = 2;
             return t;
           }()),
        // Ragged spatial extents.
        cc(ConvShape::from_npq(3, 7, 5, 6, 5, 3, 3), tiny_tuning()),
        // Split reduction along C (CL and CG).
        cc(ConvShape::from_npq(4, 8, 8, 8, 32, 3, 3),
           [] {
             auto t = tiny_tuning();
             t.cl = 2;
             t.cg = 4;
             return t;
           }()),
        // Padding + stride.
        cc(strided_padded(), [] {
          auto t = tiny_tuning();
          t.bk = 4;
          t.bn = 2;
          return t;
        }())));

// -------------------------------------------------------- exact semantics --
// With CG == 1 every output element is one ordered float reduction over
// (c, r, s) ascending (S fastest): taps whose filter value is zero skipped,
// padded input taps read as zero, then o = {0 | o | o·beta} + alpha·acc.
// Any tiling must reproduce it bit for bit (default x86-64 build, no FMA).
void ordered_reference(const ConvShape& s, float alpha, const float* input,
                       const float* filters, float beta, float* output) {
  const std::int64_t P = s.p(), Q = s.q();
  for (std::int64_t k = 0; k < s.k; ++k) {
    for (std::int64_t p = 0; p < P; ++p) {
      for (std::int64_t q = 0; q < Q; ++q) {
        for (std::int64_t n = 0; n < s.n; ++n) {
          float acc = 0.0f;
          for (std::int64_t c = 0; c < s.c; ++c) {
            for (std::int64_t r = 0; r < s.r; ++r) {
              for (std::int64_t sx = 0; sx < s.s; ++sx) {
                const float fv = filters[((c * s.r + r) * s.s + sx) * s.k + k];
                if (fv == 0.0f) continue;
                const std::int64_t hh = p * s.stride_h + r - s.pad_h;
                const std::int64_t ww = q * s.stride_w + sx - s.pad_w;
                const bool inside = hh >= 0 && hh < s.h && ww >= 0 && ww < s.w;
                const float iv = inside ? input[((c * s.h + hh) * s.w + ww) * s.n + n] : 0.0f;
                acc += iv * fv;
              }
            }
          }
          float& out = output[((k * P + p) * Q + q) * s.n + n];
          const float base = beta == 0.0f ? 0.0f : beta == 1.0f ? out : out * beta;
          out = base + alpha * acc;
        }
      }
    }
  }
}

/// Uniform values with about one in five set to an exact zero (some -0).
std::vector<float> with_zeros(Rng& rng, std::int64_t n) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    const double u = rng.uniform(0, 1);
    x = u < 0.1 ? 0.0f : u < 0.2 ? -0.0f : static_cast<float>(rng.uniform(-1, 1));
  }
  return v;
}

/// A block tile of one output pixel (ML = 1), as the tuner picks for small
/// layers.
ConvTuning pixel_tuning(int bk, int tk) {
  ConvTuning t;
  t.tk = tk;
  t.tp = t.tq = t.tn = 1;
  t.bk = bk;
  t.bp = t.bq = t.bn = 1;
  t.u = 8;
  return t;
}

class ConvExecutorExact : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvExecutorExact, BitIdenticalToOrderedReference) {
  const ConvShape& s = GetParam().shape;
  const ConvTuning& t = GetParam().tuning;
  Rng rng(static_cast<std::uint64_t>(s.c * 13 + s.k * 5 + s.n + s.stride_h));
  const auto input = with_zeros(rng, s.c * s.h * s.w * s.n);
  const auto filters = with_zeros(rng, s.c * s.r * s.s * s.k);
  const auto out0 = with_zeros(rng, s.k * s.p() * s.q() * s.n);
  for (const float beta : {0.0f, 1.0f, 0.5f}) {
    std::vector<float> out = out0, out_ref = out0;
    execute_conv(s, t, 0.75f, input.data(), filters.data(), beta, out.data());
    ordered_reference(s, 0.75f, input.data(), filters.data(), beta, out_ref.data());
    EXPECT_EQ(std::memcmp(out.data(), out_ref.data(), out.size() * sizeof(float)), 0)
        << s.to_string() << " / " << t.to_string() << " beta " << beta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TilesPaddingStride, ConvExecutorExact,
    ::testing::Values(
        cc(ConvShape::from_npq(1, 12, 12, 16, 8, 3, 3), pixel_tuning(8, 2)),
        cc(ConvShape::from_npq(2, 7, 5, 12, 6, 3, 3), pixel_tuning(16, 4)),
        cc(ConvShape::from_npq(1, 11, 10, 32, 8, 3, 3),
           [] {
             auto t = pixel_tuning(8, 2);
             t.tn = t.bn = 2;  // ML = 2
             return t;
           }()),
        cc(ConvShape::from_npq(3, 7, 5, 6, 5, 3, 3), tiny_tuning()),
        cc(ConvShape::from_npq(4, 6, 6, 16, 8, 1, 1), tiny_tuning()),
        cc(strided_padded(), pixel_tuning(4, 2)),
        cc(strided_padded(), [] {
          auto t = tiny_tuning();
          t.bk = 4;
          t.bn = 2;
          return t;
        }()),
        cc(
            [] {
              ConvShape s = strided_padded();
              s.n = 3;
              s.c = 5;
              s.k = 10;
              s.pad_h = 2;
              s.stride_w = 3;
              return s;
            }(),
            [] {
              auto t = tiny_tuning();
              t.cl = 2;
              return t;
            }())));

TEST(ConvExecutor, BetaScalesExistingOutput) {
  const auto s = ConvShape::from_npq(2, 4, 4, 2, 2, 3, 3);
  std::vector<float> input(static_cast<std::size_t>(s.c * s.h * s.w * s.n), 0.0f);
  std::vector<float> filters(static_cast<std::size_t>(s.crs() * s.k), 0.0f);
  std::vector<float> out(static_cast<std::size_t>(s.k * s.p() * s.q() * s.n), 2.0f);
  execute_conv(s, tiny_tuning(), 1.0f, input.data(), filters.data(), 0.5f, out.data());
  for (float v : out) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(ConvExecutor, EmptyProblemThrows) {
  ConvShape s;
  s.c = 0;
  std::vector<float> dummy(16);
  EXPECT_THROW(execute_conv(s, tiny_tuning(), 1.0f, dummy.data(), dummy.data(), 0.0f,
                            dummy.data()),
               std::invalid_argument);
}

}  // namespace
}  // namespace isaac::codegen
