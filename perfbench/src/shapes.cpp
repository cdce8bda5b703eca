#include "shapes.hpp"

#include <algorithm>
#include <cmath>

#include "core/operation.hpp"

namespace perfbench {

namespace icd = isaac::codegen;
namespace icore = isaac::core;

namespace {

template <typename Op>
std::string key_of(const typename icore::OperationTraits<Op>::Shape& shape) {
  return std::string(icore::OperationTraits<Op>::kind()) + '|' +
         icore::OperationTraits<Op>::shape_key(shape);
}

/// Log-uniform in [lo, hi] within stratum `k` of `strata` equal slices of the
/// log range: draws k = 0, 1, ... cover the range evenly.
std::int64_t log_uniform(isaac::Rng& rng, std::int64_t lo, std::int64_t hi, std::size_t k = 0,
                         std::size_t strata = 1) {
  const double u = (static_cast<double>(k % strata) + rng.uniform()) / static_cast<double>(strata);
  const double log_lo = std::log(static_cast<double>(lo));
  const double x = std::exp(log_lo + u * (std::log(static_cast<double>(hi)) - log_lo));
  return std::clamp(static_cast<std::int64_t>(std::llround(x)), lo, hi);
}

std::int64_t scaled(isaac::Rng& rng, std::int64_t v, std::int64_t step) {
  const double x = static_cast<double>(v) * rng.uniform(0.75, 1.25);
  return std::max<std::int64_t>(step, static_cast<std::int64_t>(std::llround(x / step)) * step);
}

icd::GemmShape make_gemm(std::int64_t m, std::int64_t n, std::int64_t k, bool ta, bool tb) {
  icd::GemmShape s;
  s.m = m;
  s.n = n;
  s.k = k;
  s.trans_a = ta;
  s.trans_b = tb;
  return s;
}

// Table 5 of the paper: N, P, Q, K, C, R, S.
struct ConvRow {
  int n, p, q, k, c, r, s;
};
constexpr ConvRow kTable5[] = {
    {16, 79, 341, 32, 1, 5, 20}, {16, 38, 166, 32, 32, 5, 10}, {16, 24, 240, 32, 16, 3, 3},
    {16, 12, 120, 64, 32, 3, 3}, {8, 54, 54, 64, 64, 3, 3},    {8, 27, 27, 128, 128, 3, 3},
    {16, 14, 14, 48, 512, 5, 5}, {16, 7, 7, 128, 832, 5, 5},   {8, 112, 112, 128, 64, 3, 3},
    {8, 56, 56, 256, 128, 3, 3}, {16, 128, 39, 174, 64, 5, 5}, {16, 256, 19, 87, 128, 5, 5},
    {16, 7, 7, 512, 512, 3, 3},  {16, 7, 7, 2048, 1024, 1, 1},
};

}  // namespace

icd::GemmShape ShapeGenerator::gemm_regime(int regime, std::size_t k, std::size_t strata) {
  switch (regime) {
    case 0: {  // LINPACK square
      const std::int64_t s = log_uniform(rng_, 512, 4096, k, strata);
      return make_gemm(s, s, s, false, true);
    }
    case 1:    // DeepBench skinny, forward (N, N)
    case 2: {  // DeepBench skinny, backward (T, N)
      constexpr std::int64_t kHidden[] = {1760, 2048, 2560, 4096};
      const std::int64_t h = kHidden[rng_.uniform_int(0, 3)];
      return make_gemm(h, log_uniform(rng_, 8, 128, k, strata), h, regime == 2, false);
    }
    case 3: {  // ICA deep-K
      const std::int64_t c = log_uniform(rng_, 16, 256, k, strata);
      return make_gemm(c, c, log_uniform(rng_, 20000, 80000), false, true);
    }
    default: {  // blocked SVD panels
      constexpr std::int64_t kPanel[] = {16, 32, 64};
      const std::int64_t s = log_uniform(rng_, 512, 4096, k, strata);
      return make_gemm(s, s, kPanel[rng_.uniform_int(0, 2)], false, true);
    }
  }
}

ShapeGenerator::ShapeGenerator(std::uint64_t seed)
    : rng_(seed), conv_row_(static_cast<std::size_t>(rng_.uniform_int(0, std::size(kTable5) - 1))) {}

icd::ConvShape ShapeGenerator::conv_layer() {
  // Rows cycle, so every seed covers Table 5 evenly.
  const ConvRow& row = kTable5[conv_row_++ % std::size(kTable5)];
  return icd::ConvShape::from_npq(row.n, scaled(rng_, row.p, 1), scaled(rng_, row.q, 1),
                                  scaled(rng_, row.k, 8), row.c == 1 ? 1 : scaled(rng_, row.c, 8),
                                  row.r, row.s);
}

icd::BatchedGemmShape ShapeGenerator::batched(std::int64_t lo, std::int64_t hi,
                                              std::int64_t max_batch) {
  icd::BatchedGemmShape s;
  s.batch = log_uniform(rng_, 2, max_batch);
  s.gemm = make_gemm(log_uniform(rng_, lo, hi), log_uniform(rng_, lo, hi),
                     log_uniform(rng_, lo, hi), false, rng_.bernoulli(0.5));
  return s;
}

ShapeSet ShapeGenerator::paper_regimes(std::size_t gemm, std::size_t conv, std::size_t bgemm) {
  ShapeSet out;
  // Regimes rotate so every prefix of the GEMM list covers all five, and each
  // regime's draws are stratified over its size range: a regime's speed-up
  // over the vendor heuristic varies with size by more than 10x (ICA deep-K),
  // so unstratified draws would make the quality geomeans vary by seed.
  constexpr std::size_t kRegimes = 5;
  const std::size_t strata = (gemm + kRegimes - 1) / kRegimes;
  for (int regime = 0; out.gemm.size() < gemm; regime = (regime + 1) % kRegimes) {
    const std::size_t k = out.gemm.size() / kRegimes;
    for (;;) {
      const auto s = gemm_regime(regime, k, strata);
      if (fresh(key_of<icore::GemmOp>(s))) {
        out.gemm.push_back(s);
        break;
      }
    }
  }
  while (out.conv.size() < conv) {
    const auto s = conv_layer();
    if (fresh(key_of<icore::ConvOp>(s))) out.conv.push_back(s);
  }
  while (out.bgemm.size() < bgemm) {
    const auto s = batched(16, 256, 256);
    if (fresh(key_of<icore::BatchedGemmOp>(s))) out.bgemm.push_back(s);
  }
  return out;
}

ShapeSet ShapeGenerator::host_executable(std::size_t gemm, std::size_t conv, std::size_t bgemm) {
  // Fixed templates, each with one dimension jittered by one step, so the
  // work per call stays within a few percent from seed to seed.
  constexpr std::int64_t kGemm[][3] = {{64, 48, 64}, {96, 32, 64}, {48, 64, 96}, {64, 64, 32},
                                       {32, 96, 64}, {80, 40, 48}, {56, 56, 56}, {40, 72, 64}};
  constexpr std::int64_t kConv[][4] = {{1, 12, 16, 8}, {2, 8, 8, 16}, {1, 10, 32, 8}, {2, 6, 16, 16}};
  constexpr std::int64_t kBatched[][4] = {{4, 32, 32, 32}, {8, 24, 32, 16}, {2, 48, 40, 32},
                                          {6, 32, 24, 40}};
  ShapeSet out;
  for (std::size_t i = 0; out.gemm.size() < gemm; ++i) {
    const auto* t = kGemm[i % std::size(kGemm)];
    const auto s = make_gemm(t[0], t[1] + 8 * rng_.uniform_int(0, 1), t[2], i % 2 == 1, i % 4 >= 2);
    if (fresh(key_of<icore::GemmOp>(s))) out.gemm.push_back(s);
  }
  for (std::size_t i = 0; out.conv.size() < conv; ++i) {
    const auto* t = kConv[i % std::size(kConv)];  // N, P = Q, K, C; 3x3 filters
    const auto s = icd::ConvShape::from_npq(t[0], t[1] + rng_.uniform_int(0, 1), t[1], t[2], t[3], 3, 3);
    if (fresh(key_of<icore::ConvOp>(s))) out.conv.push_back(s);
  }
  for (std::size_t i = 0; out.bgemm.size() < bgemm; ++i) {
    const auto* t = kBatched[i % std::size(kBatched)];
    icd::BatchedGemmShape s;
    s.batch = t[0];
    s.gemm = make_gemm(t[1], t[2] + 8 * rng_.uniform_int(0, 1), t[3], false, i % 2 == 1);
    if (fresh(key_of<icore::BatchedGemmOp>(s))) out.bgemm.push_back(s);
  }
  return out;
}

}  // namespace perfbench
