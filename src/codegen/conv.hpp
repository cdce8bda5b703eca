// Multi-channel convolution (paper §3.3).
//
//   O[k, p, q, n] = sum_{c, r, s} I[c, p·stride+r-pad, q·stride+s-pad, n] * F[c, r, s, k]
//
// with tensor layouts exactly as the paper defines them:
//   O ∈ R^{K×P×Q×N}, I ∈ R^{C×H×W×N}, F ∈ R^{C×R×S×K}   (last index fastest)
//
// The kernel treats the (N,P,Q,K,C,R,S) convolution as an *implicit* matrix
// multiplication of shape (NPQ, K, CRS): tiles of I are gathered ("scrambled
// while being stored to shared memory") through a precomputed indirection
// table, so the inner loop is the same MS·NS·U unrolled FMA stream as GEMM.
// Tiling spans five dimensions (K, P, Q, N + the C reduction) instead of
// three; the reduction along C·R·S splits with CS/CL/CG exactly like K in
// GEMM. Analysis therefore lowers to the GEMM analyzer on the equivalent
// shape, with conv-specific costs added (indirection loads, gather
// coalescing).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "codegen/gemm.hpp"

namespace isaac::codegen {

struct ConvShape {
  std::int64_t n = 1;   // batch
  std::int64_t c = 1;   // input channels
  std::int64_t h = 1, w = 1;  // input spatial dims
  std::int64_t k = 1;   // output channels
  std::int64_t r = 1, s = 1;  // filter spatial dims
  std::int64_t pad_h = 0, pad_w = 0;
  std::int64_t stride_h = 1, stride_w = 1;
  gpusim::DataType dtype = gpusim::DataType::F32;

  /// Output extents: span / stride + 1 for a span (padded input minus
  /// filter) ≥ 0, and ≤ 0 when the filter exceeds the padded input — where
  /// span / stride + 1 alone would truncate to 1 at strides > 1. Branch-free:
  /// legality sweeps evaluate these per candidate, and a branch here made
  /// the conv validate sweep ~1.8× slower (GCC 12, -O2 -march=native).
  std::int64_t p() const noexcept { return out_extent(h + 2 * pad_h - r, stride_h); }
  std::int64_t q() const noexcept { return out_extent(w + 2 * pad_w - s, stride_w); }
  static std::int64_t out_extent(std::int64_t span, std::int64_t stride) noexcept {
    return span / stride + (span >= 0);
  }
  /// True when p() and q() can be computed without int64 overflow: the
  /// padded extents H + 2·pad_h and W + 2·pad_w fit.
  bool extents_fit() const noexcept;
  std::int64_t npq() const noexcept { return n * p() * q(); }
  std::int64_t crs() const noexcept { return c * r * s; }
  double flops() const noexcept {
    return 2.0 * static_cast<double>(npq()) * static_cast<double>(k) *
           static_cast<double>(crs());
  }
  std::string to_string() const;

  /// Construct from the paper's Table 5 row format (N,P,Q,K,C,R,S) assuming
  /// stride 1 and no padding, so H = P + R - 1 and W = Q + S - 1.
  static ConvShape from_npq(std::int64_t n, std::int64_t p, std::int64_t q, std::int64_t k,
                            std::int64_t c, std::int64_t r, std::int64_t s,
                            gpusim::DataType dtype = gpusim::DataType::F32);
};

/// Tuning parameters: per-thread tile (tk×tp×tq×tn of O), per-block tile
/// (bk×bp×bq×bn), prefetch depth u along C·R·S, and the three-way reduction
/// split cs/cl/cg of §3.3.
struct ConvTuning {
  int tk = 4, tp = 1, tq = 1, tn = 2;
  int bk = 32, bp = 2, bq = 2, bn = 8;
  int u = 8;
  int cs = 1, cl = 1, cg = 1;
  int vec = 1;
  gpusim::BoundsMode bounds = gpusim::BoundsMode::Predicated;

  int threads_per_block() const noexcept {
    return (bk / tk) * (bp / tp) * (bq / tq) * (bn / tn) * cl;
  }
  std::string to_string() const;
  bool operator==(const ConvTuning&) const = default;

  static const std::vector<int>& candidates_tk();
  static const std::vector<int>& candidates_tp();
  static const std::vector<int>& candidates_tq();
  static const std::vector<int>& candidates_tn();
  static const std::vector<int>& candidates_bk();
  static const std::vector<int>& candidates_bp();
  static const std::vector<int>& candidates_bq();
  static const std::vector<int>& candidates_bn();
  static const std::vector<int>& candidates_u();
  static const std::vector<int>& candidates_cl();
  static const std::vector<int>& candidates_cg();
};

/// The implicit-GEMM equivalent of (shape, tuning): rows = NPQ tile, cols = K
/// tile, reduction = CRS. Used by analysis and by the runtime feature vector.
GemmShape conv_gemm_shape(const ConvShape& shape);
GemmTuning conv_gemm_tuning(const ConvTuning& tuning);

bool validate(const ConvShape& shape, const ConvTuning& tuning,
              const gpusim::DeviceDescriptor& dev, std::string* why = nullptr);

gpusim::KernelProfile analyze(const ConvShape& shape, const ConvTuning& tuning,
                              const gpusim::DeviceDescriptor& dev);

}  // namespace isaac::codegen
