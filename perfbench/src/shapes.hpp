// Seeded shape generator over the paper's input regimes. The library only
// ever sees the shapes drawn here; the same seed gives the same shapes.
//
// Regimes (paper Tables 4 and 5, each with seeded jitter):
//   LINPACK square        M = N = K in [512, 4096], (N, T)
//   DeepBench skinny      M = K around {1760, 2048, 2560, 4096}, N in [8, 128],
//                         forward (N, N) and backward (T, N)
//   ICA deep-K            M = N in [16, 256], K in [20000, 80000], (N, T)
//   blocked SVD           M = N in [512, 4096], K in {16, 32, 64}, (N, T)
//   Table 5 conv layers   one of Conv1..Conv14, P/Q/K/C scaled by 0.75-1.25
//   batched GEMM          batch in [4, 256], M/N/K in [16, 256]
// plus small-to-mid host-executable shapes for the hot_execute phase.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "codegen/batched_gemm.hpp"
#include "codegen/conv.hpp"
#include "codegen/gemm.hpp"
#include "common/rng.hpp"

namespace perfbench {

/// One set of shapes per operation.
struct ShapeSet {
  std::vector<isaac::codegen::GemmShape> gemm;
  std::vector<isaac::codegen::ConvShape> conv;
  std::vector<isaac::codegen::BatchedGemmShape> bgemm;
  std::size_t size() const { return gemm.size() + conv.size() + bgemm.size(); }
};

/// Draws shapes that are distinct across every set it has produced, so a
/// shape meant to arrive cold never collides with a pre-warmed one.
class ShapeGenerator {
 public:
  explicit ShapeGenerator(std::uint64_t seed);

  /// `gemm` GEMMs spread evenly over the five GEMM regimes and over each
  /// regime's size range, `conv` Table 5
  /// conv layers and `bgemm` batched GEMMs.
  ShapeSet paper_regimes(std::size_t gemm, std::size_t conv, std::size_t bgemm);

  /// Small-to-mid fp32 shapes cheap enough to execute on the host: fixed
  /// templates with a one-step seeded jitter.
  ShapeSet host_executable(std::size_t gemm, std::size_t conv, std::size_t bgemm);

 private:
  bool fresh(const std::string& key) { return seen_.insert(key).second; }
  /// A GEMM of `regime`, its size from stratum `k` of `strata`.
  isaac::codegen::GemmShape gemm_regime(int regime, std::size_t k, std::size_t strata);
  isaac::codegen::ConvShape conv_layer();
  isaac::codegen::BatchedGemmShape batched(std::int64_t lo, std::int64_t hi,
                                           std::int64_t max_batch);

  isaac::Rng rng_;
  std::set<std::string> seen_;
  std::size_t conv_row_ = 0;  // Table 5 rows cycle from a seeded start
};

}  // namespace perfbench
