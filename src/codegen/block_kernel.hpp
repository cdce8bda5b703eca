// The block kernel shared by the three functional executors (GEMM, batched
// GEMM, conv), implemented in gemm_executor.cpp. Library-internal: callers
// use execute_gemm / execute_batched_gemm / execute_conv.
#pragma once

#include <cstdint>

#include "codegen/gemm.hpp"

namespace isaac::codegen::detail {

/// The conv input gather, as the block kernel loads op(A) of the implicit
/// GEMM (see conv.hpp): element (row, red) is input[rows[row].offset +
/// reds[red].offset] when the tap lands inside the image, 0 in the padding.
/// Both tables are built once per call, so no block decodes an index.
struct ConvGather {
  /// Output pixel (n, p, q): offset of its tap (c, r, s) = (0, 0, 0), which
  /// sits at input row h, column w (negative inside the padding).
  struct Row {
    std::int64_t offset, h, w;
  };
  /// Reduction index (c, r, s): offset relative to that tap, and (r, s).
  struct Red {
    std::int64_t offset, r, s;
  };
  const float* input = nullptr;
  const Row* rows = nullptr;
  const Red* reds = nullptr;
  std::int64_t h = 0, w = 0;
};

/// One executor call: `batch` products C_i = alpha·op(A_i)·op(B_i) + beta·C_i
/// of one shape, operand i at a + i·stride_a (likewise B and C).
template <typename T>
struct GridCall {
  GemmShape shape;
  std::int64_t batch = 1;
  T alpha = T(1), beta = T(0);
  const T* a = nullptr;
  std::int64_t lda = 0, stride_a = 0;
  const T* b = nullptr;
  std::int64_t ldb = 0, stride_b = 0;
  T* c = nullptr;
  std::int64_t ldc = 0, stride_c = 0;
};

/// Run the whole block grid of `call` (batch × KG × M/ML × N/NL blocks) as
/// one pool fork/join. With `gather`, op(A) comes from the conv input and
/// `call.a` is ignored. Throws std::invalid_argument, before touching C, on
/// an empty problem, an inconsistent tuning, a short leading dimension, or a
/// grid whose block count overflows.
void run_grid(const GemmTuning& tuning, const GridCall<float>& call,
              const ConvGather* gather = nullptr);
void run_grid(const GemmTuning& tuning, const GridCall<double>& call);

}  // namespace isaac::codegen::detail
