// Functional executor for generated GEMM kernels.
//
// Runs the *same tiled algorithm* the PTX generator emits — block grid over
// (M/ML) × (N/NL) × KG, per-block staging of k-major tiles, per-thread
// micro-tiles, predicated edges, split-reduction accumulation — on the CPU
// thread pool, producing actual numerical results. This is the semantic
// ground truth for correctness tests and what the public isaac::gemm() API
// executes after kernel selection.
//
// The block kernel behind it is shared: the batched and conv executors run
// the same grid (codegen/block_kernel.hpp) and differ only in how op(A) is
// loaded.
//
// All buffers are column-major (BLAS convention). The executor computes in
// fp32 for F16/F32 shapes and fp64 for F64 shapes; simulated device precision
// is not modelled (see DESIGN.md).
#pragma once

#include <cstdint>

#include "codegen/gemm.hpp"

namespace isaac::codegen {

/// C = alpha * op(A) * op(B) + beta * C, executed with the tiling of
/// `tuning`. Layouts: op(A) is M×K; A is stored M×K (lda ≥ M) when
/// !trans_a, K×M (lda ≥ K) otherwise. B symmetric. C is M×N, ldc ≥ M.
/// Throws std::invalid_argument when (shape, tuning) has inconsistent
/// divisibility constraints (validate() against a device first for the
/// full legality check).
void execute_gemm(const GemmShape& shape, const GemmTuning& tuning, float alpha,
                  const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                  float beta, float* c, std::int64_t ldc);

/// Double-precision variant for F64 shapes.
void execute_gemm(const GemmShape& shape, const GemmTuning& tuning, double alpha,
                  const double* a, std::int64_t lda, const double* b, std::int64_t ldb,
                  double beta, double* c, std::int64_t ldc);

/// Naive column-major reference (serial; for tests).
void reference_gemm(const GemmShape& shape, float alpha, const float* a, std::int64_t lda,
                    const float* b, std::int64_t ldb, float beta, float* c, std::int64_t ldc);
void reference_gemm(const GemmShape& shape, double alpha, const double* a, std::int64_t lda,
                    const double* b, std::int64_t ldb, double beta, double* c,
                    std::int64_t ldc);

}  // namespace isaac::codegen
