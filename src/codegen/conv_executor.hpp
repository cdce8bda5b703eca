// Functional executor for multi-channel convolution.
//
// Runs the implicit-GEMM algorithm of §3.3 on the CPU pool through the GEMM
// executor's block kernel: the block grid tiles (NPQ × K × CG), each block
// stages a gathered I tile through per-call row/reduction index tables and
// accumulates against F, handling padding and edge predication. Ground truth
// for correctness tests and the execution backend of isaac::conv().
//
// Layouts (paper §3.3, last index fastest):
//   I ∈ R^{C×H×W×N},  F ∈ R^{C×R×S×K},  O ∈ R^{K×P×Q×N}
#pragma once

#include "codegen/conv.hpp"

namespace isaac::codegen {

/// O = conv(I, F) with the tiling of `tuning` (alpha/beta as in GEMM).
/// Throws std::invalid_argument, before writing O, on an empty shape, a
/// stride below 1, a negative pad, or a tensor size past int64.
void execute_conv(const ConvShape& shape, const ConvTuning& tuning, float alpha,
                  const float* input, const float* filters, float beta, float* output);

/// Naive direct convolution (serial over K; for tests).
void reference_conv(const ConvShape& shape, float alpha, const float* input,
                    const float* filters, float beta, float* output);

}  // namespace isaac::codegen
