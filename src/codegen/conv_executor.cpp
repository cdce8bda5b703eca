#include "codegen/conv_executor.hpp"

#include <stdexcept>
#include <vector>

#include "codegen/block_kernel.hpp"
#include "common/failpoint.hpp"

namespace isaac::codegen {

namespace {

[[noreturn]] void overflow() {
  throw std::invalid_argument("execute_conv: shape overflows int64");
}

std::int64_t mul(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) overflow();
  return out;
}

std::int64_t add(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) overflow();
  return out;
}

}  // namespace

void execute_conv(const ConvShape& s, const ConvTuning& tuning, float alpha, const float* input,
                  const float* filters, float beta, float* output) {
  ISAAC_FAILPOINT("execute.throw");
  if (s.n <= 0 || s.c <= 0 || s.h <= 0 || s.w <= 0 || s.k <= 0 || s.r <= 0 || s.s <= 0 ||
      s.pad_h < 0 || s.pad_w < 0 || s.stride_h <= 0 || s.stride_w <= 0) {
    throw std::invalid_argument("execute_conv: empty problem");
  }
  if (!s.extents_fit()) overflow();
  const std::int64_t P = s.p(), Q = s.q();
  if (P <= 0 || Q <= 0) throw std::invalid_argument("execute_conv: empty problem");
  // Every tensor's element count must fit, so every in-image tap's offset
  // (the only ones the gather reads) does.
  const std::int64_t npq = mul(mul(s.n, P), Q);
  const std::int64_t crs = mul(mul(s.c, s.r), s.s);
  const std::int64_t hwn = mul(mul(s.h, s.w), s.n);
  mul(s.c, hwn);
  mul(crs, s.k);
  mul(npq, s.k);

  // The implicit GEMM (conv.hpp): rows (n, p, q) with n fastest, reduction
  // steps (c, r, s) with s fastest. Row (n, p, q) at step (c, r, s) reads
  // input ((c·H + p·stride − pad + r)·W + q·stride − pad + s)·N + n, split
  // here into a per-row and a per-step offset, each tabled once per call.
  // The padding and the filter extent can push either offset past int64
  // even when every tensor fits, so each entry is built checked.
  std::vector<detail::ConvGather::Row> rows(static_cast<std::size_t>(npq));
  std::size_t row = 0;
  for (std::int64_t p = 0; p < P; ++p) {
    const std::int64_t h0 = add(mul(p, s.stride_h), -s.pad_h);
    for (std::int64_t q = 0; q < Q; ++q) {
      const std::int64_t w0 = add(mul(q, s.stride_w), -s.pad_w);
      const std::int64_t origin = mul(add(mul(h0, s.w), w0), s.n);
      for (std::int64_t n = 0; n < s.n; ++n) rows[row++] = {add(origin, n), h0, w0};
    }
  }
  std::vector<detail::ConvGather::Red> reds(static_cast<std::size_t>(crs));
  std::size_t red = 0;
  for (std::int64_t c = 0; c < s.c; ++c) {
    for (std::int64_t r = 0; r < s.r; ++r) {
      for (std::int64_t sx = 0; sx < s.s; ++sx) {
        reds[red++] = {mul(add(mul(add(mul(c, s.h), r), s.w), sx), s.n), r, sx};
      }
    }
  }
  const detail::ConvGather gather{input, rows.data(), reds.data(), s.h, s.w};

  // F[c, r, s, k] is op(B) stored N×K (k fastest, ld = K); O[k, p, q, n] is
  // column-major C with ld = NPQ, its row index being the implicit row.
  GemmShape implicit;
  implicit.m = npq;
  implicit.n = s.k;
  implicit.k = crs;
  implicit.trans_b = true;
  detail::run_grid(conv_gemm_tuning(tuning),
                   {.shape = implicit, .alpha = alpha, .beta = beta, .b = filters, .ldb = s.k,
                    .c = output, .ldc = npq},
                   &gather);
}

void reference_conv(const ConvShape& shape, float alpha, const float* input,
                    const float* filters, float beta, float* output) {
  const std::int64_t P = shape.p(), Q = shape.q();
  for (std::int64_t k = 0; k < shape.k; ++k) {
    for (std::int64_t p = 0; p < P; ++p) {
      for (std::int64_t q = 0; q < Q; ++q) {
        for (std::int64_t n = 0; n < shape.n; ++n) {
          double acc = 0.0;
          for (std::int64_t c = 0; c < shape.c; ++c) {
            for (std::int64_t r = 0; r < shape.r; ++r) {
              for (std::int64_t sx = 0; sx < shape.s; ++sx) {
                const std::int64_t hh = p * shape.stride_h + r - shape.pad_h;
                const std::int64_t ww = q * shape.stride_w + sx - shape.pad_w;
                if (hh < 0 || hh >= shape.h || ww < 0 || ww >= shape.w) continue;
                const float iv =
                    input[((c * shape.h + hh) * shape.w + ww) * shape.n + n];
                const float fv = filters[((c * shape.r + r) * shape.s + sx) * shape.k + k];
                acc += static_cast<double>(iv) * fv;
              }
            }
          }
          const std::int64_t oi = ((k * P + p) * Q + q) * shape.n + n;
          output[oi] = alpha * static_cast<float>(acc) + beta * output[oi];
        }
      }
    }
  }
}

}  // namespace isaac::codegen
