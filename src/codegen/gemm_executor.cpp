#include "codegen/gemm_executor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "codegen/block_kernel.hpp"
#include "common/failpoint.hpp"
#include "common/thread_pool.hpp"

namespace isaac::codegen {

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return a / b + (a % b != 0); }

std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) {
    throw std::invalid_argument("execute: block grid overflows int64");
  }
  return out;
}

/// One mutex per C tile row-stripe serializes split-reduction accumulation
/// (the functional analogue of global atomics). Only KG > 1 grids take them.
constexpr int kNumLocks = 64;

/// op(A) of a GEMM: column-major M×K, or stored K×M when trans_a.
template <typename T>
struct StridedA {
  const T* a;
  std::int64_t lda, stride;
  bool trans;

  /// Fill tile rows [0, dc) × lanes [0, mc) with op(A)(m0 + i, k0 + d).
  void stage(std::int64_t item, std::int64_t m0, int mc, std::int64_t k0, int dc, int ml,
             T* tile) const {
    const T* base = a + item * stride;
    if (!trans) {
      for (int d = 0; d < dc; ++d) {
        const T* src = base + m0 + (k0 + d) * lda;
        T* row = tile + static_cast<std::ptrdiff_t>(d) * ml;
        for (int i = 0; i < mc; ++i) row[i] = src[i];
      }
    } else {
      for (int i = 0; i < mc; ++i) {
        const T* src = base + k0 + (m0 + i) * lda;
        for (int d = 0; d < dc; ++d) tile[static_cast<std::ptrdiff_t>(d) * ml + i] = src[d];
      }
    }
  }
};

/// op(A) of the conv implicit GEMM: the input gather through the call's
/// row and reduction tables; taps in the padding read as zero.
struct GatherA {
  const detail::ConvGather& g;

  void stage(std::int64_t, std::int64_t m0, int mc, std::int64_t k0, int dc, int ml,
             float* tile) const {
    for (int d = 0; d < dc; ++d) {
      const detail::ConvGather::Red& red = g.reds[k0 + d];
      float* row = tile + static_cast<std::ptrdiff_t>(d) * ml;
      for (int i = 0; i < mc; ++i) {
        const detail::ConvGather::Row& px = g.rows[m0 + i];
        const std::int64_t hh = px.h + red.r;
        const std::int64_t ww = px.w + red.s;
        const bool inside = static_cast<std::uint64_t>(hh) < static_cast<std::uint64_t>(g.h) &&
                            static_cast<std::uint64_t>(ww) < static_cast<std::uint64_t>(g.w);
        row[i] = inside ? g.input[px.offset + red.offset] : 0.0f;
      }
    }
  }
};

/// op(B) rows [0, dc) × columns [0, nc) of one round, read in place:
/// element (d, j) is at b[d·sd + j·sj].
template <typename T>
struct BRound {
  const T* b;
  std::int64_t sd, sj;
};

// Inner products over one round of dc reduction steps: acc (ML×NL) += A tile
// (dc rows of ML) · op(B) round, columns [0, nc). Every variant adds the
// products of one accumulator in d order and leaves it untouched where the B
// value is zero, so all of them give the same bits.

/// ML 1 with op(B) rows contiguous: acc is row-major (row stride
/// NL), vectorised along the columns, eight columns at a time held in
/// registers over the whole round. With a finite A value a zero B value
/// gives a ±0 product, and an accumulator that starts at +0 never becomes
/// −0, so adding that product leaves it unchanged just as skipping does.
/// Rounds whose A tile is all finite therefore need no per-column test.
template <typename T, int ML>
void inner_rows(const T* sa, int, BRound<T> b, int nc, int nl, int dc, T* acc) {
  constexpr int kW = 8;
  const T* a_end = sa + static_cast<std::ptrdiff_t>(dc) * ML;
  const bool finite = std::all_of(sa, a_end, [](T v) { return std::isfinite(v); });
  int j0 = 0;
  for (; finite && j0 + kW <= nc; j0 += kW) {
    T r[ML][kW];
    for (int i = 0; i < ML; ++i) {
      for (int j = 0; j < kW; ++j) r[i][j] = acc[i * nl + j0 + j];
    }
    for (int d = 0; d < dc; ++d) {
      const T* brow = b.b + d * b.sd + j0;
      for (int i = 0; i < ML; ++i) {
        const T av = sa[d * ML + i];
        for (int j = 0; j < kW; ++j) r[i][j] += av * brow[j];
      }
    }
    for (int i = 0; i < ML; ++i) {
      for (int j = 0; j < kW; ++j) acc[i * nl + j0 + j] = r[i][j];
    }
  }
  for (int d = 0; d < dc; ++d) {  // the remaining columns
    for (int j = j0; j < nc; ++j) {
      const T bv = b.b[d * b.sd + j];
      if (bv == T(0)) continue;
      for (int i = 0; i < ML; ++i) acc[i * nl + j] += sa[d * ML + i] * bv;
    }
  }
}

/// ML 8: acc is column-major, one column held in registers over the
/// whole round.
template <typename T, int ML>
void inner_cols(const T* sa, int, BRound<T> b, int nc, int, int dc, T* acc) {
  for (int j = 0; j < nc; ++j) {
    T* col = acc + static_cast<std::ptrdiff_t>(j) * ML;
    const T* bcol = b.b + j * b.sj;
    T r[ML];
    for (int i = 0; i < ML; ++i) r[i] = col[i];
    for (int d = 0; d < dc; ++d) {
      const T bv = bcol[d * b.sd];
      if (bv == T(0)) continue;
      const T* arow = sa + static_cast<std::ptrdiff_t>(d) * ML;
      for (int i = 0; i < ML; ++i) r[i] += arow[i] * bv;
    }
    for (int i = 0; i < ML; ++i) col[i] = r[i];
  }
}

/// Any other ML (acc column-major).
template <typename T>
void inner_generic(const T* sa, int ml, BRound<T> b, int nc, int, int dc, T* acc) {
  for (int d = 0; d < dc; ++d) {
    const T* arow = sa + static_cast<std::ptrdiff_t>(d) * ml;
    for (int j = 0; j < nc; ++j) {
      const T bv = b.b[d * b.sd + j * b.sj];
      if (bv == T(0)) continue;
      T* acol = acc + static_cast<std::ptrdiff_t>(j) * ml;
      for (int i = 0; i < ml; ++i) acol[i] += arow[i] * bv;
    }
  }
}

template <typename T>
struct Inner {
  void (*fn)(const T*, int, BRound<T>, int, int, int, T*);
  bool row_major;  // acc layout the variant uses
};

/// Specialised variants only where measured to pay off end to end: conv
/// tiles take ML 1 with the filters' rows contiguous, most GEMM tiles ML 8.
template <typename T>
Inner<T> inner_for(int ml, bool b_rows_contiguous) {
  if (b_rows_contiguous && ml == 1) return {inner_rows<T, 1>, true};
  if (ml == 8) return {inner_cols<T, 8>, false};
  return {inner_generic<T>, false};
}

/// Per-thread staging and accumulator memory, grown on demand and reused by
/// every block the thread runs (a thread runs one pool chunk at a time).
template <typename T>
T* thread_scratch(std::size_t elems) {
  thread_local std::vector<T> buf;
  if (buf.size() < elems) buf.resize(elems);
  return buf.data();
}

template <typename T>
void check_call(const GemmTuning& t, const detail::GridCall<T>& call, bool gathered) {
  const GemmShape& s = call.shape;
  if (s.m <= 0 || s.n <= 0 || s.k <= 0 || call.batch <= 0) {
    throw std::invalid_argument("execute_gemm: empty problem");
  }
  if (t.ms <= 0 || t.ns <= 0 || t.ml <= 0 || t.nl <= 0 || t.u <= 0 || t.kl <= 0 || t.kg <= 0 ||
      t.ml % t.ms != 0 || t.nl % t.ns != 0) {
    throw std::invalid_argument("execute_gemm: tile divisibility violated");
  }
  // The block kernel indexes its staged tile and accumulators with int.
  constexpr std::int64_t kMaxTile = std::numeric_limits<int>::max();
  if (std::int64_t{t.u} * t.kl > kMaxTile / t.ml || std::int64_t{t.ml} * t.nl > kMaxTile) {
    throw std::invalid_argument("execute_gemm: block tile too large");
  }
  const std::int64_t min_lda = s.trans_a ? s.k : s.m;
  const std::int64_t min_ldb = s.trans_b ? s.n : s.k;
  if ((!gathered && call.lda < min_lda) || call.ldb < min_ldb || call.ldc < s.m) {
    throw std::invalid_argument("execute_gemm: leading dimension too small");
  }
}

/// The shared block kernel. Each block stages a k-major op(A) tile per
/// U·KL round (lanes past M staged as zeros), multiplies it with op(B) read
/// in place (rows past K and columns past N never touched), then stores its
/// C tile: with KG == 1 the beta scaling is fused into this store, with
/// KG > 1 a pre-pass applied it and blocks accumulate under a stripe lock.
template <typename T, typename LoadA>
void run_grid_impl(const GemmTuning& t, const detail::GridCall<T>& call, const LoadA& load_a) {
  const GemmShape& s = call.shape;
  const std::int64_t grid_m = ceil_div(s.m, t.ml);
  const std::int64_t grid_n = ceil_div(s.n, t.nl);
  const std::int64_t per_item = checked_mul(checked_mul(grid_m, grid_n), t.kg);
  const std::int64_t blocks = checked_mul(per_item, call.batch);
  const std::int64_t depth = checked_mul(t.u, t.kl);
  const std::size_t tile_a = static_cast<std::size_t>(checked_mul(depth, t.ml));
  const std::size_t tile_c = static_cast<std::size_t>(checked_mul(t.ml, t.nl));
  const std::int64_t k_eff = ceil_div(s.k, t.kg);
  const bool split = t.kg > 1;
  ThreadPool& pool = ThreadPool::global();

  std::unique_ptr<std::mutex[]> locks;
  if (split) {
    locks = std::make_unique<std::mutex[]>(kNumLocks);
    // The zero-init / scale kernel that precedes KG-split accumulation.
    if (call.beta != T(1)) {
      const auto columns = static_cast<std::size_t>(checked_mul(call.batch, s.n));
      pool.parallel_for_each(columns, [&](std::size_t col) {
        const auto ci = static_cast<std::int64_t>(col);
        T* c = call.c + (ci / s.n) * call.stride_c + (ci % s.n) * call.ldc;
        if (call.beta == T(0)) {
          std::fill_n(c, s.m, T(0));
        } else {
          for (std::int64_t m = 0; m < s.m; ++m) c[m] *= call.beta;
        }
      });
    }
  }

  const Inner<T> inner = inner_for<T>(t.ml, s.trans_b);
  const std::int64_t bsd = s.trans_b ? call.ldb : 1;  // op(B) strides: along K,
  const std::int64_t bsj = s.trans_b ? 1 : call.ldb;  // and along N
  const std::int64_t acc_si = inner.row_major ? t.nl : 1;  // acc strides: along M,
  const std::int64_t acc_sj = inner.row_major ? 1 : t.ml;  // and along N
  const int ml = t.ml, nl = t.nl;

  pool.parallel_for(static_cast<std::size_t>(blocks), [&](std::size_t lo, std::size_t hi) {
    T* sa = thread_scratch<T>(tile_a + tile_c);
    T* acc = sa + tile_a;
    for (std::size_t bi = lo; bi < hi; ++bi) {
      // n-fastest, then m, then the KG slice, then the batch item (matches
      // the scheduling order the analyzer assumes for its reuse hints).
      const auto flat = static_cast<std::int64_t>(bi);
      const std::int64_t item = flat / per_item;
      const std::int64_t in_item = flat % per_item;
      const std::int64_t tn = in_item % grid_n;
      const std::int64_t tm = (in_item / grid_n) % grid_m;
      const std::int64_t slice = in_item / (grid_n * grid_m);

      const std::int64_t m0 = tm * ml, n0 = tn * nl;
      const std::int64_t k0 = slice * k_eff;
      const std::int64_t k1 = std::min(s.k, k0 + k_eff);
      if (k0 >= k1) continue;  // empty slice (K not divisible by KG)
      const int mc = static_cast<int>(std::min<std::int64_t>(ml, s.m - m0));
      const int nc = static_cast<int>(std::min<std::int64_t>(nl, s.n - n0));
      const T* b = call.b + item * call.stride_b;

      std::fill_n(acc, tile_c, T(0));
      for (std::int64_t kk = k0; kk < k1; kk += depth) {
        const int dc = static_cast<int>(std::min(depth, k1 - kk));
        load_a.stage(item, m0, mc, kk, dc, ml, sa);
        if (mc < ml) {  // predicated-off rows stage zeros, like the kernel
          for (int d = 0; d < dc; ++d) {
            std::fill(sa + static_cast<std::ptrdiff_t>(d) * ml + mc,
                      sa + static_cast<std::ptrdiff_t>(d + 1) * ml, T(0));
          }
        }
        const BRound<T> b_round{b + kk * bsd + n0 * bsj, bsd, bsj};
        inner.fn(sa, ml, b_round, nc, nl, dc, acc);
      }

      // Epilogue: predicated stores of the C tile.
      T* c = call.c + item * call.stride_c + m0 + n0 * call.ldc;
      const T alpha = call.alpha, beta = call.beta;
      std::unique_lock<std::mutex> guard;
      if (split) {
        const auto stripe = static_cast<std::uint64_t>(item * grid_m + tm) * 31 +
                            static_cast<std::uint64_t>(tn);
        guard = std::unique_lock<std::mutex>(locks[stripe % kNumLocks]);
      }
      for (int j = 0; j < nc; ++j) {
        T* ccol = c + j * call.ldc;
        const T* acol = acc + j * acc_sj;
        if (split || beta == T(1)) {
          for (int i = 0; i < mc; ++i) ccol[i] += alpha * acol[i * acc_si];
        } else if (beta == T(0)) {
          for (int i = 0; i < mc; ++i) ccol[i] = T(0) + alpha * acol[i * acc_si];
        } else {
          for (int i = 0; i < mc; ++i) ccol[i] = ccol[i] * beta + alpha * acol[i * acc_si];
        }
      }
    }
  });
}

template <typename T>
void execute_impl(const GemmShape& shape, const GemmTuning& tuning, T alpha, const T* a,
                  std::int64_t lda, const T* b, std::int64_t ldb, T beta, T* c,
                  std::int64_t ldc) {
  ISAAC_FAILPOINT("execute.throw");
  detail::run_grid(tuning, {.shape = shape, .alpha = alpha, .beta = beta, .a = a, .lda = lda,
                            .b = b, .ldb = ldb, .c = c, .ldc = ldc});
}

template <typename T>
void reference_impl(const GemmShape& shape, T alpha, const T* a, std::int64_t lda, const T* b,
                    std::int64_t ldb, T beta, T* c, std::int64_t ldc) {
  for (std::int64_t n = 0; n < shape.n; ++n) {
    for (std::int64_t m = 0; m < shape.m; ++m) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < shape.k; ++k) {
        const T av = shape.trans_a ? a[k + m * lda] : a[m + k * lda];
        const T bv = shape.trans_b ? b[n + k * ldb] : b[k + n * ldb];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      c[m + n * ldc] = alpha * static_cast<T>(acc) + beta * c[m + n * ldc];
    }
  }
}

}  // namespace

namespace detail {

void run_grid(const GemmTuning& tuning, const GridCall<float>& call, const ConvGather* gather) {
  check_call(tuning, call, gather != nullptr);
  if (gather) {
    run_grid_impl(tuning, call, GatherA{*gather});
  } else {
    run_grid_impl(tuning, call,
                  StridedA<float>{call.a, call.lda, call.stride_a, call.shape.trans_a});
  }
}

void run_grid(const GemmTuning& tuning, const GridCall<double>& call) {
  check_call(tuning, call, false);
  run_grid_impl(tuning, call,
                StridedA<double>{call.a, call.lda, call.stride_a, call.shape.trans_a});
}

}  // namespace detail

void execute_gemm(const GemmShape& shape, const GemmTuning& tuning, float alpha, const float* a,
                  std::int64_t lda, const float* b, std::int64_t ldb, float beta, float* c,
                  std::int64_t ldc) {
  execute_impl(shape, tuning, alpha, a, lda, b, ldb, beta, c, ldc);
}

void execute_gemm(const GemmShape& shape, const GemmTuning& tuning, double alpha,
                  const double* a, std::int64_t lda, const double* b, std::int64_t ldb,
                  double beta, double* c, std::int64_t ldc) {
  execute_impl(shape, tuning, alpha, a, lda, b, ldb, beta, c, ldc);
}

void reference_gemm(const GemmShape& shape, float alpha, const float* a, std::int64_t lda,
                    const float* b, std::int64_t ldb, float beta, float* c, std::int64_t ldc) {
  reference_impl(shape, alpha, a, lda, b, ldb, beta, c, ldc);
}

void reference_gemm(const GemmShape& shape, double alpha, const double* a, std::int64_t lda,
                    const double* b, std::int64_t ldb, double beta, double* c,
                    std::int64_t ldc) {
  reference_impl(shape, alpha, a, lda, b, ldb, beta, c, ldc);
}

}  // namespace isaac::codegen
