#include "tuning/search_space.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace isaac::tuning {

namespace {

// Table 1's setup: "each parameter is constrained to be a power of two
// between 1 and 16" — literally, for every parameter. This includes values a
// curated candidate list would never offer (1-wide block tiles, U = 1), which
// is exactly what makes uniform sampling of X̂ so wasteful in the paper.
std::vector<int> maybe_cap(const std::vector<int>& values, bool cap16) {
  if (!cap16) return values;
  return {1, 2, 4, 8, 16};
}

// Saturating |X̂|: conv-scale domain sets can overflow 64 bits, and a
// silently wrapped size() corrupts budget clamps and flat-stride math
// downstream. SIZE_MAX is the explicit "too large to index flat" sentinel —
// consumers doing exact flat arithmetic (strided probing, walk-chunk flat
// bases) must check for it and take the lazy-walk path instead.
std::size_t product_size(const std::vector<ParameterDomain>& domains) {
  std::size_t total = 1;
  for (const auto& d : domains) {
    if (__builtin_mul_overflow(total, d.values.size(), &total)) {
      return std::numeric_limits<std::size_t>::max();
    }
  }
  return total;
}

template <typename Decode>
void cartesian_for_each(const std::vector<ParameterDomain>& domains, const Decode& decode_fn) {
  std::vector<std::size_t> choice(domains.size(), 0);
  while (true) {
    if (!decode_fn(choice)) return;
    // odometer increment
    std::size_t d = 0;
    for (; d < domains.size(); ++d) {
      if (++choice[d] < domains[d].values.size()) break;
      choice[d] = 0;
    }
    if (d == domains.size()) return;
  }
}

/// Find each field value's index in its domain; false when any is absent.
bool encode_values(const std::vector<ParameterDomain>& domains, const std::vector<int>& values,
                   std::vector<std::size_t>& choice) {
  choice.assign(domains.size(), 0);
  for (std::size_t d = 0; d < domains.size(); ++d) {
    const auto& list = domains[d].values;
    const auto it = std::find(list.begin(), list.end(), values[d]);
    if (it == list.end()) return false;
    choice[d] = static_cast<std::size_t>(it - list.begin());
  }
  return true;
}

std::vector<std::size_t> uniform_choice(const std::vector<ParameterDomain>& domains, Rng& rng) {
  std::vector<std::size_t> choice(domains.size());
  for (std::size_t d = 0; d < domains.size(); ++d) {
    choice[d] = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(domains[d].values.size()) - 1));
  }
  return choice;
}

// ------------------------------------------- prefix-constraint builders --
//
// Every predicate below is a *necessary* condition of the corresponding
// codegen::validate — mostly the validate checks themselves evaluated at the
// earliest dimension where their inputs are bound, plus monotone lower
// bounds (shared memory grows with every participating parameter, so
// substituting unbound domains' minima keeps a bound necessary; thread
// counts are bracketed via the micro-tile domains' extrema). The
// exhaustive-vs-pruned parity tests in tests/test_search.cpp are the proof
// these never drop a legal point.

constexpr std::size_t kNoDim = std::numeric_limits<std::size_t>::max();

std::size_t find_dim(const std::vector<ParameterDomain>& domains, const std::string& name) {
  for (std::size_t d = 0; d < domains.size(); ++d) {
    if (domains[d].name == name && !domains[d].values.empty()) return d;
  }
  return kNoDim;
}

int domain_min(const std::vector<ParameterDomain>& domains, std::size_t d) {
  return *std::min_element(domains[d].values.begin(), domains[d].values.end());
}

int domain_max(const std::vector<ParameterDomain>& domains, std::size_t d) {
  return *std::max_element(domains[d].values.begin(), domains[d].values.end());
}

bool is_pow2_value(int v) { return v > 0 && (v & (v - 1)) == 0; }

std::int64_t ceil_div64(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// Register a predicate whose support is `dims`, evaluated at the lowest of
/// them (the last to bind in the highest-dimension-first walk). Skipped
/// entirely when any referenced dimension is absent from this space — the
/// layer stays valid for restricted/renamed subclass spaces.
template <typename Check>
void add_pred(ConstraintSet& cs, const char* name, std::initializer_list<std::size_t> dims,
              Check check) {
  std::size_t lo = kNoDim;
  for (std::size_t d : dims) {
    if (d == kNoDim) return;
    lo = std::min(lo, d);
  }
  if (lo == kNoDim) return;
  cs.add(name, lo, std::move(check));
}

/// codegen::smem_bytes plus the occupancy by_smem clause: the double-buffered
/// staging tiles (and the KL reduction epilogue) must fit the per-block limit,
/// and one allocation-granular block must fit the SM. Pure-int mirror of
/// gemm.cpp/occupancy.cpp so it can run on partially bound prefixes.
bool smem_fits(std::int64_t ml, std::int64_t nl, std::int64_t u, std::int64_t kl, int dsize,
               int smem_per_block, int smem_per_sm, int smem_granularity) {
  const std::int64_t staging = (ml + nl) * u * kl * dsize * 2;
  const std::int64_t epilogue = kl > 1 ? ml * nl * 4 : 0;
  const std::int64_t smem = std::max(staging, epilogue);
  if (smem > smem_per_block) return false;
  if (smem > 0 && smem_per_sm > 0 && smem_granularity > 0) {
    if (ceil_div64(smem, smem_granularity) * smem_granularity > smem_per_sm) return false;
  }
  return true;
}

/// Thread-count corridor and the occupancy ceilings it implies, decidable
/// before the micro-tile (MS/NS-like) dimensions bind: with elems =
/// ML·NL·KL, threads = elems / (MS·NS) lies in [elems / (MS_max·NS_max),
/// elems], so elems < warp_size or elems > max_threads·MS_max·NS_max rules
/// out every completion; the implied warp-count lower bound must also clear
/// the per-SM warp-slot and register-file limits (registers never estimate
/// below codegen's floor of 24 per thread).
struct ThreadCorridor {
  std::int64_t micro_max = 1;        // MS_max · NS_max
  std::int64_t warp = 32;
  std::int64_t max_threads = 1024;
  std::int64_t max_warps = 64;
  std::int64_t regs_per_sm = 0;
  std::int64_t regs_warp_floor = 0;  // allocation-granular warp cost at 24 regs

  ThreadCorridor(const gpusim::DeviceDescriptor& dev, std::int64_t micro)
      : micro_max(micro),
        warp(dev.warp_size),
        max_threads(dev.max_threads_per_block),
        max_warps(dev.max_warps_per_sm),
        regs_per_sm(dev.registers_per_sm) {
    const std::int64_t gran = dev.reg_alloc_granularity;
    regs_warp_floor = gran > 0 ? ceil_div64(24 * warp, gran) * gran : 24 * warp;
  }

  bool plausible(std::int64_t elems) const {
    if (elems < warp) return false;
    if (elems > max_threads * micro_max) return false;
    const std::int64_t warps_lb = ceil_div64(elems, micro_max * warp);
    if (warps_lb > max_warps) return false;
    if (regs_per_sm > 0 && warps_lb * regs_warp_floor > regs_per_sm) return false;
    return true;
  }
};

ConstraintSet gemm_prefix_constraints(const std::vector<ParameterDomain>& domains,
                                      const codegen::GemmShape& shape,
                                      const gpusim::DeviceDescriptor& dev) {
  ConstraintSet cs;
  const std::size_t nd = domains.size();
  if (nd == 0) return cs;

  // Degenerate shape: nothing is legal. One constant predicate at the
  // outermost dimension prunes the whole walk in O(arity) instead of O(|X̂|).
  if (shape.m <= 0 || shape.n <= 0 || shape.k <= 0) {
    cs.add_unary("empty problem", nd - 1, [](const int*) { return false; });
    return cs;
  }

  const std::size_t ms = find_dim(domains, "ms"), ns = find_dim(domains, "ns"),
                    ml = find_dim(domains, "ml"), nl = find_dim(domains, "nl"),
                    u = find_dim(domains, "u"), ks = find_dim(domains, "ks"),
                    kl = find_dim(domains, "kl"), kg = find_dim(domains, "kg"),
                    vec = find_dim(domains, "vec");
  const int dsize = static_cast<int>(gpusim::dtype_size(shape.dtype));
  const std::int64_t k = shape.k;

  // Single-dimension conditions, decidable the moment each dimension binds.
  for (std::size_t d = 0; d < nd; ++d) {
    cs.add_unary(domains[d].name + " pow2", d, [d](const int* v) { return is_pow2_value(v[d]); });
  }
  if (vec != kNoDim) {
    cs.add_unary("vec<=128b", vec, [vec, dsize](const int* v) { return v[vec] * dsize <= 16; });
  }
  if (kg != kNoDim) {
    cs.add_unary("kg<=k", kg, [kg, k](const int* v) { return v[kg] <= k; });
    if (shape.dtype == gpusim::DataType::F16) {
      cs.add_unary("kg f16", kg, [kg](const int* v) { return v[kg] == 1; });
    }
  }

  const int smem_blk = dev.smem_per_block_bytes;
  const int smem_sm = dev.smem_per_sm_bytes;
  const int smem_gran = dev.smem_alloc_granularity;
  const std::int64_t warp = dev.warp_size;
  const std::int64_t maxt = dev.max_threads_per_block;

  // Multi-dimension conditions. When the space carries the full parameter
  // set, predicates sharing an evaluation dimension are fused into one gate
  // lambda — the walk's inner loop then pays a single indirect call per node
  // instead of one per condition. Each gate checks its conditions in guard
  // order (divisibility before the divisions that rely on it).
  if (ms != kNoDim && ns != kNoDim && ml != kNoDim && nl != kNoDim && u != kNoDim &&
      ks != kNoDim && kl != kNoDim && kg != kNoDim && vec != kNoDim) {
    const int ml_min = domain_min(domains, ml);
    const int nl_min = domain_min(domains, nl);
    const std::int64_t ms_min = domain_min(domains, ms);
    const std::int64_t ms_max = domain_max(domains, ms);
    const ThreadCorridor corridor(dev, ms_max * domain_max(domains, ns));

    // U gate: U%KS, reduction depth, and the smem lower bound at the
    // ML/NL domain minima.
    add_pred(cs, "u gate", {u, ks, kl, kg}, [=](const int* v) {
      if (v[u] % v[ks] != 0) return false;
      if (std::int64_t{v[u]} * v[kl] >
          std::max<std::int64_t>(ceil_div64(k, std::max(v[kg], 1)), 1)) {
        return false;
      }
      return smem_fits(ml_min, nl_min, v[u], v[kl], dsize, smem_blk, smem_sm, smem_gran);
    });
    add_pred(cs, "smem lb@nl", {nl, u, kl}, [=](const int* v) {
      return smem_fits(ml_min, v[nl], v[u], v[kl], dsize, smem_blk, smem_sm, smem_gran);
    });
    // ML gate: exact shared memory plus the coarse thread-count corridor.
    add_pred(cs, "ml gate", {ml, nl, u, kl}, [=](const int* v) {
      if (!smem_fits(v[ml], v[nl], v[u], v[kl], dsize, smem_blk, smem_sm, smem_gran)) {
        return false;
      }
      return corridor.plausible(std::int64_t{v[ml]} * v[nl] * v[kl]);
    });
    // NS gate: NL%NS, the unroll lower bound at MS_min, and the corridor
    // tightened to MS's domain range (threads = ML·NL·KL / (MS·NS);
    // multiplication-form bounds stay exact in int64).
    add_pred(cs, "ns gate", {ns, ml, nl, u, kl}, [=](const int* v) {
      if (v[nl] % v[ns] != 0) return false;
      if (std::int64_t{v[u]} * (ms_min * v[ns] + ms_min + v[ns]) > 4096) return false;
      const std::int64_t e = std::int64_t{v[ml]} * v[nl] * v[kl];
      return e >= warp * v[ns] * ms_min && e <= maxt * v[ns] * ms_max;
    });
    // MS gate (leaf): ML%MS, the exact unroll budget, then the exact block
    // geometry — threads range / warp multiple / prefetch-tile divisibility
    // in pure integer math, so the large share of X̂ failing them never
    // reaches the string-formatting validate slow path.
    add_pred(cs, "ms gate", {ms, ns, ml, nl, u, kl, vec}, [=](const int* v) {
      if (v[ml] % v[ms] != 0) return false;
      if (std::int64_t{v[u]} * (std::int64_t{v[ms]} * v[ns] + v[ms] + v[ns]) > 4096) {
        return false;
      }
      const std::int64_t threads = (std::int64_t{v[ml]} / v[ms]) * (v[nl] / v[ns]) * v[kl];
      if (threads < warp || threads > maxt || threads % warp != 0) return false;
      const std::int64_t ta = std::int64_t{v[ml]} * v[u] * v[kl];
      const std::int64_t tb = std::int64_t{v[nl]} * v[u] * v[kl];
      if (ta % threads != 0 || tb % threads != 0) return false;
      return (ta / threads) % v[vec] == 0 && (tb / threads) % v[vec] == 0;
    });
    return cs;
  }

  // Generic fallback for restricted spaces missing dimensions: the same
  // conditions as individual predicates, each skipped when its support is
  // absent.
  add_pred(cs, "u%ks", {u, ks}, [u, ks](const int* v) { return v[u] % v[ks] == 0; });
  add_pred(cs, "u*kl<=k/kg", {u, kl, kg}, [u, kl, kg, k](const int* v) {
    return std::int64_t{v[u]} * v[kl] <=
           std::max<std::int64_t>(ceil_div64(k, std::max(v[kg], 1)), 1);
  });
  add_pred(cs, "smem", {ml, nl, u, kl}, [=](const int* v) {
    return smem_fits(v[ml], v[nl], v[u], v[kl], dsize, smem_blk, smem_sm, smem_gran);
  });
  if (ml != kNoDim) {
    const int ml_min = domain_min(domains, ml);
    add_pred(cs, "smem lb@nl", {nl, u, kl}, [=](const int* v) {
      return smem_fits(ml_min, v[nl], v[u], v[kl], dsize, smem_blk, smem_sm, smem_gran);
    });
    if (nl != kNoDim) {
      const int nl_min = domain_min(domains, nl);
      add_pred(cs, "smem lb@u", {u, kl}, [=](const int* v) {
        return smem_fits(ml_min, nl_min, v[u], v[kl], dsize, smem_blk, smem_sm, smem_gran);
      });
    }
  }
  if (ms != kNoDim && ns != kNoDim) {
    const ThreadCorridor corridor(
        dev, std::int64_t{domain_max(domains, ms)} * domain_max(domains, ns));
    add_pred(cs, "threads", {ml, nl, kl}, [=](const int* v) {
      return corridor.plausible(std::int64_t{v[ml]} * v[nl] * v[kl]);
    });
  }
  if (ms != kNoDim) {
    const std::int64_t ms_min = domain_min(domains, ms);
    add_pred(cs, "unroll lb@ns", {ns, u}, [=](const int* v) {
      return std::int64_t{v[u]} * (ms_min * v[ns] + ms_min + v[ns]) <= 4096;
    });
  }
  add_pred(cs, "unroll", {ms, ns, u}, [=](const int* v) {
    return std::int64_t{v[u]} * (std::int64_t{v[ms]} * v[ns] + v[ms] + v[ns]) <= 4096;
  });
  add_pred(cs, "nl%ns", {nl, ns}, [=](const int* v) { return v[nl] % v[ns] == 0; });
  add_pred(cs, "ml%ms", {ml, ms}, [=](const int* v) { return v[ml] % v[ms] == 0; });

  return cs;
}

ConstraintSet conv_prefix_constraints(const std::vector<ParameterDomain>& domains,
                                      const codegen::ConvShape& shape,
                                      const gpusim::DeviceDescriptor& dev) {
  ConstraintSet cs;
  const std::size_t nd = domains.size();
  if (nd == 0) return cs;

  if (shape.n <= 0 || shape.c <= 0 || shape.k <= 0 || shape.p() <= 0 || shape.q() <= 0) {
    cs.add_unary("empty problem", nd - 1, [](const int*) { return false; });
    return cs;
  }

  const std::size_t tk = find_dim(domains, "tk"), tp = find_dim(domains, "tp"),
                    tq = find_dim(domains, "tq"), tn = find_dim(domains, "tn"),
                    bk = find_dim(domains, "bk"), bp = find_dim(domains, "bp"),
                    bq = find_dim(domains, "bq"), bn = find_dim(domains, "bn"),
                    u = find_dim(domains, "u"), cl = find_dim(domains, "cl"),
                    cg = find_dim(domains, "cg");
  const int dsize = static_cast<int>(gpusim::dtype_size(shape.dtype));
  const std::int64_t crs = shape.crs();

  // The lowering multiplies thread/block tiles into the GEMM's MS/ML, and a
  // product of positive ints is a power of two iff every factor is — so
  // per-dimension pow2 stays a necessary condition of the lowered validate.
  for (std::size_t d = 0; d < nd; ++d) {
    cs.add_unary(domains[d].name + " pow2", d, [d](const int* v) { return is_pow2_value(v[d]); });
  }

  // Conv-specific output-extent checks, each decidable at its own dimension.
  const std::int64_t p2 = 2 * shape.p(), q2 = 2 * shape.q(), n2 = 2 * shape.n;
  if (bp != kNoDim) cs.add_unary("bp<=2P", bp, [bp, p2](const int* v) { return v[bp] <= p2; });
  if (bq != kNoDim) cs.add_unary("bq<=2Q", bq, [bq, q2](const int* v) { return v[bq] <= q2; });
  if (bn != kNoDim) cs.add_unary("bn<=2N", bn, [bn, n2](const int* v) { return v[bn] <= n2; });

  // Reduction split over C·R·S (the lowering's K).
  if (cg != kNoDim) {
    cs.add_unary("cg<=crs", cg, [cg, crs](const int* v) { return v[cg] <= crs; });
    if (shape.dtype == gpusim::DataType::F16) {
      cs.add_unary("cg f16", cg, [cg](const int* v) { return v[cg] == 1; });
    }
  }
  add_pred(cs, "u*cl<=crs/cg", {u, cl, cg}, [u, cl, cg, crs](const int* v) {
    return std::int64_t{v[u]} * v[cl] <=
           std::max<std::int64_t>(ceil_div64(crs, std::max(v[cg], 1)), 1);
  });

  // Shared memory through the lowering (ML = BP·BQ·BN, NL = BK, KL = CL):
  // exact once BK binds, lower-bounded at BN and BQ via domain minima.
  const int smem_blk = dev.smem_per_block_bytes;
  const int smem_sm = dev.smem_per_sm_bytes;
  const int smem_gran = dev.smem_alloc_granularity;
  const std::int64_t warp = dev.warp_size;
  const std::int64_t maxt = dev.max_threads_per_block;

  // Fused per-bucket gates when the space carries the full parameter set
  // (one indirect call per walk node — see the GEMM builder for the scheme);
  // individual predicates otherwise.
  if (tk != kNoDim && tp != kNoDim && tq != kNoDim && tn != kNoDim && bk != kNoDim &&
      bp != kNoDim && bq != kNoDim && bn != kNoDim && u != kNoDim && cl != kNoDim) {
    const int bk_min = domain_min(domains, bk);
    const std::int64_t bp_min = domain_min(domains, bp);
    const std::int64_t bpq_min = bp_min * domain_min(domains, bq);
    const std::int64_t tk_min = domain_min(domains, tk), tk_max = domain_max(domains, tk);
    const std::int64_t tp_min = domain_min(domains, tp), tp_max = domain_max(domains, tp);
    const std::int64_t tq_min = domain_min(domains, tq), tq_max = domain_max(domains, tq);
    const ThreadCorridor corridor(
        dev, tk_max * tp_max * tq_max * domain_max(domains, tn));
    const auto elems = [=](const int* v) {
      return std::int64_t{v[bk]} * v[bp] * v[bq] * v[bn] * v[cl];
    };

    add_pred(cs, "smem lb@bn", {bn, u, cl}, [=](const int* v) {
      return smem_fits(bpq_min * v[bn], bk_min, v[u], v[cl], dsize, smem_blk, smem_sm,
                       smem_gran);
    });
    add_pred(cs, "smem lb@bq", {bq, bn, u, cl}, [=](const int* v) {
      return smem_fits(bp_min * v[bq] * v[bn], bk_min, v[u], v[cl], dsize, smem_blk, smem_sm,
                       smem_gran);
    });
    add_pred(cs, "smem lb@bp", {bp, bq, bn, u, cl}, [=](const int* v) {
      return smem_fits(std::int64_t{v[bp]} * v[bq] * v[bn], bk_min, v[u], v[cl], dsize,
                       smem_blk, smem_sm, smem_gran);
    });
    // BK gate: exact shared memory plus the coarse thread-count corridor.
    add_pred(cs, "bk gate", {bk, bp, bq, bn, u, cl}, [=](const int* v) {
      if (!smem_fits(std::int64_t{v[bp]} * v[bq] * v[bn], v[bk], v[u], v[cl], dsize, smem_blk,
                     smem_sm, smem_gran)) {
        return false;
      }
      return corridor.plausible(elems(v));
    });
    // Micro-tile gates: thread-tile divisibility fused with the corridor
    // progressively tightened as each dimension binds (threads =
    // E / (TN·TQ·TP·TK) with E = BK·BP·BQ·BN·CL; multiplication-form bounds
    // stay exact in int64), the unroll budget once TP binds, and at the TK
    // leaf the exact lowered block geometry — threads range / warp multiple /
    // prefetch-tile divisibility in pure integer math, so the large share of
    // X̂ failing them never reaches the string-formatting validate slow path.
    // Every value the gates read has already passed its pow2 unary mask, so
    // tile divisibility (a % b == 0) reduces to a comparison (a >= b) — for
    // positive powers of two the two are equivalent, and for the value 0
    // (conceivable only in subclass domains, where pow2 masking kills it
    // first anyway) the comparison is the stricter side, which can never
    // drop a validate-legal point. This removes one integer division per
    // node from the walk's hottest levels.
    add_pred(cs, "tn gate", {tn, bk, bp, bq, bn, cl}, [=](const int* v) {
      if (v[bn] < v[tn]) return false;
      const std::int64_t e = elems(v);
      return e >= warp * v[tn] * tp_min * tq_min * tk_min &&
             e <= maxt * v[tn] * tp_max * tq_max * tk_max;
    });
    add_pred(cs, "tq gate", {tq, tn, bk, bp, bq, bn, cl}, [=](const int* v) {
      if (v[bq] < v[tq]) return false;
      const std::int64_t d = std::int64_t{v[tq]} * v[tn];
      const std::int64_t e = elems(v);
      return e >= warp * d * tp_min * tk_min && e <= maxt * d * tp_max * tk_max;
    });
    add_pred(cs, "tp gate", {tp, tq, tn, bk, bp, bq, bn, u, cl}, [=](const int* v) {
      if (v[bp] < v[tp]) return false;
      const std::int64_t msv = std::int64_t{v[tp]} * v[tq] * v[tn];
      if (std::int64_t{v[u]} * (msv * tk_min + msv + tk_min) > 4096) return false;
      const std::int64_t e = elems(v);
      return e >= warp * msv * tk_min && e <= maxt * msv * tk_max;
    });
    // Register pressure through the lowering, mirroring codegen's
    // estimate_registers in pure ints. CG is still unbound at the TK leaf, so
    // its addressing term is taken at the minimum (CG = 1 contributes 0) —
    // the estimate is a lower bound and the limit checks stay necessary. The
    // lowered conv GEMM is always NT (trans_a = false, trans_b = true), which
    // contributes no addressing registers.
    const bool f64 = shape.dtype == gpusim::DataType::F64;
    const bool f16 = shape.dtype == gpusim::DataType::F16;
    const std::int64_t max_regs = dev.max_registers_per_thread;
    // Occupancy's by_regs >= 1 clause, inverted per warps-per-block:
    // round_up(r·warp, gran)·wpb <= regs_sm  ⟺  r·warp <= gran-floor of
    // regs_sm / wpb. Tabulated once so the gate pays an array lookup instead
    // of a rounding division per node.
    const std::int64_t wpb_cap =
        std::min<std::int64_t>(dev.max_warps_per_sm, warp > 0 ? maxt / warp : 0);
    std::vector<std::int64_t> max_rw(
        static_cast<std::size_t>(std::max<std::int64_t>(wpb_cap, 0)) + 1, 0);
    for (std::size_t w = 1; w < max_rw.size(); ++w) {
      if (dev.registers_per_sm <= 0) {
        max_rw[w] = std::int64_t{1} << 62;  // unknown register file: no bound
      } else {
        const std::int64_t per_block = dev.registers_per_sm / static_cast<std::int64_t>(w);
        const std::int64_t gran = dev.reg_alloc_granularity;
        max_rw[w] = gran > 0 ? per_block / gran * gran : per_block;
      }
    }
    add_pred(cs, "tk gate", {tk, tp, tq, tn, bk, bp, bq, bn, u, cl}, [=](const int* v) {
      if (v[bk] < v[tk]) return false;  // BK % TK for pow2 values
      const std::int64_t msv = std::int64_t{v[tp]} * v[tq] * v[tn];
      const std::int64_t nsv = v[tk];
      if (std::int64_t{v[u]} * (msv * nsv + msv + nsv) > 4096) return false;
      const std::int64_t mlv = std::int64_t{v[bp]} * v[bq] * v[bn];
      // Exact for pow2 values with ML >= MS and BK >= TK (both established by
      // the earlier comparison gates), matching threads_per_block().
      const std::int64_t threads = mlv * v[bk] * v[cl] / (msv * nsv);
      if (threads < warp || threads > maxt || threads % warp != 0) return false;
      // Prefetch-tile divisibility: tile_a/threads = U·MS·NS/NL and
      // tile_b/threads = U·MS·NS/ML are exact pow2 quotients, integer iff
      // the numerator covers the divisor. (VEC is pinned to 1 by the
      // lowering, so the per-thread vector-width clause is vacuous.)
      const std::int64_t un = v[u] * msv * nsv;
      if (un < v[bk] || un < mlv) return false;
      // Register pressure through the lowering, mirroring codegen's
      // estimate_registers in pure ints. CG is still unbound at the TK leaf,
      // so its addressing term is taken at the minimum (CG = 1 contributes
      // 0) — the estimate is a lower bound and the limit checks stay
      // necessary. The lowered conv GEMM is always NT (trans_a = false,
      // trans_b = true), which contributes no addressing registers.
      const int dw = f64 ? 2 : 1;
      std::int64_t acc = msv * nsv * dw;
      if (f16 && nsv % 2 == 0) acc = (acc + 1) / 2;
      const std::int64_t fetch_elems = ceil_div64((mlv + v[bk]) * v[u] * v[cl], threads);
      const std::int64_t fetch =
          (msv + nsv) * dw + std::max<std::int64_t>(2, fetch_elems) * dw;
      const std::int64_t regs_lb =
          std::max<std::int64_t>(24, acc + fetch + 18 + (v[cl] > 1 ? 4 : 0));
      if (regs_lb > max_regs) return false;
      const std::int64_t wpb = threads / warp;
      if (wpb >= static_cast<std::int64_t>(max_rw.size())) return false;
      return regs_lb * warp <= max_rw[static_cast<std::size_t>(wpb)];
    });
    return cs;
  }

  // Generic fallback for restricted spaces missing dimensions.
  add_pred(cs, "smem", {bk, bp, bq, bn, u, cl}, [=](const int* v) {
    return smem_fits(std::int64_t{v[bp]} * v[bq] * v[bn], v[bk], v[u], v[cl], dsize, smem_blk,
                     smem_sm, smem_gran);
  });
  if (bk != kNoDim) {
    const int bk_min = domain_min(domains, bk);
    add_pred(cs, "smem lb@bp", {bp, bq, bn, u, cl}, [=](const int* v) {
      return smem_fits(std::int64_t{v[bp]} * v[bq] * v[bn], bk_min, v[u], v[cl], dsize,
                       smem_blk, smem_sm, smem_gran);
    });
    if (bp != kNoDim) {
      const std::int64_t bp_min = domain_min(domains, bp);
      add_pred(cs, "smem lb@bq", {bq, bn, u, cl}, [=](const int* v) {
        return smem_fits(bp_min * v[bq] * v[bn], bk_min, v[u], v[cl], dsize, smem_blk, smem_sm,
                         smem_gran);
      });
      if (bq != kNoDim) {
        const std::int64_t t_min = bp_min * domain_min(domains, bq);
        add_pred(cs, "smem lb@bn", {bn, u, cl}, [=](const int* v) {
          return smem_fits(t_min * v[bn], bk_min, v[u], v[cl], dsize, smem_blk, smem_sm,
                           smem_gran);
        });
      }
    }
  }
  if (tk != kNoDim && tp != kNoDim && tq != kNoDim && tn != kNoDim) {
    const ThreadCorridor corridor(dev, std::int64_t{domain_max(domains, tk)} *
                                           domain_max(domains, tp) * domain_max(domains, tq) *
                                           domain_max(domains, tn));
    add_pred(cs, "threads", {bk, bp, bq, bn, cl}, [=](const int* v) {
      return corridor.plausible(std::int64_t{v[bk]} * v[bp] * v[bq] * v[bn] * v[cl]);
    });
  }
  add_pred(cs, "bn%tn", {bn, tn}, [=](const int* v) { return v[bn] % v[tn] == 0; });
  add_pred(cs, "bq%tq", {bq, tq}, [=](const int* v) { return v[bq] % v[tq] == 0; });
  add_pred(cs, "bp%tp", {bp, tp}, [=](const int* v) { return v[bp] % v[tp] == 0; });
  add_pred(cs, "bk%tk", {bk, tk}, [=](const int* v) { return v[bk] % v[tk] == 0; });
  if (tk != kNoDim) {
    const std::int64_t tk_min = domain_min(domains, tk);
    add_pred(cs, "unroll lb@tp", {tp, tq, tn, u}, [=](const int* v) {
      const std::int64_t msv = std::int64_t{v[tp]} * v[tq] * v[tn];
      return std::int64_t{v[u]} * (msv * tk_min + msv + tk_min) <= 4096;
    });
  }
  add_pred(cs, "unroll", {tk, tp, tq, tn, u}, [=](const int* v) {
    const std::int64_t msv = std::int64_t{v[tp]} * v[tq] * v[tn];
    const std::int64_t nsv = v[tk];
    return std::int64_t{v[u]} * (msv * nsv + msv + nsv) <= 4096;
  });

  return cs;
}

}  // namespace

void ConstraintSet::add(std::string name, std::size_t eval_dim,
                        std::function<bool(const int*)> check) {
  if (by_dim_.size() <= eval_dim) by_dim_.resize(eval_dim + 1);
  if (multi_by_dim_.size() <= eval_dim) multi_by_dim_.resize(eval_dim + 1);
  multi_by_dim_[eval_dim].push_back(check);
  by_dim_[eval_dim].push_back({std::move(name), eval_dim, false, std::move(check)});
  ++count_;
}

void ConstraintSet::add_unary(std::string name, std::size_t eval_dim,
                              std::function<bool(const int*)> check) {
  if (by_dim_.size() <= eval_dim) by_dim_.resize(eval_dim + 1);
  by_dim_[eval_dim].push_back({std::move(name), eval_dim, true, std::move(check)});
  ++count_;
  has_unary_ = true;
}

std::vector<std::vector<unsigned char>> ConstraintSet::value_masks(
    const std::vector<ParameterDomain>& domains) const {
  std::vector<std::vector<unsigned char>> masks;
  if (!has_unary_) return masks;
  masks.resize(domains.size());
  // A unary predicate reads only values[eval_dim], so evaluating it with the
  // rest of the scratch buffer zeroed is exact.
  std::vector<int> scratch(domains.size(), 0);
  for (std::size_t d = 0; d < domains.size(); ++d) {
    const auto& vals = domains[d].values;
    masks[d].assign(vals.size(), 1);
    if (d >= by_dim_.size()) continue;
    for (const auto& p : by_dim_[d]) {
      if (!p.unary) continue;
      for (std::size_t i = 0; i < vals.size(); ++i) {
        if (!masks[d][i]) continue;
        scratch[d] = vals[i];
        if (!p.check(scratch.data())) masks[d][i] = 0;
      }
    }
  }
  return masks;
}

// ------------------------------------------------------------------- GEMM --

GemmSearchSpace::GemmSearchSpace(bool cap16) {
  using T = codegen::GemmTuning;
  domains_ = {
      {"ms", maybe_cap(T::candidates_ms(), cap16)},
      {"ns", maybe_cap(T::candidates_ns(), cap16)},
      {"ml", maybe_cap(T::candidates_ml(), cap16)},
      {"nl", maybe_cap(T::candidates_nl(), cap16)},
      {"u", maybe_cap(T::candidates_u(), cap16)},
      {"ks", maybe_cap(T::candidates_ks(), cap16)},
      {"kl", maybe_cap(T::candidates_kl(), cap16)},
      {"kg", maybe_cap(T::candidates_kg(), cap16)},
      {"vec", maybe_cap(T::candidates_vec(), cap16)},
  };
}

std::size_t GemmSearchSpace::size() const noexcept { return product_size(domains_); }

codegen::GemmTuning GemmSearchSpace::decode(const std::vector<std::size_t>& choice) const {
  if (choice.size() != domains_.size()) throw std::invalid_argument("decode: arity mismatch");
  codegen::GemmTuning t;
  t.ms = domains_[0].values[choice[0]];
  t.ns = domains_[1].values[choice[1]];
  t.ml = domains_[2].values[choice[2]];
  t.nl = domains_[3].values[choice[3]];
  t.u = domains_[4].values[choice[4]];
  t.ks = domains_[5].values[choice[5]];
  t.kl = domains_[6].values[choice[6]];
  t.kg = domains_[7].values[choice[7]];
  t.vec = domains_[8].values[choice[8]];
  return t;
}

bool GemmSearchSpace::encode(const codegen::GemmTuning& t,
                             std::vector<std::size_t>& choice) const {
  return encode_values(domains_, {t.ms, t.ns, t.ml, t.nl, t.u, t.ks, t.kl, t.kg, t.vec},
                       choice);
}

codegen::GemmTuning GemmSearchSpace::sample_uniform(Rng& rng,
                                                    std::vector<std::size_t>* choice) const {
  auto c = uniform_choice(domains_, rng);
  if (choice) *choice = c;
  return decode(c);
}

void GemmSearchSpace::for_each(
    const std::function<bool(const codegen::GemmTuning&)>& fn) const {
  cartesian_for_each(domains_,
                     [&](const std::vector<std::size_t>& choice) { return fn(decode(choice)); });
}

ConstraintSet GemmSearchSpace::prefix_constraints(const codegen::GemmShape& shape,
                                                  const gpusim::DeviceDescriptor& dev) const {
  return gemm_prefix_constraints(domains_, shape, dev);
}

void GemmSearchSpace::for_each_legal(
    const codegen::GemmShape& shape, const gpusim::DeviceDescriptor& dev,
    const std::function<bool(const codegen::GemmTuning&)>& fn) const {
  const ConstraintSet cs = prefix_constraints(shape, dev);
  walk_legal(domains_, cs.empty() ? nullptr : &cs,
             [&](const std::vector<std::size_t>& choice, std::uint64_t) {
               const codegen::GemmTuning t = decode(choice);
               if (!codegen::validate(shape, t, dev)) return true;
               return fn(t);
             });
}

// --------------------------------------------------------------- BATCHED --

BatchedGemmSearchSpace::BatchedGemmSearchSpace(bool cap16) : GemmSearchSpace(cap16) {
  for (auto& d : domains_) {
    if (d.name == "kg") d.values = {1};
  }
}

// ------------------------------------------------------------------- CONV --

ConvSearchSpace::ConvSearchSpace(bool cap16) {
  using T = codegen::ConvTuning;
  domains_ = {
      {"tk", maybe_cap(T::candidates_tk(), cap16)},
      {"tp", maybe_cap(T::candidates_tp(), cap16)},
      {"tq", maybe_cap(T::candidates_tq(), cap16)},
      {"tn", maybe_cap(T::candidates_tn(), cap16)},
      {"bk", maybe_cap(T::candidates_bk(), cap16)},
      {"bp", maybe_cap(T::candidates_bp(), cap16)},
      {"bq", maybe_cap(T::candidates_bq(), cap16)},
      {"bn", maybe_cap(T::candidates_bn(), cap16)},
      {"u", maybe_cap(T::candidates_u(), cap16)},
      {"cl", maybe_cap(T::candidates_cl(), cap16)},
      {"cg", maybe_cap(T::candidates_cg(), cap16)},
  };
}

std::size_t ConvSearchSpace::size() const noexcept { return product_size(domains_); }

codegen::ConvTuning ConvSearchSpace::decode(const std::vector<std::size_t>& choice) const {
  if (choice.size() != domains_.size()) throw std::invalid_argument("decode: arity mismatch");
  codegen::ConvTuning t;
  t.tk = domains_[0].values[choice[0]];
  t.tp = domains_[1].values[choice[1]];
  t.tq = domains_[2].values[choice[2]];
  t.tn = domains_[3].values[choice[3]];
  t.bk = domains_[4].values[choice[4]];
  t.bp = domains_[5].values[choice[5]];
  t.bq = domains_[6].values[choice[6]];
  t.bn = domains_[7].values[choice[7]];
  t.u = domains_[8].values[choice[8]];
  t.cl = domains_[9].values[choice[9]];
  t.cg = domains_[10].values[choice[10]];
  return t;
}

bool ConvSearchSpace::encode(const codegen::ConvTuning& t,
                             std::vector<std::size_t>& choice) const {
  return encode_values(domains_,
                       {t.tk, t.tp, t.tq, t.tn, t.bk, t.bp, t.bq, t.bn, t.u, t.cl, t.cg},
                       choice);
}

codegen::ConvTuning ConvSearchSpace::sample_uniform(Rng& rng,
                                                    std::vector<std::size_t>* choice) const {
  auto c = uniform_choice(domains_, rng);
  if (choice) *choice = c;
  return decode(c);
}

void ConvSearchSpace::for_each(
    const std::function<bool(const codegen::ConvTuning&)>& fn) const {
  cartesian_for_each(domains_,
                     [&](const std::vector<std::size_t>& choice) { return fn(decode(choice)); });
}

ConstraintSet ConvSearchSpace::prefix_constraints(const codegen::ConvShape& shape,
                                                  const gpusim::DeviceDescriptor& dev) const {
  return conv_prefix_constraints(domains_, shape, dev);
}

void ConvSearchSpace::for_each_legal(
    const codegen::ConvShape& shape, const gpusim::DeviceDescriptor& dev,
    const std::function<bool(const codegen::ConvTuning&)>& fn) const {
  const ConstraintSet cs = prefix_constraints(shape, dev);
  walk_legal(domains_, cs.empty() ? nullptr : &cs,
             [&](const std::vector<std::size_t>& choice, std::uint64_t) {
               const codegen::ConvTuning t = decode(choice);
               if (!codegen::validate(shape, t, dev)) return true;
               return fn(t);
             });
}

}  // namespace isaac::tuning
