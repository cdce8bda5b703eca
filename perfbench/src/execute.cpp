// hot_execute phase: a closed loop of one client thread calling ctx.gemm /
// ctx.conv / ctx.batched_gemm on pre-warmed small-to-mid shapes with real host
// buffers. The executors fan out onto the pool, so the pool's fork/joins and
// the simulator's launch_median dominate; select is a small share of a call.
//
// The traced run makes the same steps Context::run makes (select, execute,
// analyze, launch_median) as separate calls, one span each.
#include <cmath>

#include "bench.hpp"
#include "codegen/batched_gemm_executor.hpp"
#include "codegen/conv_executor.hpp"
#include "codegen/gemm_executor.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kTraceStride = 7;  // trace every 7th call (coprime to the job count)
constexpr int kLaunchReps = 3;             // what Context::run passes to launch_median
// Short slices, and the quantile across them taken from the fast side: a host
// that deschedules one vCPU for a while stalls every fork/join waiting on it,
// and such stretches then fall in the slow slices the quantile skips.
constexpr double kSliceSeconds = 0.1;
constexpr double kFastSlices = 0.25;

/// One shape with its host buffers. For conv, a/b/c are input/filters/output.
struct Job {
  int op = 0;
  std::size_t index = 0;
  std::vector<float> a, b, c;
  std::int64_t lda = 0, ldb = 0, ldc = 0;
  std::int64_t stride_a = 0, stride_b = 0, stride_c = 0;
  std::uint64_t calls = 0;
};

std::vector<float> random_buffer(isaac::Rng& rng, std::int64_t n) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

Job make_gemm_job(isaac::Rng& rng, int op, std::size_t index, const icd::GemmShape& s,
                  std::int64_t batch) {
  Job j;
  j.op = op;
  j.index = index;
  j.lda = s.trans_a ? s.k : s.m;
  j.ldb = s.trans_b ? s.n : s.k;
  j.ldc = s.m;
  j.stride_a = s.m * s.k;
  j.stride_b = s.k * s.n;
  j.stride_c = s.m * s.n;
  j.a = random_buffer(rng, batch * j.stride_a);
  j.b = random_buffer(rng, batch * j.stride_b);
  j.c.assign(static_cast<std::size_t>(batch * j.stride_c), 0.0f);
  return j;
}

Job make_conv_job(isaac::Rng& rng, std::size_t index, const icd::ConvShape& s) {
  Job j;
  j.op = 1;
  j.index = index;
  j.a = random_buffer(rng, s.n * s.c * s.h * s.w);
  j.b = random_buffer(rng, s.k * s.c * s.r * s.s);
  j.c.assign(static_cast<std::size_t>(s.n * s.k * s.p() * s.q()), 0.0f);
  return j;
}

/// The library call a user makes, through the op's public Context entry.
void call(icore::Context& ctx, const ShapeSet& set, Job& j) {
  switch (j.op) {
    case 0:
      ctx.gemm(set.gemm[j.index], 1.0f, j.a.data(), j.lda, j.b.data(), j.ldb, 0.0f, j.c.data(),
               j.ldc);
      break;
    case 1:
      ctx.conv(set.conv[j.index], 1.0f, j.a.data(), j.b.data(), 0.0f, j.c.data());
      break;
    default:
      ctx.batched_gemm(set.bgemm[j.index], 1.0f, j.a.data(), j.lda, j.stride_a, j.b.data(),
                       j.ldb, j.stride_b, 0.0f, j.c.data(), j.ldc, j.stride_c);
  }
}

template <typename Op, typename... Args>
void call_traced(icore::Context& ctx, const typename icore::OperationTraits<Op>::Shape& shape,
                 Args&&... args) {
  using Traits = icore::OperationTraits<Op>;
  typename Traits::Tuning tuning;
  {
    trace::Span span("core.select_in_call");
    tuning = ctx.select<Op>(shape);
  }
  {
    trace::Span span("codegen.execute");
    Traits::execute(shape, tuning, std::forward<Args>(args)...);
  }
  isaac::gpusim::KernelProfile profile;
  {
    trace::Span span("gpusim.analyze");
    profile = Traits::analyze(shape, tuning, ctx.device());
  }
  trace::Span span("gpusim.launch_median");
  ctx.simulator().launch_median(profile, kLaunchReps);
}

void call_traced(icore::Context& ctx, const ShapeSet& set, Job& j, std::uint64_t request) {
  trace::Span root("execute.call", request);
  switch (j.op) {
    case 0:
      call_traced<icore::GemmOp>(ctx, set.gemm[j.index], 1.0f, j.a.data(), j.lda, j.b.data(),
                                 j.ldb, 0.0f, j.c.data(), j.ldc);
      break;
    case 1:
      call_traced<icore::ConvOp>(ctx, set.conv[j.index], 1.0f, j.a.data(), j.b.data(), 0.0f,
                                 j.c.data());
      break;
    default:
      call_traced<icore::BatchedGemmOp>(ctx, set.bgemm[j.index], 1.0f, j.a.data(), j.lda,
                                        j.stride_a, j.b.data(), j.ldb, j.stride_b, 0.0f,
                                        j.c.data(), j.ldc, j.stride_c);
  }
}

/// Output of the job's last call against the reference implementation.
bool matches_reference(const ShapeSet& set, const Job& j) {
  std::vector<float> ref(j.c.size(), 0.0f);
  switch (j.op) {
    case 0:
      icd::reference_gemm(set.gemm[j.index], 1.0f, j.a.data(), j.lda, j.b.data(), j.ldb, 0.0f,
                          ref.data(), j.ldc);
      break;
    case 1:
      icd::reference_conv(set.conv[j.index], 1.0f, j.a.data(), j.b.data(), 0.0f, ref.data());
      break;
    default:
      icd::reference_batched_gemm(set.bgemm[j.index], 1.0f, j.a.data(), j.lda, j.stride_a,
                                  j.b.data(), j.ldb, j.stride_b, 0.0f, ref.data(), j.ldc,
                                  j.stride_c);
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!(std::fabs(j.c[i] - ref[i]) <= 1e-3f * (1.0f + std::fabs(ref[i])))) return false;
  }
  return true;
}

/// Useful FLOPs and computed bytes (inputs read once, output written once).
std::pair<double, double> work_of(const ShapeSet& set, const Job& j) {
  const double bytes = 4.0 * static_cast<double>(j.a.size() + j.b.size() + j.c.size());
  switch (j.op) {
    case 0: return {set.gemm[j.index].flops(), bytes};
    case 1: return {set.conv[j.index].flops(), bytes};
    default: return {set.bgemm[j.index].flops(), bytes};
  }
}

}  // namespace

PhaseStats run_execute(Bench& b, double seconds) {
  isaac::Rng rng(b.cfg.seed ^ 0xE7EC);
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < b.execute_set.gemm.size(); ++i) {
    jobs.push_back(make_gemm_job(rng, 0, i, b.execute_set.gemm[i], 1));
  }
  for (std::size_t i = 0; i < b.execute_set.conv.size(); ++i) {
    jobs.push_back(make_conv_job(rng, i, b.execute_set.conv[i]));
  }
  for (std::size_t i = 0; i < b.execute_set.bgemm.size(); ++i) {
    const auto& s = b.execute_set.bgemm[i];
    jobs.push_back(make_gemm_job(rng, 2, i, s.gemm, s.batch));
  }
  // Round robin over a seeded order: every shape gets the same share of
  // calls, so the mix does not change with the seed.
  std::vector<std::uint32_t> sequence(jobs.size());
  for (std::size_t i = 0; i < sequence.size(); ++i) sequence[i] = static_cast<std::uint32_t>(i);
  shuffle(sequence, rng);

  // One untimed call per shape first: the loop then only ever hits warm
  // buffers, and every job's output is defined for the check.
  for (Job& j : jobs) call(*b.ctx, b.execute_set, j);

  const auto stats_before = b.ctx->cache().stats();
  const std::size_t predictions_before = b.ctx->predictions();
  const std::size_t tuning_runs_before = b.ctx->tuning_runs();
  const bool tracing = trace::enabled();
  std::vector<std::uint64_t> failed_calls(jobs.size(), 0);
  std::uint64_t calls = 0;
  const std::uint64_t cpu_begin = process_cpu_ns();
  Slices slices(now_ns(), seconds, kSliceSeconds);
  for (std::uint64_t end = 0; end < slices.end_ns(); ++calls) {
    Job& j = jobs[sequence[calls % sequence.size()]];
    const std::uint64_t t0 = now_ns();
    try {
      if (tracing && calls % kTraceStride == 0) {
        call_traced(*b.ctx, b.execute_set, j, calls + 1);
      } else {
        call(*b.ctx, b.execute_set, j);
      }
    } catch (...) {
      ++failed_calls[static_cast<std::size_t>(&j - jobs.data())];
    }
    end = now_ns();
    slices.add(end, static_cast<double>(end - t0), true);
    ++j.calls;
  }
  const std::uint64_t cpu_ns = process_cpu_ns() - cpu_begin;
  const auto stats_after = b.ctx->cache().stats();

  if (b.ctx->predictions() != predictions_before || b.ctx->tuning_runs() != tuning_runs_before) {
    b.fail("hot_execute: a prediction or refinement ran during the timed phase");
  }
  // Every call of a shape whose output is wrong counts as failed.
  b.tally.attempted += calls;
  double flops = 0.0, bytes = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    b.tally.failed += matches_reference(b.execute_set, j) ? failed_calls[i] : j.calls;
    const auto [f, by] = work_of(b.execute_set, j);
    flops += f * static_cast<double>(j.calls);
    bytes += by * static_cast<double>(j.calls);
  }

  PhaseStats out;
  const double hits = static_cast<double>(stats_after.hits - stats_before.hits);
  const double misses = static_cast<double>(stats_after.misses - stats_before.misses);
  out.hit_ratio = hits / std::max(1.0, hits + misses);
  // CPU time per call is the gate: the process is idle but for the caller
  // and the pool workers it forks to, so it counts the work a call costs
  // wherever it runs. Wall-clock latency and rate, each from the fast quarter
  // of the slices, also count the waiting, but they are reported from traced
  // runs only: each call forks onto as many workers as there are vCPUs while
  // the caller works too, and on a shared host whole runs came out up to
  // three times slower than others.
  b.e2e.set("call_cpu_us", static_cast<double>(cpu_ns) / 1e3 / static_cast<double>(std::max<std::uint64_t>(calls, 1)), "us");
  b.layers.set("call_p50_us", slices.latency(0.50, kFastSlices) / 1e3, "us");
  b.layers.set("call_ops_per_s", slices.rate(1.0 - kFastSlices), "1/s");
  b.layers.set("call_p99_us", slices.latency(0.99) / 1e3, "us");
  b.layers.set("codegen.flops_per_call", flops / static_cast<double>(std::max<std::uint64_t>(calls, 1)), "flop");
  b.layers.set("codegen.bytes_per_call", bytes / static_cast<double>(std::max<std::uint64_t>(calls, 1)), "B");
  out.headline_latency = b.layers.values["call_p50_us"].first;
  return out;
}

}  // namespace perfbench
