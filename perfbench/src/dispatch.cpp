// hot_dispatch phase: a closed loop of `nproc` client threads calling
// ctx.select<Op>() only, over a Zipf mix of the pre-warmed, refined shapes.
// Every call is a cache hit and the pool is idle, so only `core` shows: this
// is the host-side cost a real-GPU caller pays per kernel launch.
#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr double kZipfS = 1.0;
constexpr std::size_t kSequence = std::size_t{1} << 16;  // pre-drawn requests per thread
constexpr std::uint64_t kLatencyStride = 8;   // keep every 8th call's latency
constexpr double kSliceSeconds = 0.5;
constexpr std::uint64_t kTraceStride = 1024;  // trace every 1024th request

struct Entry {
  int op = 0;
  std::size_t index = 0;
};

struct ThreadResult {
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
};

std::atomic<std::uint64_t> g_sink{0};

/// One select; the check runs after the clock stops. A traced request also
/// times the two steps a hit is made of, key derivation and cache lookup, on
/// their own.
template <typename Op>
bool serve(Bench& b, std::size_t index, bool traced, std::uint64_t request,
           std::uint64_t& begin_ns, std::uint64_t& end_ns) {
  const auto& shape = shapes_of<Op>(b.dispatch_set)[index];
  bool from_cache = false;
  icore::EntryTier tier = icore::EntryTier::provisional;
  typename icore::OperationTraits<Op>::Tuning served;
  std::optional<trace::Span> root;
  if (traced) root.emplace("dispatch.request", request);
  begin_ns = now_ns();
  {
    std::optional<trace::Span> span;
    if (traced) span.emplace("core.select");
    served = b.ctx->select<Op>(shape, &from_cache, &tier);
  }
  end_ns = now_ns();
  if (traced) {
    const std::string& dev = b.ctx->device().name;
    std::string key;
    {
      trace::Span span("core.key");
      key = icore::ProfileCache::key<Op>(dev, shape);
    }
    trace::Span span("core.lookup");
    if (b.ctx->cache().lookup<Op>(dev, shape)) g_sink.fetch_add(key.size(), std::memory_order_relaxed);
  }
  return from_cache && tier == icore::EntryTier::refined &&
         served == tunings_of<Op>(b.dispatch_expected)[index];
}

}  // namespace

PhaseStats run_dispatch(Bench& b, double seconds) {
  // Popularity ranks cycle GEMM, conv, GEMM, batched GEMM, so every seed
  // sends each op the same share of traffic; the shapes behind the ranks are
  // the seeded ones.
  std::vector<Entry> entries;
  std::size_t next[3] = {0, 0, 0};
  const std::size_t count[3] = {b.dispatch_set.gemm.size(), b.dispatch_set.conv.size(),
                                b.dispatch_set.bgemm.size()};
  for (std::size_t rank = 0; entries.size() < b.dispatch_set.size(); ++rank) {
    constexpr int kPattern[] = {0, 1, 0, 2};
    const int op = kPattern[rank % 4];
    if (next[op] < count[op]) entries.push_back({op, next[op]++});
  }
  isaac::Rng rng(b.cfg.seed ^ 0xD15Bu);
  const Zipf zipf(entries.size(), kZipfS);
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::vector<std::uint32_t>> sequences(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    isaac::Rng thread_rng = rng.fork(t);
    for (std::size_t i = 0; i < kSequence; ++i) {
      sequences[t].push_back(static_cast<std::uint32_t>(zipf.draw(thread_rng)));
    }
  }

  const auto stats_before = b.ctx->cache().stats();
  const std::size_t predictions_before = b.ctx->predictions();
  const std::size_t tuning_runs_before = b.ctx->tuning_runs();
  const bool tracing = trace::enabled();
  std::atomic<bool> stop{false};
  std::vector<ThreadResult> results(threads);
  const std::uint64_t begin = now_ns() + 20000000;  // every client starts here
  std::vector<Slices> slices(threads, Slices(begin, seconds, kSliceSeconds));
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      // Counters and samples stay in this thread's own memory until the
      // loop ends: clients that wrote to neighbouring slots would share
      // cache lines, and that traffic would be timed with the library's.
      ThreadResult r;
      Slices own = slices[t];
      const auto& seq = sequences[t];
      while (now_ns() < begin) std::this_thread::yield();
      std::size_t pos = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int j = 0; j < 256; ++j, ++r.calls) {
          const Entry& e = entries[seq[pos++ % kSequence]];
          const bool traced = tracing && r.calls % kTraceStride == 0;
          const std::uint64_t request = (static_cast<std::uint64_t>(t + 1) << 40) | r.calls;
          std::uint64_t t0 = 0, t1 = 0;
          bool ok = false;
          try {
            switch (e.op) {
              case 0: ok = serve<icore::GemmOp>(b, e.index, traced, request, t0, t1); break;
              case 1: ok = serve<icore::ConvOp>(b, e.index, traced, request, t0, t1); break;
              default: ok = serve<icore::BatchedGemmOp>(b, e.index, traced, request, t0, t1);
            }
          } catch (...) {
            ok = false;
            t1 = t0 = now_ns();
          }
          if (!ok) ++r.failed;
          own.add(t1, static_cast<double>(t1 - t0), r.calls % kLatencyStride == 0);
        }
      }
      results[t] = r;
      slices[t] = std::move(own);
    });
  }
  const std::uint64_t end = slices[0].end_ns();
  std::this_thread::sleep_for(std::chrono::nanoseconds(end - now_ns()));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();

  for (std::size_t t = 1; t < threads; ++t) slices[0].merge(slices[t]);
  for (const ThreadResult& r : results) {
    b.tally.attempted += r.calls;
    b.tally.failed += r.failed;
  }
  const auto stats_after = b.ctx->cache().stats();
  if (b.ctx->predictions() != predictions_before || b.ctx->tuning_runs() != tuning_runs_before) {
    b.fail("hot_dispatch: a prediction or refinement ran during the timed phase");
  }
  // Served tunings matched the warmed entries, which must be legal.
  const auto& dev = b.ctx->device();
  for_each_op([&](auto op) {
    using Op = decltype(op);
    const auto& shapes = shapes_of<Op>(b.dispatch_set);
    const auto& tunings = tunings_of<Op>(b.dispatch_expected);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      if (!icore::OperationTraits<Op>::validate(shapes[i], tunings[i], dev)) {
        b.fail("hot_dispatch: served an illegal tuning for " + shapes[i].to_string());
      }
    }
  });

  PhaseStats out;
  const double hits = static_cast<double>(stats_after.hits - stats_before.hits);
  const double misses = static_cast<double>(stats_after.misses - stats_before.misses);
  out.hit_ratio = hits / std::max(1.0, hits + misses);
  b.e2e.set("dispatch_ops_per_s", slices[0].rate(), "1/s");
  b.e2e.set("dispatch_p50_ns", slices[0].latency(0.50), "ns");
  b.e2e.set("dispatch_p99_ns", slices[0].latency(0.99), "ns");
  out.headline_latency = b.e2e.values["dispatch_p50_ns"].first;
  return out;
}

}  // namespace perfbench
