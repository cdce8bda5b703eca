#include "common/lock_rank.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace isaac::lock_rank {

namespace {

// Deepest legal nesting today is 4 (breaker_map -> breaker -> telemetry ->
// logging class of chains); 32 leaves room and keeps the thread-local small.
constexpr std::size_t kMaxHeld = 32;

thread_local Rank t_held[kMaxHeld];
thread_local std::size_t t_depth = 0;

std::atomic<ViolationHandler> g_handler{nullptr};

void append(char* buf, std::size_t cap, std::size_t& len, const char* s) {
  while (*s && len + 1 < cap) buf[len++] = *s++;
  buf[len] = '\0';
}

void report_violation(Rank acquiring) {
  // Build the message with no allocation: the default path is about to
  // abort, and a heap in an unknown state must not stop the diagnosis.
  char msg[512];
  std::size_t len = 0;
  append(msg, sizeof msg, len, "lock-rank violation: blocking acquisition of '");
  append(msg, sizeof msg, len, name(acquiring));
  append(msg, sizeof msg, len, "' while holding [");
  for (std::size_t i = 0; i < t_depth && i < kMaxHeld; ++i) {
    if (i) append(msg, sizeof msg, len, " > ");
    append(msg, sizeof msg, len, name(t_held[i]));
  }
  append(msg, sizeof msg, len,
         "] (outer > inner; acquisitions must descend strictly)");

  if (ViolationHandler handler = g_handler.load(std::memory_order_acquire)) {
    handler(msg);
    return;
  }
  std::fprintf(stderr, "[isaac lock-rank] %s\n", msg);
  std::abort();
}

}  // namespace

const char* name(Rank r) noexcept {
  switch (r) {
    case Rank::none: return "none";
    case Rank::leaf: return "leaf";
    case Rank::logging: return "logging";
    case Rank::telemetry_trace: return "telemetry_trace";
    case Rank::telemetry_registry: return "telemetry_registry";
    case Rank::telemetry_flush: return "telemetry_flush";
    case Rank::failpoint_registry: return "failpoint_registry";
    case Rank::pool: return "pool";
    case Rank::cache_shard: return "cache_shard";
    case Rank::drift: return "drift";
    case Rank::obslog: return "obslog";
    case Rank::inflight: return "inflight";
    case Rank::background: return "background";
    case Rank::model: return "model";
    case Rank::breaker: return "breaker";
    case Rank::breaker_map: return "breaker_map";
  }
  return "unknown";
}

void on_acquire(Rank r) noexcept {
  // Check against the *minimum* held rank, not just the innermost push:
  // try_lock pushes without checking, so the stack is not guaranteed
  // monotonic — but any held rank <= r still closes a potential cycle.
  for (std::size_t i = 0; i < t_depth && i < kMaxHeld; ++i) {
    if (static_cast<int>(r) >= static_cast<int>(t_held[i])) {
      report_violation(r);
      break;  // handler chose to continue; record the acquisition anyway
    }
  }
  if (t_depth < kMaxHeld) t_held[t_depth] = r;
  ++t_depth;
}

void on_try_acquire(Rank r) noexcept {
  if (t_depth < kMaxHeld) t_held[t_depth] = r;
  ++t_depth;
}

void on_release(Rank r) noexcept {
  if (t_depth == 0) return;  // unbalanced release: never compound the bug
  const std::size_t top = t_depth <= kMaxHeld ? t_depth : kMaxHeld;
  // Innermost occurrence first: RAII releases are LIFO, but unique_lock-style
  // manual unlocks may interleave, so scan from the top.
  for (std::size_t i = top; i-- > 0;) {
    if (t_held[i] == r) {
      for (std::size_t j = i + 1; j < top; ++j) t_held[j - 1] = t_held[j];
      --t_depth;
      return;
    }
  }
  --t_depth;  // rank not found (overflowed past kMaxHeld): keep depth sane
}

void on_wait_release(Rank r) noexcept { on_release(r); }

void on_wait_reacquire(Rank r) noexcept { on_try_acquire(r); }

std::size_t held_count() noexcept { return t_depth; }

ViolationHandler set_violation_handler(ViolationHandler handler) noexcept {
  return g_handler.exchange(handler, std::memory_order_acq_rel);
}

}  // namespace isaac::lock_rank
