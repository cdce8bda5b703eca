// Lock-rank registry: the runtime complement to the Clang thread-safety
// capability annotations (common/thread_annotations.hpp). Capabilities prove
// "this member is only touched under its mutex"; they cannot prove the
// *global acquisition order* across mutexes. This module can: every named
// mutex in the runtime carries a Rank, each thread keeps a stack of the ranks
// it currently holds, and a blocking acquisition that is not strictly inward
// (toward lower ranks) aborts immediately with both stacks' names — turning
// a would-be deadlock that needs an unlucky interleaving into a
// deterministic failure on the *first* out-of-order acquisition, on any
// thread, in any test.
//
// Convention: higher rank = outer lock. While holding rank r, a thread may
// block-acquire only ranks strictly below r. The table below is the one
// DESIGN.md ("Static analysis & lock discipline") documents; the gaps leave
// room for future subsystems without renumbering.
//
// try_lock is special: a successful try_lock cannot *block*, so it skips the
// order check — but it still pushes onto the held stack, because later
// blocking acquisitions under it absolutely can deadlock against it.
// Condition-variable waits release the mutex inside the wait, so the rank
// pops for the wait's duration and re-pushes (uncheck) on wake.
//
// Cost model: the checking hooks are compiled into the annotated mutex
// wrappers only when ISAAC_LOCK_RANK_CHECKS is 1 — debug builds by default,
// any build with -DISAAC_LOCK_RANK=ON (the CI concurrency jobs). In a plain
// Release build the wrappers compile to bare std::mutex operations: no
// thread-local traffic, no branches, nothing. The hook *implementations* are
// always compiled, so tests can drive the detection logic directly in every
// build type.
#pragma once

#include <cstddef>

// Gate for the wrapper-integrated checks. Uniform across every TU linking
// the isaac target: the CMake option ISAAC_LOCK_RANK=ON/OFF applies
// ISAAC_LOCK_RANK_FORCE / ISAAC_LOCK_RANK_DISABLE as PUBLIC compile
// definitions, so the inline Mutex methods never differ across TUs (no ODR
// hazard).
#if (!defined(NDEBUG) || defined(ISAAC_LOCK_RANK_FORCE)) && !defined(ISAAC_LOCK_RANK_DISABLE)
#define ISAAC_LOCK_RANK_CHECKS 1
#else
#define ISAAC_LOCK_RANK_CHECKS 0
#endif

namespace isaac::lock_rank {

/// The global acquisition order (higher = outer; block-acquire strictly
/// descending). Derived from the nestings the runtime actually performs:
///
///   breaker_map > breaker > model > background > inflight > obslog > drift
///   > cache_shard > pool > failpoint_registry > telemetry_flush
///   > telemetry_registry > telemetry_trace > logging > leaf
///
/// Load-bearing edges: inflight -> cache_shard (select()'s under-lock cache
/// recheck), cache_shard -> failpoint_registry -> logging (disk-append chaos
/// site), {cache_shard, breaker, inflight} -> telemetry_registry (ISAAC_TM_*
/// under a lock), breaker -> logging (transition lines).
enum class Rank : int {
  none = 0,
  leaf = 2,                // function-local coordination (parallel_for, warmup)
  logging = 5,             // log::write serialization
  telemetry_trace = 8,     // span ring
  telemetry_registry = 10, // counter/gauge/histogram family maps
  telemetry_flush = 12,    // periodic dump thread
  failpoint_registry = 15, // failpoint site map
  pool = 20,               // ThreadPool queue
  cache_shard = 30,        // ProfileCache shard (shared)
  drift = 42,              // DriftDetector windows
  obslog = 44,             // ObservationLog ring
  inflight = 50,           // Context single-flight / refinement bookkeeping
  background = 60,         // Context background-task counter + cv
  model = 70,              // Context hot-swappable model slot
  breaker = 80,            // one CircuitBreaker's state machine
  breaker_map = 90,        // Context's per-op breaker map
};

/// Stable display name for a rank ("cache_shard", "inflight", ...).
const char* name(Rank r) noexcept;

/// True when the annotated mutex wrappers call the hooks below (debug builds
/// or -DISAAC_LOCK_RANK=ON). The hooks themselves exist in every build.
constexpr bool checks_compiled_in() noexcept { return ISAAC_LOCK_RANK_CHECKS != 0; }

/// Blocking acquisition: verify `r` is strictly below every rank this thread
/// holds, then push it. On violation the handler runs (default: print both
/// the held stack and the offending rank to stderr, abort()).
void on_acquire(Rank r) noexcept;

/// Successful try_lock: push without the order check (a try_lock cannot
/// block, but later blocking acquisitions must still see it held).
void on_try_acquire(Rank r) noexcept;

/// Release: pop the innermost held occurrence of `r`.
void on_release(Rank r) noexcept;

/// Condition-variable wait protocol: the wait releases the mutex inside, so
/// its rank leaves the stack for the wait's duration and returns (unchecked,
/// like a re-acquisition of something logically never released) on wake.
void on_wait_release(Rank r) noexcept;
void on_wait_reacquire(Rank r) noexcept;

/// Depth of this thread's held-rank stack (tests).
std::size_t held_count() noexcept;

/// Violation hook. The default (nullptr) prints both stack names and
/// abort()s; tests install a recording handler to observe violations
/// in-process. A non-null handler that returns lets the acquisition proceed.
/// Returns the previous handler.
using ViolationHandler = void (*)(const char* message);
ViolationHandler set_violation_handler(ViolationHandler handler) noexcept;

}  // namespace isaac::lock_rank
