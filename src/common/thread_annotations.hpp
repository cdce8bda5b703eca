// Clang thread-safety capability annotations + annotated mutex wrappers.
//
// Two layers (DESIGN.md, "Static analysis & lock discipline"):
//
//  1. The ISAAC_* attribute macros wrap Clang's thread-safety-analysis
//     attributes (guarded_by, requires_capability, acquire/release, ...).
//     Under Clang with -Wthread-safety the compiler proves, per translation
//     unit, that every ISAAC_GUARDED_BY member is only touched while its
//     capability is held. Under any other compiler (the tier-1 GCC build)
//     they expand to nothing.
//
//  2. sync::Mutex / sync::SharedMutex / the RAII lock types are the
//     *annotated* std::mutex / std::shared_mutex: the analysis does not
//     understand std::lock_guard over a plain std::mutex, so every named
//     mutex in the runtime is one of these wrappers, locked through
//     sync::MutexLock / ReaderMutexLock / WriterMutexLock. The wrappers also
//     carry the mutex's lock_rank::Rank and (in checking builds, see
//     lock_rank.hpp) feed the runtime acquisition-order detector — one
//     declaration buys both analyses.
//
// Condition variables: sync::CondVar::wait(mu) requires `mu` held and keeps
// the capability held across the wait from the analysis's point of view
// (std::condition_variable re-acquires before returning). Use the explicit
// `while (!predicate) cv.wait(mu);` form — the predicate-lambda overload of
// std::condition_variable::wait hides the guarded reads inside an unanalyzed
// closure, which is exactly the blind spot this header exists to close.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/lock_rank.hpp"

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define ISAAC_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef ISAAC_THREAD_ANNOTATION__
#define ISAAC_THREAD_ANNOTATION__(x)  // not Clang: annotations compile away
#endif

#define ISAAC_CAPABILITY(x) ISAAC_THREAD_ANNOTATION__(capability(x))
#define ISAAC_SCOPED_CAPABILITY ISAAC_THREAD_ANNOTATION__(scoped_lockable)
#define ISAAC_GUARDED_BY(x) ISAAC_THREAD_ANNOTATION__(guarded_by(x))
#define ISAAC_PT_GUARDED_BY(x) ISAAC_THREAD_ANNOTATION__(pt_guarded_by(x))
#define ISAAC_ACQUIRED_BEFORE(...) ISAAC_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define ISAAC_ACQUIRED_AFTER(...) ISAAC_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))
#define ISAAC_REQUIRES(...) ISAAC_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define ISAAC_REQUIRES_SHARED(...) \
  ISAAC_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
#define ISAAC_ACQUIRE(...) ISAAC_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define ISAAC_ACQUIRE_SHARED(...) \
  ISAAC_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define ISAAC_RELEASE(...) ISAAC_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define ISAAC_RELEASE_SHARED(...) \
  ISAAC_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define ISAAC_RELEASE_GENERIC(...) \
  ISAAC_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))
#define ISAAC_TRY_ACQUIRE(...) ISAAC_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define ISAAC_EXCLUDES(...) ISAAC_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define ISAAC_RETURN_CAPABILITY(x) ISAAC_THREAD_ANNOTATION__(lock_returned(x))
#define ISAAC_NO_THREAD_SAFETY_ANALYSIS ISAAC_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace isaac::sync {

/// Annotated std::mutex carrying a lock rank. Declare with the rank from the
/// DESIGN.md table: `sync::Mutex mu{lock_rank::Rank::inflight};`.
class ISAAC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(lock_rank::Rank rank) noexcept : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ISAAC_ACQUIRE() {
#if ISAAC_LOCK_RANK_CHECKS
    lock_rank::on_acquire(rank_);
#endif
    mu_.lock();
  }

  // Releases pop the rank *before* freeing the native mutex: once it is
  // free, a waiter may destroy this object (a background task's last unlock
  // in core::Context lets ~Context proceed), so nothing of *this is read
  // after the native unlock.
  void unlock() ISAAC_RELEASE() {
#if ISAAC_LOCK_RANK_CHECKS
    lock_rank::on_release(rank_);
#endif
    mu_.unlock();
  }

  bool try_lock() ISAAC_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if ISAAC_LOCK_RANK_CHECKS
    lock_rank::on_try_acquire(rank_);
#endif
    return true;
  }

  lock_rank::Rank rank() const noexcept { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  lock_rank::Rank rank_ = lock_rank::Rank::leaf;
};

/// Annotated std::shared_mutex (the profile-cache shards, the failpoint
/// registry). Shared acquisitions rank-check too: a reader can block on a
/// writer, so shared holds participate in deadlock cycles all the same.
class ISAAC_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(lock_rank::Rank rank) noexcept : rank_(rank) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ISAAC_ACQUIRE() {
#if ISAAC_LOCK_RANK_CHECKS
    lock_rank::on_acquire(rank_);
#endif
    mu_.lock();
  }

  void unlock() ISAAC_RELEASE() {
#if ISAAC_LOCK_RANK_CHECKS
    lock_rank::on_release(rank_);
#endif
    mu_.unlock();
  }

  void lock_shared() ISAAC_ACQUIRE_SHARED() {
#if ISAAC_LOCK_RANK_CHECKS
    lock_rank::on_acquire(rank_);
#endif
    mu_.lock_shared();
  }

  void unlock_shared() ISAAC_RELEASE_SHARED() {
#if ISAAC_LOCK_RANK_CHECKS
    lock_rank::on_release(rank_);
#endif
    mu_.unlock_shared();
  }

  lock_rank::Rank rank() const noexcept { return rank_; }

 private:
  std::shared_mutex mu_;
  lock_rank::Rank rank_ = lock_rank::Rank::leaf;
};

/// std::lock_guard over sync::Mutex, visible to the analysis.
class ISAAC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ISAAC_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() ISAAC_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Shared (reader) scope over sync::SharedMutex.
class ISAAC_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ISAAC_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderMutexLock() ISAAC_RELEASE_GENERIC() { mu_.unlock_shared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Exclusive (writer) scope over sync::SharedMutex.
class ISAAC_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ISAAC_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~WriterMutexLock() ISAAC_RELEASE() { mu_.unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable over sync::Mutex. wait() requires the capability and
/// holds it (from the analysis's view) across the call; the rank detector is
/// told the truth — the mutex leaves the held stack for the wait's duration.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) ISAAC_REQUIRES(mu) {
#if ISAAC_LOCK_RANK_CHECKS
    lock_rank::on_wait_release(mu.rank_);
#endif
    std::unique_lock<std::mutex> ul(mu.mu_, std::adopt_lock);
    cv_.wait(ul);
    ul.release();  // the native mutex stays locked; ownership returns to mu
#if ISAAC_LOCK_RANK_CHECKS
    lock_rank::on_wait_reacquire(mu.rank_);
#endif
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout)
      ISAAC_REQUIRES(mu) {
#if ISAAC_LOCK_RANK_CHECKS
    lock_rank::on_wait_release(mu.rank_);
#endif
    std::unique_lock<std::mutex> ul(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(ul, timeout);
    ul.release();
#if ISAAC_LOCK_RANK_CHECKS
    lock_rank::on_wait_reacquire(mu.rank_);
#endif
    return status;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace isaac::sync
