#ifndef ADAMOVE_COMMON_MUTEX_H_
#define ADAMOVE_COMMON_MUTEX_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/annotations.h"
#include "common/check.h"

namespace adamove::common {

/// The repo's only mutex. A thin wrapper over std::mutex that carries the
/// Clang thread-safety capability annotations (see annotations.h), so every
/// `ADAMOVE_GUARDED_BY(mu_)` field and `ADAMOVE_REQUIRES(mu_)` helper is
/// checked at compile time under `ADAMOVE_ANALYZE=ON`. Raw std::mutex /
/// std::lock_guard / std::condition_variable outside this header are
/// rejected by `scripts/lint.sh`.
///
/// Beyond the static contract, Lock() carries one dynamic check the static
/// analysis cannot make across translation units: re-entrant locking by the
/// owning thread (UB on std::mutex — a silent deadlock in practice) aborts
/// deterministically with a diagnostic instead. Cost: two relaxed atomic
/// stores per critical section and a relaxed load per Lock().
class ADAMOVE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ADAMOVE_ACQUIRE() {
    if (owner_.load(std::memory_order_relaxed) == std::this_thread::get_id()) {
      FatalCheckFailure(__FILE__, __LINE__,
                        "Mutex::Lock: re-entrant locking — the calling "
                        "thread already holds this Mutex (would deadlock)");
    }
    mu_.lock();
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }

  void Unlock() ADAMOVE_RELEASE() {
    owner_.store(std::thread::id{}, std::memory_order_relaxed);
    mu_.unlock();
  }

  /// Non-blocking acquire; true iff the lock was taken.
  bool TryLock() ADAMOVE_TRY_ACQUIRE(true) {
    if (owner_.load(std::memory_order_relaxed) == std::this_thread::get_id()) {
      FatalCheckFailure(__FILE__, __LINE__,
                        "Mutex::TryLock: re-entrant locking — the calling "
                        "thread already holds this Mutex");
    }
    if (!mu_.try_lock()) return false;
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    return true;
  }

 private:
  friend class CondVar;

  std::mutex mu_;
  /// Current owner for the re-entry check; thread::id{} when unlocked.
  /// Relaxed is enough: a thread only compares against its *own* id, and
  /// its own prior store is always visible to itself.
  std::atomic<std::thread::id> owner_{};
};

/// RAII critical section — the only way application code holds a Mutex.
/// Declared as a scoped capability so the analysis tracks the lock for
/// exactly this object's lifetime.
class ADAMOVE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ADAMOVE_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() ADAMOVE_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to common::Mutex. Waits name the mutex they
/// release/re-acquire so the analysis can check the caller holds it
/// (`ADAMOVE_REQUIRES(mu)` on an argument is verified against the locks
/// held at the call site). Internally a std::condition_variable adopting
/// the wrapped std::mutex — no condition_variable_any overhead.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified, re-acquires. Spurious
  /// wakeups happen; callers loop on their predicate (or use the predicate
  /// overload below).
  void Wait(Mutex& mu) ADAMOVE_REQUIRES(mu) {
    std::unique_lock<std::mutex> native = Adopt(mu);
    cv_.wait(native);
    Restore(mu, native);
  }

  /// Loops `Wait` until `pred()` holds. The predicate runs with `mu` held.
  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) ADAMOVE_REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  /// Timed wait; std::cv_status::timeout iff `deadline` passed without a
  /// notification (the mutex is re-acquired either way).
  std::cv_status WaitUntil(Mutex& mu,
                           std::chrono::steady_clock::time_point deadline)
      ADAMOVE_REQUIRES(mu) {
    std::unique_lock<std::mutex> native = Adopt(mu);
    const std::cv_status status = cv_.wait_until(native, deadline);
    Restore(mu, native);
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  /// Hands the already-held native mutex to a unique_lock without
  /// re-locking, clearing the owner mark for the duration of the wait (the
  /// wait releases the mutex; another thread may legitimately own it).
  static std::unique_lock<std::mutex> Adopt(Mutex& mu) {
    mu.owner_.store(std::thread::id{}, std::memory_order_relaxed);
    return std::unique_lock<std::mutex>(mu.mu_, std::adopt_lock);
  }

  /// Re-marks the caller as owner and detaches the unique_lock so it does
  /// not unlock on destruction (the caller's MutexLock still owns the
  /// critical section).
  static void Restore(Mutex& mu, std::unique_lock<std::mutex>& native) {
    mu.owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    native.release();
  }

  std::condition_variable cv_;
};

}  // namespace adamove::common

#endif  // ADAMOVE_COMMON_MUTEX_H_
