// Compile-time concurrency discipline: Clang Thread Safety Analysis macros
// and annotated lock primitives (DESIGN.md §7.4).
//
// The TG_* macros expand to Clang's thread-safety attributes ("C/C++ Thread
// Safety Analysis", Hutchins et al.) when the compiler understands them and
// to nothing otherwise, so GCC builds compile the exact same code. Under
// Clang with -Wthread-safety (CMake option TG_THREAD_SAFETY, on by default
// when supported) the compiler proves, on every path, that each TG_GUARDED_BY
// member is only touched with its mutex held and that each TG_REQUIRES
// helper is only called under the right lock. tests/tsa_fixtures/ holds
// negative-compile fixtures proving the annotations actually bite.
//
// How to annotate new code:
//   - use tailguard::Mutex / MutexLock / CondVar instead of the std types;
//   - tag every member a mutex protects:      int depth_ TG_GUARDED_BY(mu_);
//   - tag helpers called under the lock:      void f() TG_REQUIRES(mu_);
//   - tag entry points that take the lock:    void g() TG_EXCLUDES(mu_);
//   - escape hatches (TG_NO_THREAD_SAFETY_ANALYSIS, lint allows) need a
//     why-comment — the tg_lint guarded-member rule enforces coverage in the
//     concurrent directories (src/runtime, src/net, src/common, src/shard).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define TG_HAS_TSA_ATTRIBUTE(x) __has_attribute(x)
#else
#define TG_HAS_TSA_ATTRIBUTE(x) 0
#endif

#if TG_HAS_TSA_ATTRIBUTE(capability)
#define TG_TSA_ATTR(x) __attribute__((x))
#else
#define TG_TSA_ATTR(x)  // expands to nothing outside Clang
#endif

/// Marks a type as a lockable capability ("mutex" in diagnostics).
#define TG_CAPABILITY(x) TG_TSA_ATTR(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define TG_SCOPED_CAPABILITY TG_TSA_ATTR(scoped_lockable)

/// Member may only be read or written while holding `x`.
#define TG_GUARDED_BY(x) TG_TSA_ATTR(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x` (the pointer itself
/// may be read freely).
#define TG_PT_GUARDED_BY(x) TG_TSA_ATTR(pt_guarded_by(x))

/// Function may only be called while already holding the listed mutexes.
#define TG_REQUIRES(...) TG_TSA_ATTR(requires_capability(__VA_ARGS__))

/// Shared (reader) flavour of TG_REQUIRES.
#define TG_REQUIRES_SHARED(...) \
  TG_TSA_ATTR(requires_shared_capability(__VA_ARGS__))

/// Function acquires the listed mutexes and holds them on return.
#define TG_ACQUIRE(...) TG_TSA_ATTR(acquire_capability(__VA_ARGS__))

/// Function releases the listed mutexes (they must be held on entry).
#define TG_RELEASE(...) TG_TSA_ATTR(release_capability(__VA_ARGS__))

/// Function acquires the mutex iff it returns `result` (e.g. true).
#define TG_TRY_ACQUIRE(...) TG_TSA_ATTR(try_acquire_capability(__VA_ARGS__))

/// Function may not be called while holding the listed mutexes (it takes
/// them itself — calling with them held would self-deadlock).
#define TG_EXCLUDES(...) TG_TSA_ATTR(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the calling thread holds the capability.
#define TG_ASSERT_CAPABILITY(x) TG_TSA_ATTR(assert_capability(x))

/// Function returns a reference to the mutex guarding its result.
#define TG_RETURN_CAPABILITY(x) TG_TSA_ATTR(lock_returned(x))

/// Opts a function out of the analysis entirely. Every use must carry a
/// comment explaining why the protocol cannot be expressed (e.g. locks
/// picked at run time from a container). Nothing in the tree needs it.
#define TG_NO_THREAD_SAFETY_ANALYSIS TG_TSA_ATTR(no_thread_safety_analysis)

namespace tailguard {

/// std::mutex with the capability attribute, so TG_GUARDED_BY(mu_) members
/// and TG_REQUIRES(mu_) helpers are checked against it. Satisfies
/// BasicLockable/Lockable, so std::unique_lock<Mutex> and CondVar work on it
/// (std headers are system headers: such uses compile fine but are simply
/// not analyzed — prefer MutexLock, which is).
class TG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // The annotated primitive is the one place naked lock()/unlock() calls are
  // legitimate: everything else goes through MutexLock.
  void lock() TG_ACQUIRE() { mu_.lock(); }          // tg-lint: allow(lock-discipline)
  void unlock() TG_RELEASE() { mu_.unlock(); }      // tg-lint: allow(lock-discipline)
  bool try_lock() TG_TRY_ACQUIRE(true) { return mu_.try_lock(); }  // tg-lint: allow(lock-discipline)

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII scoped lock over Mutex — the annotated std::lock_guard equivalent.
/// TSA tracks the capability from construction to destruction.
class TG_SCOPED_CAPABILITY MutexLock {
 public:
  // RAII boundary: the one lock()/unlock() pair everything else inherits.
  explicit MutexLock(Mutex& mu) TG_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }  // tg-lint: allow(lock-discipline)
  ~MutexLock() TG_RELEASE() { mu_.unlock(); }  // tg-lint: allow(lock-discipline)

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable that waits directly on a tailguard::Mutex (which is a
/// BasicLockable), keeping the capability annotations intact across the
/// wait: TSA treats the mutex as continuously held, which matches the
/// caller-visible contract (wait() reacquires before returning).
///
/// Note: TSA analyzes lambdas as separate unannotated functions, so the
/// std::condition_variable predicate-wait idiom does not survive
/// annotation. Write the loop explicitly:
///
///   MutexLock lock(mu_);
///   while (!ready_locked()) cv_.wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires before returning.
  void wait(Mutex& mu) TG_REQUIRES(mu) { cv_.wait(mu); }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      TG_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mu,
                          const std::chrono::duration<Rep, Period>& rel_time)
      TG_REQUIRES(mu) {
    return cv_.wait_for(mu, rel_time);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  // _any because it waits on Mutex itself rather than a unique_lock of the
  // wrapped std::mutex; the mutex stays the single source of truth for TSA.
  std::condition_variable_any cv_;
};

}  // namespace tailguard
