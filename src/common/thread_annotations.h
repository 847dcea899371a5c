#ifndef FAIRCLIQUE_COMMON_THREAD_ANNOTATIONS_H_
#define FAIRCLIQUE_COMMON_THREAD_ANNOTATIONS_H_

/// Clang Thread Safety Analysis support: the annotation macro set plus
/// zero-overhead annotated facades (fc::Mutex, fc::MutexLock,
/// fc::CondVar) over the std synchronization types.
///
/// Under clang with -Wthread-safety the annotations make the locking
/// discipline a compile-time proof: every read/write of a GUARDED_BY member
/// must happen with its capability held on every path that compiles, and a
/// REQUIRES contract on a helper is checked at every call site. Under any
/// other compiler (the analysis is clang-only) every macro expands to
/// nothing and the wrappers inline to the exact std calls — zero overhead,
/// zero behavior change.
///
/// Repo rule (enforced by tools/lint/fclint.py): raw std::mutex /
/// std::shared_mutex / std::condition_variable / std::lock_guard /
/// std::unique_lock must not appear in src/ outside this header. Lock
/// through fc:: so new state cannot creep in unannotated.
///
/// Known analysis limitations this codebase designs around:
///  - Lambdas do not inherit the enclosing capability set, so condition
///    variables are waited in explicit `while (!pred) cv.Wait(lock);` loops
///    rather than the predicate-lambda overload.
///  - A REQUIRES on a parameter of incomplete type cannot name its members;
///    such helpers call `arg.mu.AssertHeld()` in the body instead.
///  - Functions that unlock/relock a caller-owned lock mid-body carry
///    NO_THREAD_SAFETY_ANALYSIS with a comment explaining the hand-off.

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define FC_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define FC_THREAD_ANNOTATION__(x)  // no-op on gcc/msvc
#endif

#ifndef CAPABILITY
#define CAPABILITY(x) FC_THREAD_ANNOTATION__(capability(x))
#endif

#ifndef SCOPED_CAPABILITY
#define SCOPED_CAPABILITY FC_THREAD_ANNOTATION__(scoped_lockable)
#endif

#ifndef GUARDED_BY
#define GUARDED_BY(x) FC_THREAD_ANNOTATION__(guarded_by(x))
#endif

#ifndef PT_GUARDED_BY
#define PT_GUARDED_BY(x) FC_THREAD_ANNOTATION__(pt_guarded_by(x))
#endif

#ifndef ACQUIRED_BEFORE
#define ACQUIRED_BEFORE(...) FC_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#endif

#ifndef ACQUIRED_AFTER
#define ACQUIRED_AFTER(...) FC_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))
#endif

#ifndef REQUIRES
#define REQUIRES(...) FC_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#endif

#ifndef REQUIRES_SHARED
#define REQUIRES_SHARED(...) \
  FC_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
#endif

#ifndef ACQUIRE
#define ACQUIRE(...) FC_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#endif

#ifndef ACQUIRE_SHARED
#define ACQUIRE_SHARED(...) \
  FC_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#endif

#ifndef RELEASE
#define RELEASE(...) FC_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#endif

#ifndef RELEASE_SHARED
#define RELEASE_SHARED(...) \
  FC_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#endif

#ifndef RELEASE_GENERIC
#define RELEASE_GENERIC(...) \
  FC_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))
#endif

#ifndef TRY_ACQUIRE
#define TRY_ACQUIRE(...) FC_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#endif

#ifndef TRY_ACQUIRE_SHARED
#define TRY_ACQUIRE_SHARED(...) \
  FC_THREAD_ANNOTATION__(try_acquire_shared_capability(__VA_ARGS__))
#endif

#ifndef EXCLUDES
#define EXCLUDES(...) FC_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#endif

#ifndef ASSERT_CAPABILITY
#define ASSERT_CAPABILITY(x) FC_THREAD_ANNOTATION__(assert_capability(x))
#endif

#ifndef ASSERT_SHARED_CAPABILITY
#define ASSERT_SHARED_CAPABILITY(x) \
  FC_THREAD_ANNOTATION__(assert_shared_capability(x))
#endif

#ifndef RETURN_CAPABILITY
#define RETURN_CAPABILITY(x) FC_THREAD_ANNOTATION__(lock_returned(x))
#endif

#ifndef NO_THREAD_SAFETY_ANALYSIS
#define NO_THREAD_SAFETY_ANALYSIS FC_THREAD_ANNOTATION__(no_thread_safety_analysis)
#endif

namespace fc {

class CondVar;
class MutexLock;

/// Annotated exclusive mutex. Same size, layout, and codegen as the
/// std::mutex it wraps; every method inlines to the std call.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Runtime no-op that tells the analysis this thread holds the mutex.
  /// Used where the proof cannot be expressed in the type system (helpers
  /// taking a forward-declared owner type, callbacks invoked under a lock).
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII scoped lock over fc::Mutex — the one way locks are taken in this
/// codebase. Relockable (clang's documented scoped-capability pattern):
/// Unlock()/Lock() may bracket a region that must run unlocked, and the
/// destructor releases only if currently held.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() RELEASE() {
    // Exactly what the defaulted destructor would do; spelled out so the
    // RELEASE annotation sits on an ordinary definition.
    if (lock_.owns_lock()) lock_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily drop the lock (e.g. around blocking IO); pair with Lock().
  void Unlock() RELEASE() { lock_.unlock(); }
  void Lock() ACQUIRE() { lock_.lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to fc::MutexLock. Deliberately has no
/// predicate-lambda overload: the analysis cannot see capabilities inside a
/// lambda body, so callers write the explicit
/// `while (!cond) cv.Wait(lock);` loop, which the analysis checks.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `lock`, sleeps, and reacquires before returning.
  /// The capability is held again on return, which is what the (unchanged)
  /// annotation state says — the transient release is invisible to callers.
  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  template <class Rep, class Period>
  std::cv_status WaitFor(MutexLock& lock,
                         const std::chrono::duration<Rep, Period>& rel_time) {
    return cv_.wait_for(lock.lock_, rel_time);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace fc

#endif  // FAIRCLIQUE_COMMON_THREAD_ANNOTATIONS_H_
