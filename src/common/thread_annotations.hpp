// Clang thread-safety-analysis shim (-Wthread-safety).
//
// The BFTCUP_* macros expand to Clang's capability attributes when the
// compiler supports them and to nothing elsewhere, so g++ builds are
// unaffected while the CI lint job (clang++ with -Wthread-safety
// -Werror=thread-safety) machine-checks every lock discipline. libstdc++'s
// std::mutex carries no capability annotations, so annotated code uses the
// Mutex / MutexLock wrappers below — identical cost, analyzable.
//
// tools/check_thread_safety.py compiles tests/lint_corpus/
// thread_safety_positive.cpp (must build) and thread_safety_negative.cpp
// (must NOT build) against this header, so the analysis itself is
// regression-tested.
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define BFTCUP_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef BFTCUP_THREAD_ANNOTATION
#define BFTCUP_THREAD_ANNOTATION(x)
#endif

#define BFTCUP_CAPABILITY(x) BFTCUP_THREAD_ANNOTATION(capability(x))
#define BFTCUP_SCOPED_CAPABILITY BFTCUP_THREAD_ANNOTATION(scoped_lockable)
#define BFTCUP_GUARDED_BY(x) BFTCUP_THREAD_ANNOTATION(guarded_by(x))
#define BFTCUP_PT_GUARDED_BY(x) BFTCUP_THREAD_ANNOTATION(pt_guarded_by(x))
#define BFTCUP_REQUIRES(...) \
  BFTCUP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define BFTCUP_EXCLUDES(...) \
  BFTCUP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define BFTCUP_ACQUIRE(...) \
  BFTCUP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define BFTCUP_RELEASE(...) \
  BFTCUP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define BFTCUP_NO_THREAD_SAFETY_ANALYSIS \
  BFTCUP_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Documentation-only marker: the tagged type is deliberately *not*
/// mutex-protected because it is thread-confined — owned by exactly one
/// Simulator / RunContext / pool worker and never shared across threads
/// (SharedEvalCache, SignCache). The TSan CI preset is the dynamic check of
/// this claim; README "Static analysis" records the audit. Greppable on
/// purpose.
#define BFTCUP_THREAD_CONFINED

namespace bftcup {

/// std::mutex wearing Clang's `capability` attribute, so GUARDED_BY
/// members and REQUIRES/EXCLUDES contracts are enforced at compile time.
class BFTCUP_CAPABILITY("mutex") Mutex {
 public:
  void lock() BFTCUP_ACQUIRE() { mutex_.lock(); }
  void unlock() BFTCUP_RELEASE() { mutex_.unlock(); }

 private:
  std::mutex mutex_;
};

/// RAII lock over Mutex (the annotated std::lock_guard analog).
class BFTCUP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) BFTCUP_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() BFTCUP_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace bftcup
