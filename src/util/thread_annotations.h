// Clang thread-safety-analysis macros (no-ops on other compilers).
//
// Annotate shared state with CM_GUARDED_BY(mu) and lock-taking APIs with
// CM_ACQUIRE/CM_RELEASE so `-Wthread-safety` turns missed-lock bugs into
// compile errors. The macros follow the Abseil/RocksDB naming scheme; see
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html for semantics.
// Pair them with crossmodal::Mutex (util/mutex.h), whose type carries the
// capability attribute the analysis needs (std::mutex in libstdc++ does not).

#ifndef CROSSMODAL_UTIL_THREAD_ANNOTATIONS_H_
#define CROSSMODAL_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#define CM_THREAD_ANNOTATION_IMPL(x) __attribute__((x))
#else
#define CM_THREAD_ANNOTATION_IMPL(x)  // no-op
#endif

/// Marks a type as a lockable capability ("mutex").
#define CM_CAPABILITY(x) CM_THREAD_ANNOTATION_IMPL(capability(x))

/// Marks an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define CM_SCOPED_CAPABILITY CM_THREAD_ANNOTATION_IMPL(scoped_lockable)

/// Declares that a data member is protected by the given capability.
#define CM_GUARDED_BY(x) CM_THREAD_ANNOTATION_IMPL(guarded_by(x))

/// Declares that the pointed-to data is protected by the given capability.
#define CM_PT_GUARDED_BY(x) CM_THREAD_ANNOTATION_IMPL(pt_guarded_by(x))

/// Declares that a function acquires the capability and holds it on return.
#define CM_ACQUIRE(...) \
  CM_THREAD_ANNOTATION_IMPL(acquire_capability(__VA_ARGS__))

/// Declares that a function releases the capability.
#define CM_RELEASE(...) \
  CM_THREAD_ANNOTATION_IMPL(release_capability(__VA_ARGS__))

/// Declares that a function attempts to acquire the capability, returning
/// `result` on success.
#define CM_TRY_ACQUIRE(result, ...) \
  CM_THREAD_ANNOTATION_IMPL(try_acquire_capability(result, __VA_ARGS__))

/// Declares that the caller must hold the capability exclusively.
#define CM_EXCLUSIVE_LOCKS_REQUIRED(...) \
  CM_THREAD_ANNOTATION_IMPL(requires_capability(__VA_ARGS__))

/// Short-form alias of CM_EXCLUSIVE_LOCKS_REQUIRED (Abseil's modern
/// spelling); cmcheck's guard-coverage rule accepts either on a method that
/// writes CM_GUARDED_BY state without taking the lock itself.
#define CM_REQUIRES(...) \
  CM_THREAD_ANNOTATION_IMPL(requires_capability(__VA_ARGS__))

/// Declares that the caller must NOT hold the capability (deadlock guard).
#define CM_LOCKS_EXCLUDED(...) \
  CM_THREAD_ANNOTATION_IMPL(locks_excluded(__VA_ARGS__))

/// Declares that a function returns a reference to the capability.
#define CM_RETURN_CAPABILITY(x) CM_THREAD_ANNOTATION_IMPL(lock_returned(x))

/// Opts a function out of the analysis (e.g. init/teardown paths).
#define CM_NO_THREAD_SAFETY_ANALYSIS \
  CM_THREAD_ANNOTATION_IMPL(no_thread_safety_analysis)

#endif  // CROSSMODAL_UTIL_THREAD_ANNOTATIONS_H_
