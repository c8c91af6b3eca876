#ifndef HERMES_COMMON_THREAD_ANNOTATIONS_H_
#define HERMES_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#ifdef HERMES_LOCK_PROFILING
#include <atomic>
#include <cstdint>

#include "common/histogram.h"
#endif

#include "common/lock_order.h"

/// Clang thread-safety-analysis annotations plus an annotated Mutex /
/// MutexLock / CondVar wrapper used by every shared-state class in the
/// repo (LockManager, WriteAheadLog, MessageBus, ...).
///
/// Under clang the macros expand to the analysis attributes and the build
/// adds -Wthread-safety -Werror=thread-safety (see the top-level
/// CMakeLists.txt), so locking-discipline violations are compile errors.
/// Under other compilers they expand to nothing and the wrappers are a
/// zero-cost veneer over <mutex>.
///
/// Style (mirrors the capability-based names in the clang docs):
///   Mutex mu_;
///   std::deque<Task> tasks_ GUARDED_BY(mu_);
///   void Drain() EXCLUDES(mu_);            // takes mu_ itself
///   void DrainLocked() REQUIRES(mu_);      // caller already holds mu_

#if defined(__clang__)
#define HERMES_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define HERMES_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op outside clang
#endif

/// Marks a class as a lockable capability ("mutex" in diagnostics).
#define CAPABILITY(x) HERMES_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Marks an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define SCOPED_CAPABILITY HERMES_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Data member is protected by the given capability.
#define GUARDED_BY(x) HERMES_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Pointer member whose pointee is protected by the given capability.
#define PT_GUARDED_BY(x) HERMES_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock prevention).
#define ACQUIRED_BEFORE(...) \
  HERMES_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  HERMES_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

/// Function requires the capability to be held (exclusively / shared) on
/// entry and does not release it.
#define REQUIRES(...) \
  HERMES_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  HERMES_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and holds it past return.
#define ACQUIRE(...) \
  HERMES_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  HERMES_THREAD_ANNOTATION_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (held on entry).
#define RELEASE(...) \
  HERMES_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  HERMES_THREAD_ANNOTATION_ATTRIBUTE(release_shared_capability(__VA_ARGS__))

/// Function must NOT be called while holding the capability (it acquires
/// it itself; prevents self-deadlock on non-recursive mutexes).
#define EXCLUDES(...) \
  HERMES_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held.
#define ASSERT_CAPABILITY(x) \
  HERMES_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

/// Function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) HERMES_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Escape hatch: disables analysis for one function (used for move
/// constructors and other single-threaded-by-contract code).
#define NO_THREAD_SAFETY_ANALYSIS \
  HERMES_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

namespace hermes {

/// Annotated std::mutex. Lock()/Unlock() carry the acquire / release
/// attributes. CondVar waits on the underlying std::mutex
/// directly and runs the same validator/profiler hooks around the wait.
///
/// Shared-state mutexes are constructed with a name and a rank from the
/// lock_order table (common/lock_order.h) mirroring DESIGN.md §6's
/// global acquisition order. Under HERMES_DEBUG_LOCK_ORDER every
/// acquisition is validated against the per-thread held-lock stack and
/// the global acquired-before graph; otherwise the hooks compile to
/// empty inlines and only the two identity fields remain.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const char* name, int rank) : name_(name), rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    lock_order::OnAcquire(this, name_, rank_);
#ifdef HERMES_LOCK_PROFILING
    lock_order::LockStats* s = ProfileRow();
    if (s != nullptr) {
      // try_lock-first: an uncontended acquire pays one CAS and no clock
      // reads beyond the hold stamp; only a miss times the blocking wait.
      if (!mu_.try_lock()) {
        const std::uint64_t t0 = SteadyNowMicros();
        mu_.lock();
        lock_order::ProfileContention(s, SteadyNowMicros() - t0);
      }
      lock_order::ProfileAcquired(s, this);
      return;
    }
#endif
    mu_.lock();
  }
  void Unlock() RELEASE() {
    mu_.unlock();
    lock_order::OnRelease(this);
#ifdef HERMES_LOCK_PROFILING
    lock_order::ProfileReleased(this);
#endif
  }

  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
  friend class CondVar;

  // A CondVar wait releases and reacquires mu_ inside
  // std::condition_variable. These run the hooks Unlock() and Lock()
  // would run, so the validator's held stack and the profiler's
  // acquisition count and hold times read as if the wait had unlocked
  // and relocked through them. The reacquire is not timed as contention.
  void ReleasedForWait() {
    lock_order::OnRelease(this);
#ifdef HERMES_LOCK_PROFILING
    lock_order::ProfileReleased(this);
#endif
  }
  void ReacquiredAfterWait() {
    lock_order::OnAcquire(this, name_, rank_);
#ifdef HERMES_LOCK_PROFILING
    lock_order::ProfileAcquired(ProfileRow(), this);
#endif
  }

#ifdef HERMES_LOCK_PROFILING
  lock_order::LockStats* ProfileRow() {
    lock_order::LockStats* s = pstats_.load(std::memory_order_acquire);
    return s != nullptr ? s : lock_order::ProfileStats(&pstats_, name_, rank_);
  }
  std::atomic<lock_order::LockStats*> pstats_{nullptr};
#endif
  std::mutex mu_;
  const char* name_ = "<unranked>";
  int rank_ = lock_order::kRankUnranked;
};

/// RAII lock over Mutex, visible to the analysis as a scoped capability.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Annotated reader/writer lock with writer preference: once a writer is
/// waiting, new readers queue behind it, so a migration or topology
/// update cannot be starved by a continuous read stream (glibc's
/// std::shared_mutex is reader-preferring, which is exactly the wrong
/// default for the cluster directory lock — see DESIGN.md §6).
///
/// Participates in the lock-order validator like Mutex: both Lock() and
/// LockShared() run the same OnAcquire rank check, because a shared hold
/// still forbids acquiring lower-ranked mutexes (the inversion deadlock
/// needs only one side to block).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex(const char* name, int rank) : name_(name), rank_(rank) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
    lock_order::OnAcquire(this, name_, rank_);
#ifdef HERMES_LOCK_PROFILING
    lock_order::LockStats* s = ProfileRow();
#endif
    std::unique_lock<std::mutex> l(mu_);
    ++waiting_writers_;
#ifdef HERMES_LOCK_PROFILING
    // Contended iff the acquire predicate is false right now (checked
    // under the internal mutex, so the read is exact, not a race).
    const bool contended = writer_active_ || active_readers_ > 0;
    const std::uint64_t t0 = contended ? SteadyNowMicros() : 0;
#endif
    cv_writer_.wait(l, [&] { return !writer_active_ && active_readers_ == 0; });
    --waiting_writers_;
    writer_active_ = true;
#ifdef HERMES_LOCK_PROFILING
    if (s != nullptr && contended) {
      lock_order::ProfileContention(s, SteadyNowMicros() - t0);
    }
    lock_order::ProfileAcquired(s, this);
#endif
  }
  void Unlock() RELEASE() {
    {
      std::lock_guard<std::mutex> l(mu_);
      writer_active_ = false;
    }
    cv_writer_.notify_one();
    cv_reader_.notify_all();
    lock_order::OnRelease(this);
#ifdef HERMES_LOCK_PROFILING
    lock_order::ProfileReleased(this);
#endif
  }
  void LockShared() ACQUIRE_SHARED() {
    lock_order::OnAcquire(this, name_, rank_);
#ifdef HERMES_LOCK_PROFILING
    lock_order::LockStats* s = ProfileRow();
#endif
    std::unique_lock<std::mutex> l(mu_);
#ifdef HERMES_LOCK_PROFILING
    const bool contended = writer_active_ || waiting_writers_ > 0;
    const std::uint64_t t0 = contended ? SteadyNowMicros() : 0;
#endif
    cv_reader_.wait(l, [&] { return !writer_active_ && waiting_writers_ == 0; });
    ++active_readers_;
#ifdef HERMES_LOCK_PROFILING
    if (s != nullptr && contended) {
      lock_order::ProfileContention(s, SteadyNowMicros() - t0);
    }
    lock_order::ProfileAcquired(s, this);
#endif
  }
  void UnlockShared() RELEASE_SHARED() {
    bool last_reader;
    {
      std::lock_guard<std::mutex> l(mu_);
      last_reader = (--active_readers_ == 0);
    }
    if (last_reader) cv_writer_.notify_one();
    lock_order::OnRelease(this);
#ifdef HERMES_LOCK_PROFILING
    lock_order::ProfileReleased(this);
#endif
  }

  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
#ifdef HERMES_LOCK_PROFILING
  lock_order::LockStats* ProfileRow() {
    lock_order::LockStats* s = pstats_.load(std::memory_order_acquire);
    return s != nullptr ? s : lock_order::ProfileStats(&pstats_, name_, rank_);
  }
  std::atomic<lock_order::LockStats*> pstats_{nullptr};
#endif
  std::mutex mu_;
  std::condition_variable cv_reader_;
  std::condition_variable cv_writer_;
  int active_readers_ = 0;
  int waiting_writers_ = 0;
  bool writer_active_ = false;
  const char* name_;
  int rank_;
};

/// RAII shared (read) lock over SharedMutex. Per the clang thread-safety
/// docs a scoped_lockable destructor always uses the generic RELEASE()
/// attribute; the analysis pairs it with the shared acquire.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderMutexLock() RELEASE() { mu_->UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII exclusive (write) lock over SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Condition variable bound to the annotated Mutex. Wait/WaitUntil
/// REQUIRE the mutex: it is held on entry and on return (released and
/// reacquired internally, which the analysis cannot see — the REQUIRES
/// contract is the sound summary of that behaviour). Predicate waits are
/// deliberately not offered: guarded-state predicates belong in an
/// explicit `while` loop inside the annotated caller, where the analysis
/// can check them.
///
/// A plain std::condition_variable waits on the Mutex's own std::mutex,
/// adopted for the duration of the wait; condition_variable_any would add
/// an internal mutex that every wake hands off through a second time.
/// Notify after releasing the mutex (the CondVar must outlive the
/// notify): a waiter woken under the lock blocks again at once on the
/// mutex its waker still holds. tools/critical_section_audit.py flags a
/// notify inside a lock scope.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    mu->ReleasedForWait();
    cv_.wait(lock);
    mu->ReacquiredAfterWait();
    lock.release();  // the caller still holds the mutex
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      Mutex* mu, const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    mu->ReleasedForWait();
    const std::cv_status status = cv_.wait_until(lock, deadline);
    mu->ReacquiredAfterWait();
    lock.release();  // the caller still holds the mutex
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace hermes

#endif  // HERMES_COMMON_THREAD_ANNOTATIONS_H_
