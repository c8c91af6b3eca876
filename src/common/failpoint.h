#ifndef HERMES_COMMON_FAILPOINT_H_
#define HERMES_COMMON_FAILPOINT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/lock_order.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"

/// Deterministic fault injection for the storage stack (DESIGN.md §9).
///
/// A failpoint is a named site at an I/O boundary (WAL append, snapshot
/// write, checkpoint window) that tests can arm with a deterministic
/// activation policy. When a site fires, the caller turns that into the
/// failure mode appropriate for the site: a clean Status::IOError, a torn
/// write (a prefix of the bytes reaches the file), or a simulated crash.
///
/// Crash semantics: a crash-mode failpoint *latches* the registry into a
/// crashed state. While latched, every evaluation at every site fires —
/// the process is "dead", so all subsequent I/O fails — until the torture
/// harness abandons the live store, calls Reset(), and re-opens from
/// disk. This guarantees that nothing can be appended after a torn tail,
/// which is what makes prefix-consistent recovery provable.
///
/// The whole subsystem compiles to zero-cost no-ops unless
/// HERMES_FAILPOINTS is defined (the asan-ubsan and tsan presets turn it
/// on, mirroring HERMES_DEBUG_LOCK_ORDER). Release builds must keep it
/// off — enforced by tools/lint.py. Sites outside src/storage and
/// src/graphdb are also a lint finding: failpoints belong at storage
/// I/O boundaries, not in partitioning or simulation logic.
namespace hermes {

/// True when the registry is compiled in; tests use this to GTEST_SKIP
/// torture cases under the default (uninstrumented) preset.
#ifdef HERMES_FAILPOINTS
inline constexpr bool kFailpointsEnabled = true;
#else
inline constexpr bool kFailpointsEnabled = false;
#endif

/// Activation policy for an armed failpoint. All three are deterministic
/// given the config (probability draws come from a private seeded Rng).
struct FailpointConfig {
  enum class Policy : std::uint8_t {
    kNthHit,       // fire exactly once, on the n-th evaluation (1-based)
    kEveryK,       // fire on every k-th evaluation (n = k)
    kProbability,  // fire with probability `probability`, seeded by `seed`
  };
  Policy policy = Policy::kNthHit;
  std::uint64_t n = 1;
  double probability = 0.0;
  std::uint64_t seed = 0;
  // Site-specific argument, e.g. how many bytes of a frame a torn write
  // lets through before the simulated power loss. 0 = site default.
  std::uint64_t arg = 0;
};

/// Result of evaluating one site: whether it fires, and the armed `arg`.
struct FailpointHit {
  bool fired = false;
  std::uint64_t arg = 0;
};

/// Process-wide registry of failpoint sites. Sites self-register on
/// first evaluation, so hit counts are observable even for sites that
/// were never armed. Evaluation also increments `failpoint.<name>.hits`
/// and (when fired) `failpoint.<name>.fired` in the global
/// MetricsRegistry; the Counter pointers are cached per site, so the
/// metrics mutex (rank kRankMetrics) is only taken on a site's first
/// evaluation — legal because mu_ holds the lower rank kRankFailpoint.
///
/// Thread-safe. mu_ may be acquired while holding any storage-stack
/// mutex (DurableStore, WAL — both ranked below kRankFailpoint in
/// common/lock_order.h).
class FailpointRegistry {
 public:
  /// The process-wide registry every HERMES_FAILPOINT_* macro consults.
  static FailpointRegistry& Global();

  /// Arms `name` with `config`, resetting the site's evaluation count so
  /// nth-hit policies count from the moment of arming.
  void Arm(const std::string& name, const FailpointConfig& config)
      EXCLUDES(mu_);

  /// Disarms `name`; evaluations keep being counted.
  void Disarm(const std::string& name) EXCLUDES(mu_);

  /// Disarms every site, clears all counts, and releases the crash
  /// latch. The torture harness calls this before re-opening the store
  /// (the "new process" after a crash has no injected faults).
  void Reset() EXCLUDES(mu_);

  /// Evaluates the site: counts the hit and decides whether it fires.
  /// While the crash latch is set, every site fires unconditionally.
  FailpointHit Evaluate(const char* name) EXCLUDES(mu_);

  /// Sets the crash latch (see class comment).
  void LatchCrash(const char* name) EXCLUDES(mu_);
  bool crashed() const EXCLUDES(mu_);

  /// Test hooks: lifetime evaluation / fire counts for one site.
  std::uint64_t Evaluations(const std::string& name) const EXCLUDES(mu_);
  std::uint64_t FiredCount(const std::string& name) const EXCLUDES(mu_);

  /// Power-loss model for directory entries (DESIGN.md §9). The storage
  /// layer records how to undo each file or directory it creates and
  /// each rename target it replaces in `dir`, until an fsync of `dir`
  /// forgets them.
  /// The `wal.os_buffer.drop` power loss reverts every pending entry,
  /// newest first. A plain crash reverts nothing, and Reset() forgets
  /// them: the restart it models is the process's, not the machine's.
  void RecordUnsyncedEntry(const std::string& dir, std::function<void()> undo)
      EXCLUDES(mu_);
  void ForgetUnsyncedEntries(const std::string& dir) EXCLUDES(mu_);
  void RevertUnsyncedEntries() EXCLUDES(mu_);

 private:
  struct Site {
    FailpointConfig config;
    bool armed = false;
    std::uint64_t evals = 0;  // since last Arm/Reset
    std::uint64_t lifetime_evals = 0;
    std::uint64_t fired = 0;
    Rng rng{0};
    Counter* hits_counter = nullptr;   // failpoint.<name>.hits
    Counter* fired_counter = nullptr;  // failpoint.<name>.fired
  };

  Site* GetSite(const std::string& name) REQUIRES(mu_);

  mutable Mutex mu_{"failpoint_registry.mu", lock_order::kRankFailpoint};
  std::map<std::string, Site> sites_ GUARDED_BY(mu_);
  bool crashed_ GUARDED_BY(mu_) = false;
  /// (directory, undo) in the order the entries were made.
  std::vector<std::pair<std::string, std::function<void()>>> unsynced_
      GUARDED_BY(mu_);
};

}  // namespace hermes

/// Site macros. Only src/storage and src/graphdb may use these
/// (tools/lint.py); everything expands to nothing without
/// HERMES_FAILPOINTS.
///
///   HERMES_FAILPOINT_HIT(name)          -> FailpointHit (inspect .fired)
///   HERMES_FAILPOINT_IOERROR(name)      -> return Status::IOError if fired
///   HERMES_FAILPOINT_CRASH(name)        -> latch crash + return IOError
///   HERMES_FAILPOINT_LATCH_CRASH(name)  -> latch crash (no return)
#ifdef HERMES_FAILPOINTS

#define HERMES_FAILPOINT_HIT(name) \
  ::hermes::FailpointRegistry::Global().Evaluate(name)

#define HERMES_FAILPOINT_LATCH_CRASH(name) \
  ::hermes::FailpointRegistry::Global().LatchCrash(name)

#define HERMES_FAILPOINT_IOERROR(name)                              \
  do {                                                              \
    if (::hermes::FailpointRegistry::Global().Evaluate(name).fired) \
      return ::hermes::Status::IOError(std::string("failpoint: ") + \
                                       (name));                     \
  } while (0)

#define HERMES_FAILPOINT_CRASH(name)                                  \
  do {                                                                \
    if (::hermes::FailpointRegistry::Global().Evaluate(name).fired) { \
      ::hermes::FailpointRegistry::Global().LatchCrash(name);         \
      return ::hermes::Status::IOError(                               \
          std::string("failpoint crash: ") + (name));                 \
    }                                                                 \
  } while (0)

#else  // !HERMES_FAILPOINTS

#define HERMES_FAILPOINT_HIT(name) (::hermes::FailpointHit{})
#define HERMES_FAILPOINT_LATCH_CRASH(name) \
  do {                                     \
  } while (0)
#define HERMES_FAILPOINT_IOERROR(name) \
  do {                                 \
  } while (0)
#define HERMES_FAILPOINT_CRASH(name) \
  do {                               \
  } while (0)

#endif  // HERMES_FAILPOINTS

#endif  // HERMES_COMMON_FAILPOINT_H_
