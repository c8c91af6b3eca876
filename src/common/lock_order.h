#ifndef HERMES_COMMON_LOCK_ORDER_H_
#define HERMES_COMMON_LOCK_ORDER_H_

#include <cstddef>

#ifdef HERMES_LOCK_PROFILING
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#endif

/// Runtime lock-order validator (DESIGN.md §6 / §8).
///
/// Every shared-state Mutex in the repo is constructed with a name and a
/// rank from the table below; ranks mirror the declared global
/// acquisition order ("acquire in this order and never the reverse").
/// When HERMES_DEBUG_LOCK_ORDER is defined (the asan-ubsan and tsan
/// presets turn it on) each acquisition is checked against a per-thread
/// held-lock stack — a thread may only acquire a mutex whose rank is
/// strictly greater than every rank it already holds — and recorded into
/// a global acquired-before graph so that a rank-table bug that lets two
/// mutexes invert still gets caught by the observed-edge check. A
/// violation aborts the process after printing the current thread's
/// held-lock stack and, when the opposite edge was seen before, the
/// held-lock stack recorded at that first observation.
///
/// Without the flag every hook is an empty inline function and the
/// annotated Mutex stays the zero-cost veneer documented in
/// common/thread_annotations.h.
namespace hermes {
namespace lock_order {

/// Rank table — the global acquisition order, outermost first. Gaps are
/// deliberate so future mutexes slot in without renumbering. A thread
/// holding rank r may only acquire ranks strictly greater than r, so
/// equal-rank mutexes can never be held together (leaves are therefore
/// given distinct ranks even though they are never nested).
///
/// The cluster tier (ranks < 10000) is the sharded locking scheme from
/// DESIGN.md §6: one whole-migration mutex, the shared directory lock,
/// the topology mutex, and one mutex per partition shard. Per-partition
/// mutexes take rank kRankPartitionBase + partition id — distinct ranks
/// (and distinct names, "cluster.p<i>") so that acquiring two endpoint
/// partitions in partition-id order is exactly acquiring them in
/// strictly increasing rank order. The storage tier starts at 10000 so
/// any realistic partition count fits below it.
inline constexpr int kRankUnranked = -1;  // invisible to the validator
inline constexpr int kRankMigration = 5;  // HermesCluster::migration_mu_
inline constexpr int kRankCluster = 10;   // HermesCluster::dir_mu_ (shared)
inline constexpr int kRankClusterTopology = 20;  // HermesCluster::topo_mu_
/// Message-bus tier (DESIGN.md §12): a cluster thread may issue a bus
/// call while holding the directory/topology locks, so the bus's pending
/// table, the transport registry, and the per-endpoint inbox mutexes all
/// rank above kRankClusterTopology and below the partition servers.
/// Inbox mutexes take kRankMsgInboxBase + endpoint id ("msg.inbox.<i>");
/// InProcTransport rejects endpoint ids that would collide with
/// kRankPartitionBase.
inline constexpr int kRankMsgBus = 30;        // MessageBus::mu_
inline constexpr int kRankMsgTransport = 35;  // InProcTransport::mu_
inline constexpr int kRankMsgInboxBase = 40;  // msg.inbox.<i> -> 40 + i
inline constexpr int kRankPartitionBase = 100;   // server.p<i> -> 100 + i
inline constexpr int kRankDurableStore = 10000;  // DurableGraphStore::mu_
inline constexpr int kRankWal = 10010;           // WriteAheadLog::mu_
inline constexpr int kRankLockManager = 10030;   // LockManager::mu_ (leaf)
inline constexpr int kRankFailpoint = 10200;     // FailpointRegistry::mu_
inline constexpr int kRankMetrics = 10210;       // MetricsRegistry::mu_ (leaf)
inline constexpr int kRankLogging = 10230;       // g_log_mutex (ultimate leaf)

#ifdef HERMES_DEBUG_LOCK_ORDER

/// Called by Mutex immediately before a blocking Lock() (so a would-be
/// deadlock aborts with the stacks instead of hanging). Aborts on rank
/// inversion, self-relock, or an acquired-before edge whose reverse was
/// observed earlier.
void OnAcquire(const void* mu, const char* name, int rank);

/// Called by Mutex after unlocking. Removal is by address anywhere in
/// the stack: unlock order is not required to be LIFO.
void OnRelease(const void* mu);

/// Number of ranked locks the calling thread currently holds (test hook).
std::size_t HeldCount();

/// Drops every recorded acquired-before edge (test hook; the per-thread
/// stacks are left alone because live locks are still held).
void ResetGraphForTest();

#else  // !HERMES_DEBUG_LOCK_ORDER

inline void OnAcquire(const void*, const char*, int) {}
inline void OnRelease(const void*) {}
inline std::size_t HeldCount() { return 0; }
inline void ResetGraphForTest() {}

#endif  // HERMES_DEBUG_LOCK_ORDER

#ifdef HERMES_LOCK_PROFILING

/// Lock contention profiler (DESIGN.md §11). Every named, ranked Mutex
/// and SharedMutex records, per lock name:
///   - an acquisition counter and a contention counter (acquisitions
///     that had to wait because the lock was already held), both exact,
///   - a wait-time histogram (microseconds spent blocked on contended
///     acquires; every one is timed, so count(wait_us) == contention),
///   - a hold-time histogram (microseconds between acquire and release)
///     of one hold in kHoldSampleEvery, picked by a per-thread random
///     draw and recorded with that weight: its count and sum estimate
///     all holds, its min/max/quantiles range over the timed ones.
/// MetricsRegistry::Snapshot() merges these rows in as
/// lock.<name>.acquisitions / lock.<name>.contention counters and
/// lock.<name>.hold_us / lock.<name>.wait_us histograms, which is how
/// they reach HermesCluster::MetricsSnapshot() and the BENCH_*.json
/// reports. All recording is lock-free (the histograms are the registry's
/// own Histogram type, common/histogram.h); the one raw std::mutex guards
/// only first-use registration and snapshotting. The rows keep their own
/// name table rather than registering through MetricsRegistry, whose
/// mutex is itself profiled. Compiled out entirely unless
/// HERMES_LOCK_PROFILING.

/// One hold in this many is timed (a power of two); a constant, not an
/// option.
inline constexpr std::uint64_t kHoldSampleEvery = 16;

/// Opaque per-lock-name accumulator; obtained once per Mutex via
/// ProfileStats and cached in the Mutex's atomic slot.
struct LockStats;

/// Resolves (and on first use registers) the stats row for `name`,
/// caching it through `slot`. Returns nullptr for unnamed/unranked
/// mutexes ("<unranked>") so scratch locks stay invisible, mirroring the
/// validator's kRankUnranked behavior.
LockStats* ProfileStats(std::atomic<LockStats*>* slot, const char* name,
                        int rank);

/// Records one contended acquisition that waited `wait_us`.
void ProfileContention(LockStats* s, std::uint64_t wait_us);

/// Counts a successful acquisition of `mu` and, when this thread's draw
/// picks it, stamps the hold start; paired with ProfileReleased(mu).
void ProfileAcquired(LockStats* s, const void* mu);

/// Records the hold time for the acquisition stamped by the matching
/// ProfileAcquired on this thread. Returns at once when the thread has no
/// open stamp; a release with no matching stamp (an untimed hold, or a
/// lock handed between threads) is silently dropped.
void ProfileReleased(const void* mu);

struct LockProfileRow {
  std::string name;
  std::uint64_t acquisitions = 0;
  std::uint64_t contention = 0;
  Histogram::Summary hold;
  Histogram::Summary wait;
};

/// All registered locks, sorted by name. Rows with zero acquisitions are
/// skipped.
std::vector<LockProfileRow> ProfileSnapshot();

/// Zeroes every registered row (test/bench hook; registration survives).
void ProfileReset();

/// Test hook: while one is alive, every hold on every thread is timed
/// and recorded with weight 1, so a test can assert hold_us's exact
/// count and max. Process-wide because the hold under test may be on
/// another thread (the WAL's commit leader).
class TimeEveryHoldForTest {
 public:
  TimeEveryHoldForTest();
  ~TimeEveryHoldForTest();
  TimeEveryHoldForTest(const TimeEveryHoldForTest&) = delete;
  TimeEveryHoldForTest& operator=(const TimeEveryHoldForTest&) = delete;
};

#else  // !HERMES_LOCK_PROFILING

struct TimeEveryHoldForTest {
  TimeEveryHoldForTest() {}  // user-provided: no unused-variable warning
};

#endif  // HERMES_LOCK_PROFILING

}  // namespace lock_order
}  // namespace hermes

#endif  // HERMES_COMMON_LOCK_ORDER_H_
