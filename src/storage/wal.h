#ifndef HERMES_STORAGE_WAL_H_
#define HERMES_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "storage/fd_appender.h"

namespace hermes {

/// Logical operations recorded in the write-ahead log. Each entry is the
/// redo record for one mutation of a partition's GraphStore.
enum class WalOpType : std::uint8_t {
  kCreateNode = 1,
  kRemoveNode = 2,
  kSetNodeState = 3,
  kAddNodeWeight = 4,
  kAddEdge = 5,
  kRemoveEdge = 6,
  kSetNodeProperty = 7,
  kSetEdgeProperty = 8,
  kCheckpoint = 9,  // snapshot boundary: earlier entries are durable
};

/// Idempotency token of the mutation that produced a WAL entry: the
/// (client endpoint, request id) pair the message bus retries under. A
/// zero token (`!valid()`) marks mutations that did not arrive through
/// the bus (store loading, recovery replay, direct API use). Recording
/// the token in the redo record is what makes dedup recovery-safe: a
/// server that crashes between apply and reply rebuilds its dedup table
/// from the scanned log, so a post-recovery retry is answered instead of
/// double-applied (DESIGN.md §12).
struct WalToken {
  std::uint32_t src = 0;  // client endpoint id
  std::uint64_t id = 0;   // bus request id (0 = no token)

  [[nodiscard]] bool valid() const { return id != 0; }
  bool operator==(const WalToken& other) const {
    return src == other.src && id == other.id;
  }
};

/// One redo record. Fields are interpreted per op type; unused fields stay
/// at their defaults.
struct WalEntry {
  WalOpType type = WalOpType::kCheckpoint;
  std::uint64_t lsn = 0;            // log sequence number, assigned on append
  VertexId a = kInvalidVertex;      // primary vertex
  VertexId b = kInvalidVertex;      // other endpoint (edges)
  double weight = 0.0;              // node weight / weight delta
  std::uint32_t key = 0;            // property key / relationship type
  std::uint8_t flag = 0;            // other_is_local / NodeState
  WalToken token{};                 // idempotency token (0 = none)
  std::string payload{};            // property value

  bool operator==(const WalEntry& other) const {
    return type == other.type && lsn == other.lsn && a == other.a &&
           b == other.b && weight == other.weight && key == other.key &&
           flag == other.flag && token == other.token &&
           payload == other.payload;
  }
};

/// Group-commit switch (DESIGN.md §9 "Durability semantics"). A window
/// is everything staged when its leader takes the batch: one contiguous
/// write + one fsync. Appenders that arrive while a window's fsync is in
/// flight accumulate into the next one. With `enabled` false the log
/// falls back to per-append-fsync (each durable append performs its own
/// write+fsync inside the append critical section) — the baseline mode
/// the write_throughput bench compares against.
struct WalGroupCommitOptions {
  bool enabled = true;
};

/// Append-only write-ahead log with CRC-protected, length-prefixed binary
/// records. Mutations are logged before they are applied to the store
/// (WAL rule); recovery replays every complete entry after the last
/// checkpoint and discards a torn tail (crash during append).
///
/// Durability contract: Append() stages the encoded frame in memory and
/// assigns its LSN; Sync()/SyncUntil() (or `Append(..., durable=true)`)
/// force it to stable storage via a real fsync and return only once
/// `durable_lsn() >= lsn`. Concurrent durable appenders are batched by a
/// group-commit leader: one contiguous write + one fsync per window, every
/// waiter woken with the window's Status (per-waiter propagation — a
/// failed window reports the failure to each caller that depended on it).
///
/// Failure model: a write failure that may have left a partial frame in
/// the file rolls back nothing it cannot prove absent — the log is
/// *poisoned* (every later Append/Sync/Reset returns the sticky poison
/// Status) until reopened, at which point Open() truncates the torn tail.
/// A failed fsync is transient: the bytes are in the file, the window
/// reports the error, and a later window may retry the sync.
///
/// Thread-safe: staging is serialized under `mu_` (LSN assignment and the
/// frame ordering are atomic, so frames never interleave); file I/O is
/// performed outside `mu_` by the single window leader. Moving a
/// WriteAheadLog is only legal while no other thread uses it (it happens
/// once, inside Open()).
class WriteAheadLog {
 public:
  /// Opens (creating if needed) the log at `path` for appending. LSNs
  /// continue after the highest one found in the existing log, but never
  /// start below `min_next_lsn` — DurableGraphStore passes the snapshot's
  /// covered LSN + 1 so that entries appended after recovery can never
  /// collide with the range the snapshot already covers (a checkpoint
  /// truncates the log, so a freshly scanned file alone would restart
  /// LSNs at 1).
  [[nodiscard]] static Result<WriteAheadLog> Open(
      const std::string& path, std::uint64_t min_next_lsn = 1,
      const WalGroupCommitOptions& options = {});

  ~WriteAheadLog();
  WriteAheadLog(WriteAheadLog&& other) noexcept NO_THREAD_SAFETY_ANALYSIS
      : path_(std::move(other.path_)),
        file_(std::move(other.file_)),
        options_(other.options_),
        pending_(std::move(other.pending_)),
        next_lsn_(other.next_lsn_),
        durable_lsn_(other.durable_lsn_),
        fsync_count_(other.fsync_count_),
        poison_(std::move(other.poison_)),
        commit_io_hook_for_test_(std::move(other.commit_io_hook_for_test_)),
        m_appends_(other.m_appends_),
        m_append_bytes_(other.m_append_bytes_),
        m_syncs_(other.m_syncs_) {}
  WriteAheadLog& operator=(WriteAheadLog&& other) noexcept
      NO_THREAD_SAFETY_ANALYSIS {
    path_ = std::move(other.path_);
    file_ = std::move(other.file_);
    options_ = other.options_;
    pending_ = std::move(other.pending_);
    next_lsn_ = other.next_lsn_;
    durable_lsn_ = other.durable_lsn_;
    fsync_count_ = other.fsync_count_;
    poison_ = std::move(other.poison_);
    commit_io_hook_for_test_ = std::move(other.commit_io_hook_for_test_);
    m_appends_ = other.m_appends_;
    m_append_bytes_ = other.m_append_bytes_;
    m_syncs_ = other.m_syncs_;
    return *this;
  }

  /// Appends an entry; assigns and returns its LSN. With `durable` true
  /// the call also blocks until the entry is fsynced (joining the current
  /// group-commit window); with `durable` false the frame is staged in
  /// memory and reaches the OS at the next window, Sync(), or clean
  /// close.
  [[nodiscard]] Result<std::uint64_t> Append(WalEntry entry,
                                             bool durable = false)
      EXCLUDES(mu_);

  /// Forces every appended entry to stable storage (fsync), equivalent to
  /// SyncUntil(next_lsn() - 1).
  [[nodiscard]] Status Sync() EXCLUDES(mu_);

  /// Blocks until `durable_lsn() >= lsn` (clamped to the last assigned
  /// LSN). Returns the commit window's Status on failure — each waiter of
  /// a failed window observes that window's error.
  [[nodiscard]] Status SyncUntil(std::uint64_t lsn) EXCLUDES(mu_);

  /// Appends a checkpoint marker (call right after a snapshot succeeds).
  [[nodiscard]] Result<std::uint64_t> LogCheckpoint() EXCLUDES(mu_);

  /// Reads all complete entries from a log file, tolerating a torn final
  /// record. Entries before the *last* checkpoint are skipped when
  /// `after_last_checkpoint` is true.
  [[nodiscard]] static Result<std::vector<WalEntry>> ReadAll(
      const std::string& path, bool after_last_checkpoint = false);

  /// Truncates the log (after a snapshot made it redundant). A Reset that
  /// fails mid-way poisons the log with a Status naming the failed step —
  /// later appends report the cause instead of a generic write error.
  [[nodiscard]] Status Reset() EXCLUDES(mu_);

  /// Test hook: runs at the start of every off-lock I/O section (the
  /// group-commit window in SyncUntil, the truncate in Reset) while the
  /// calling thread holds the leader token but NOT `mu_`. Concurrency
  /// tests park the leader here to prove stagers stay unblocked. Set
  /// before the log is shared between threads.
  void SetCommitIoHookForTest(std::function<void()> hook) {
    commit_io_hook_for_test_ = std::move(hook);
  }

  std::uint64_t next_lsn() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return next_lsn_;
  }
  /// Highest LSN known forced to stable storage.
  std::uint64_t durable_lsn() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return durable_lsn_;
  }
  /// Number of successful fsync windows since Open (deterministic,
  /// per-log — unlike the process-wide `wal.syncs` counter).
  std::uint64_t fsync_count() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return fsync_count_;
  }
  const std::string& path() const { return path_; }

 private:
  WriteAheadLog(std::string path, FdAppender file, std::uint64_t next_lsn,
                const WalGroupCommitOptions& options);

  /// Per-append-fsync mode and Reset/destructor helper: writes + fsyncs
  /// the staged buffer while still holding `mu_`.
  [[nodiscard]] Status CommitPendingLocked() REQUIRES(mu_);

  // audit:allow(guard, written only at construction and by move-assignment)
  std::string path_;
  mutable Mutex mu_{"wal.mu", lock_order::kRankWal};
  /// The group-commit leader accesses `file_` *outside* `mu_` while
  /// `leader_active_` is set — the leader token grants exclusive file
  /// access so staging never blocks behind an fsync.
  FdAppender file_ GUARDED_BY(mu_);
  WalGroupCommitOptions options_ GUARDED_BY(mu_);
  /// Encoded frames accepted but not yet handed to the OS, in LSN order.
  std::string pending_ GUARDED_BY(mu_);
  std::uint64_t next_lsn_ GUARDED_BY(mu_) = 1;
  /// Highest LSN covered by a successful fsync (or by the snapshot after
  /// Reset).
  std::uint64_t durable_lsn_ GUARDED_BY(mu_) = 0;
  std::uint64_t fsync_count_ GUARDED_BY(mu_) = 0;
  /// True while one thread (the window leader) performs file I/O with
  /// `mu_` released.
  bool leader_active_ GUARDED_BY(mu_) = false;
  /// Sticky failure: set when the file may hold a partial frame (torn
  /// append, failed batch write) or a Reset failed. OK when healthy.
  Status poison_ GUARDED_BY(mu_);
  // audit:allow(guard, test hook set before the log is shared; only the
  // leader-token holder invokes it)
  std::function<void()> commit_io_hook_for_test_;
  CondVar commit_cv_;  // leader done: durable_lsn_/poison_ changed

  // Observability (all logs share the process-wide counters; DESIGN.md §7).
  Counter* m_appends_ = nullptr;
  Counter* m_append_bytes_ = nullptr;
  Counter* m_syncs_ = nullptr;
};

}  // namespace hermes

#endif  // HERMES_STORAGE_WAL_H_
