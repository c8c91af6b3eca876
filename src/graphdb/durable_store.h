#ifndef HERMES_GRAPHDB_DURABLE_STORE_H_
#define HERMES_GRAPHDB_DURABLE_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "graphdb/graph_store.h"
#include "storage/wal.h"

namespace hermes {

/// Applies one redo record to `store`: the one WalOpType -> GraphStore
/// switch. DurableGraphStore::Apply and recovery replay use it, and so
/// does an in-memory partition server. Returns a kAddEdge's record id,
/// kInvalidRecord for the other ops; a kCheckpoint marker is
/// InvalidArgument (it is not a mutation).
[[nodiscard]] Result<RecordId> ApplyWalEntry(const WalEntry& entry,
                                             GraphStore* store);

/// Durable wrapper around one partition's GraphStore: every mutation is
/// a WalEntry, prechecked against the store's rejection rules, appended
/// to a write-ahead log, and only then applied (WAL rule). Prechecking
/// means a mutation the store would reject never reaches the log, so
/// recovery replay treats store rejections as real divergence. Checkpoint()
/// persists a full binary snapshot (stamped with the covered LSN) so the
/// log can be truncated. Open() recovers by loading the latest snapshot
/// and replaying the uncovered log tail — including after a crash that
/// tore the final record.
///
/// This is the persistence half of the Neo4j heritage (Section 4: a
/// "disk-based, transactional persistence engine"); the lock manager in
/// src/txn supplies the isolation half.
///
/// Concurrency: every Apply() and Checkpoint() is serialized
/// under `mu_`, which keeps the WAL rule atomic (log, then apply) across
/// threads — but the *fsync wait* of a durable mutation happens after
/// `mu_` is released, so concurrent durable writers stage under the
/// store lock and then batch into one group-commit window instead of
/// serializing their fsyncs. Lock order: mu_ is acquired BEFORE the
/// WriteAheadLog's internal mutex (never the reverse). Reads through
/// store() are lock-free and therefore only safe when writers are
/// quiesced or the caller holds record-level locks — see DESIGN.md.
class DurableGraphStore {
 public:
  struct Options {
    /// Group-commit switch, forwarded to WriteAheadLog::Open.
    WalGroupCommitOptions group_commit;
    /// When true, every mutation blocks until its WAL entry is fsynced
    /// (joining the current group-commit window). When false (default,
    /// the historical behavior), mutations are staged and Sync() /
    /// Checkpoint() are the durability points.
    bool durable_mutations = false;
  };

  /// Opens (and recovers) the partition stored under `dir`. The directory
  /// must exist; files `snapshot.bin` and `wal.log` are created inside.
  /// (Overload instead of a defaulted Options argument: a nested class's
  /// member initializers are only parsed at the end of the enclosing
  /// class, so `= {}` here would not compile.)
  [[nodiscard]] static Result<std::unique_ptr<DurableGraphStore>> Open(
      PartitionId partition_id, const std::string& dir,
      const Options& options);
  [[nodiscard]] static Result<std::unique_ptr<DurableGraphStore>> Open(
      PartitionId partition_id, const std::string& dir) {
    return Open(partition_id, dir, Options());
  }

  /// Read access goes straight to the in-memory store.
  const GraphStore& store() const { return *store_; }

  /// Mutable access to the underlying store. Reads are always fine;
  /// mutating through this pointer BYPASSES the write-ahead log and is
  /// only safe for state that recovery rebuilds anyway.
  GraphStore* mutable_store() { return store_.get(); }

  // --- Logged mutations (same contracts as GraphStore) --------------------

  /// The one logged-mutation path: under mu_, precheck `entry` against
  /// the store's rejection rules, append it to the WAL, and apply it
  /// (ApplyWalEntry); then, only when durable_mutations is on, wait for
  /// its LSN to be fsynced with mu_ RELEASED. The release is the point of
  /// group commit: concurrent mutators stage back-to-back under mu_ and
  /// share one fsync window instead of serializing write+fsync per call.
  /// Returns a kAddEdge's record id, kInvalidRecord for the other ops.
  /// `entry.token` is logged with it (PartitionServer stamps the bus
  /// (src, request_id) there, so a crash between apply and reply leaves
  /// the token recoverable). A kCheckpoint marker is InvalidArgument.
  [[nodiscard]] Result<RecordId> Apply(WalEntry entry) EXCLUDES(mu_);

  // Forwards that fill the entry, for callers off the message bus.
  [[nodiscard]] Status CreateNode(VertexId id, double weight = 1.0)
      EXCLUDES(mu_) {
    return Apply({.type = WalOpType::kCreateNode, .a = id, .weight = weight})
        .status();
  }
  [[nodiscard]] Status RemoveNode(VertexId v) EXCLUDES(mu_) {
    return Apply({.type = WalOpType::kRemoveNode, .a = v}).status();
  }
  [[nodiscard]] Status SetNodeState(VertexId id, NodeState state)
      EXCLUDES(mu_) {
    return Apply({.type = WalOpType::kSetNodeState,
                  .a = id,
                  .flag = static_cast<std::uint8_t>(state)})
        .status();
  }
  [[nodiscard]] Status AddNodeWeight(VertexId id, double delta)
      EXCLUDES(mu_) {
    return Apply({.type = WalOpType::kAddNodeWeight, .a = id, .weight = delta})
        .status();
  }
  [[nodiscard]] Result<RecordId> AddEdge(VertexId v, VertexId other,
                                         std::uint32_t type,
                                         bool other_is_local) EXCLUDES(mu_) {
    return Apply({.type = WalOpType::kAddEdge,
                  .a = v,
                  .b = other,
                  .key = type,
                  .flag = other_is_local});
  }
  [[nodiscard]] Status RemoveEdge(VertexId v, VertexId other) EXCLUDES(mu_) {
    return Apply({.type = WalOpType::kRemoveEdge, .a = v, .b = other})
        .status();
  }
  [[nodiscard]] Status SetNodeProperty(VertexId id, std::uint32_t key,
                                       const std::string& value)
      EXCLUDES(mu_) {
    return Apply({.type = WalOpType::kSetNodeProperty,
                  .a = id,
                  .key = key,
                  .payload = value})
        .status();
  }
  [[nodiscard]] Status SetEdgeProperty(VertexId v, VertexId other,
                                       std::uint32_t key,
                                       const std::string& value)
      EXCLUDES(mu_) {
    return Apply({.type = WalOpType::kSetEdgeProperty,
                  .a = v,
                  .b = other,
                  .key = key,
                  .payload = value})
        .status();
  }

  /// Writes a snapshot, marks a checkpoint, and truncates the log.
  [[nodiscard]] Status Checkpoint() EXCLUDES(mu_);

  /// Makes every staged entry durable: joins (or leads) a group-commit
  /// window and returns once the log is fsynced through the last appended
  /// LSN. The WAL synchronizes itself, so no store lock is taken — calls
  /// overlap with concurrent mutations and batch into shared windows.
  [[nodiscard]] Status Sync() EXCLUDES(mu_) { return wal_->Sync(); }

  /// Idempotency tokens of every mutation found in the WAL during Open(),
  /// in log order — including entries the snapshot already covered (a
  /// crash can land between the snapshot rename and the log truncation,
  /// and a token's retry may still be in flight either way).
  /// PartitionServer::Open seeds its dedup table from this so a
  /// post-recovery retry is answered, not double-applied.
  const std::vector<WalToken>& recovered_tokens() const {
    return recovered_tokens_;
  }

  const std::string& directory() const { return dir_; }
  std::uint64_t next_lsn() const { return wal_->next_lsn(); }
  std::uint64_t durable_lsn() const { return wal_->durable_lsn(); }
  std::uint64_t fsync_count() const { return wal_->fsync_count(); }

  // Exposed for tests: snapshot round-trip without a full Open().
  // `covered_lsn` is the highest WAL LSN whose effects the snapshot
  // contains; Open() skips replaying entries at or below it, which is
  // what makes a crash between the snapshot rename and the WAL
  // truncation safe (replaying the stale log in full would double-apply
  // non-idempotent entries such as kAddNodeWeight). LoadSnapshot fills an
  // empty `store` through GraphStore::Restore; it returns NotFound only
  // when there is no file, and IOError for a file that does not load.
  [[nodiscard]] static Status WriteSnapshot(const GraphStore& store, const std::string& path,
                              std::uint64_t covered_lsn = 0);
  [[nodiscard]] static Status LoadSnapshot(const std::string& path, GraphStore* store,
                             std::uint64_t* covered_lsn = nullptr);

 private:
  DurableGraphStore(PartitionId partition_id, std::string dir,
                    std::unique_ptr<GraphStore> store,
                    std::unique_ptr<WriteAheadLog> wal, bool durable_mutations)
      : partition_id_(partition_id),
        dir_(std::move(dir)),
        store_(std::move(store)),
        wal_(std::move(wal)),
        durable_mutations_(durable_mutations) {}

  [[nodiscard]] static Status Replay(const WalEntry& entry, GraphStore* store);

  // Read-only mirror of GraphStore's rejection rules, checked BEFORE an
  // entry is logged. A mutation the live store would reject never reaches
  // the WAL, so recovery replay can treat any store rejection as real
  // divergence instead of tolerating it (see Replay).
  [[nodiscard]] static Status Precheck(const WalEntry& entry, const GraphStore& store);

  const PartitionId partition_id_;
  const std::string dir_;
  mutable Mutex mu_{"durable_store.mu", lock_order::kRankDurableStore};
  // Guarded by mu_ on every logged-mutation path; the store() accessors
  // expose lock-free reads by documented contract (see class comment).
  // audit:allow(guard, lock-free read contract documented above)
  std::unique_ptr<GraphStore> store_;
  // The WAL is internally synchronized (its own mutex ranks after mu_),
  // so the pointer itself is const and calls need no store lock — that is
  // what allows Sync()/SyncUntil() to run outside mu_.
  const std::unique_ptr<WriteAheadLog> wal_;
  const bool durable_mutations_;
  /// Written once inside Open() before the store is shared; read-only after.
  // audit:allow(guard, written once inside Open() before the store is shared)
  std::vector<WalToken> recovered_tokens_;
};

}  // namespace hermes

#endif  // HERMES_GRAPHDB_DURABLE_STORE_H_
