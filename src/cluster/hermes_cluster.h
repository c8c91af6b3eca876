#ifndef HERMES_CLUSTER_HERMES_CLUSTER_H_
#define HERMES_CLUSTER_HERMES_CLUSTER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"
#include "graphdb/traversal.h"
#include "net/bus.h"
#include "net/inproc_transport.h"
#include "net/message.h"
#include "partition/assignment.h"
#include "partition/aux_data.h"
#include "partition/lightweight.h"
#include "server/partition_server.h"
#include "sim/network.h"
#include "txn/transaction.h"

namespace hermes {

/// Statistics of one physical migration epoch (copy step -> barrier ->
/// remove step, Section 3.2).
struct MigrationStats {
  std::size_t vertices_moved = 0;
  std::size_t relationships_touched = 0;
  std::size_t bytes_copied = 0;
  /// Number of chunks the move list was split into (each chunk is an
  /// independent copy -> barrier -> remove mini-epoch).
  std::size_t chunks = 0;
  SimTime copy_time_us = 0.0;
  SimTime total_time_us = 0.0;
  // Filled when the move list came from the lightweight repartitioner.
  std::size_t repartitioner_iterations = 0;
  bool repartitioner_converged = false;
  std::size_t aux_bytes_exchanged = 0;  // phase-one control traffic
  double edge_cut_fraction_before = 0.0;
  double edge_cut_fraction_after = 0.0;
  double imbalance_before = 0.0;
  double imbalance_after = 0.0;
};

/// The distributed Hermes deployment: `alpha` peer partition servers,
/// each hosting a GraphStore shard of the social graph, plus the shared
/// directory (PartitionAssignment), per-server auxiliary data, and
/// transaction management (Figure 5/6). Clients connect to any server;
/// traversals are forwarded along partition boundaries as remote hops.
///
/// Every cross-server operation — adjacency fetches, record mutations,
/// migration chunk copy/remove traffic, read-count folds, health,
/// checkpoint, recovery dumps — travels as a typed message through the
/// MessageBus over a Transport (DESIGN.md §12). The cluster object holds
/// no store pointers at all: the partition-server boundary is the wire
/// protocol, and tools/layers.json forbids this module from including
/// the store headers, so "no direct cross-server access" is checked at
/// build time. The first transport is in-process queues; a socket
/// `hermesd` slots in behind the same interface.
///
/// The cluster also keeps the algorithmic `Graph` view in sync with the
/// stores: the repartitioner runs against the auxiliary data exactly as
/// in the paper, and physical migration runs against the stores.
///
/// Concurrency model (phase 3, message-passing — DESIGN.md §6/§12).
/// Client-side capabilities:
///
///   migration_mu_ (rank 5)   one migration epoch at a time; held across
///                            all chunks of a physical migration and
///                            across Checkpoint() so a snapshot never
///                            captures a half-migrated chunk.
///   dir_mu_       (rank 10)  reader/writer lock over the directory:
///                            assignment_, tombstoned_, and the vertex-id
///                            space (graph_/assignment_ sizes). Queries
///                            and single-edge writes hold it SHARED;
///                            InsertVertex, Validate, and each migration
///                            chunk hold it EXCLUSIVE. Writer-preferring,
///                            so migration cannot be starved by reads.
///   topo_mu_      (rank 20)  serializes mutations/reads of the graph_
///                            adjacency+weights and aux_ counters (both
///                            are not internally synchronized). Always
///                            taken under dir_mu_ (shared or exclusive).
///
/// Per-partition store serialization lives inside each PartitionServer
/// (rank 100+p), on the transport's dispatch threads. Issuing a bus call
/// while holding dir_mu_/topo_mu_ is deadlock-free by construction: the
/// bus/transport/inbox mutexes rank strictly between topo_mu_ and the
/// servers, dispatch threads acquire only their own server mutex (never
/// a cluster lock), and replies are sent with no locks held — so the
/// client-side hold can always be serviced. Record-level transaction
/// locks are acquired under dir_mu_ shared; a writer stalled on a record
/// lock held by an external transaction resolves by timeout, never
/// deadlock. The const accessors (graph(), aux(), store(), ...) hand out
/// unsynchronized references and are only safe on a quiesced cluster —
/// the runtime lock-order validator and the tsan preset are the
/// enforcement mechanism. See DESIGN.md "Concurrency invariants".
class HermesCluster {
 public:
  struct Options {
    NetworkParams net;
    RepartitionerOptions repartitioner;
    /// Count every read in its start vertex's popularity weight (the
    /// paper's vertex weight = read-request count). The start's server
    /// counts the read in memory; FoldReadCounts() adds the counts to the
    /// weights. Off: nothing is counted and no fold is ever sent.
    bool count_reads_in_weights = true;
    /// When non-empty, every server's store is durable: mutations are
    /// WAL-logged under `<durability_dir>/p<i>/` and Checkpoint() /
    /// Recover() provide crash safety for the whole cluster.
    std::string durability_dir;
    /// Vertices physically migrated per chunk. Between chunks every lock
    /// is released, so reads and writes interleave with a live migration
    /// and observe the paper's unavailable-record semantics.
    std::size_t migration_chunk = 64;
    /// When > 0, ExecuteRead sleeps this long (wall clock) per remote
    /// hop while holding only the shared directory lock — models the
    /// network round-trip so real-thread benchmarks measure concurrency,
    /// not just in-memory pointer chasing.
    double read_hop_latency_us = 0.0;
    /// Test hook: called between the copy and remove steps of every
    /// migration chunk with the chunk's vertex list, with no cluster
    /// locks held (reads from the hook are legal and see the barrier
    /// window: chunk vertices unavailable at the source, directory not
    /// yet flipped).
    std::function<void(const std::vector<VertexId>&)> migration_barrier_hook;
    /// In-process transport tuning: inbox capacity (backpressure bound)
    /// and the seeded duplicate/reorder fault cadences.
    InProcTransport::Options transport;
    /// Per-call reply timeout. A lost frame surfaces as kUnavailable
    /// (retryable) after this long instead of hanging.
    MessageBus::Options bus;
  };

  /// Builds the cluster, loading every server with its shard (ghost
  /// relationships created for cross-partition edges).
  HermesCluster(Graph graph, PartitionAssignment assignment,
                Options options);
  HermesCluster(Graph graph, PartitionAssignment assignment);

  /// Joins the transport dispatch threads before tearing anything down.
  ~HermesCluster();

  /// Reopens a durable cluster from `options.durability_dir` after a
  /// crash or shutdown: recovers every server's store (snapshot + WAL
  /// tail), then rebuilds the directory, graph view, and auxiliary data
  /// from per-server Dump messages. Vertex ids below the recovered max
  /// that have no node record in any store (removed and never
  /// re-created) are tombstoned: they keep weight 0, are rejected by
  /// reads and writes, and are never migrated.
  [[nodiscard]] static Result<std::unique_ptr<HermesCluster>> Recover(
      PartitionId num_partitions, Options options);

  /// Snapshots every durable server and truncates its log. Serialized
  /// against whole migrations (never snapshots a half-migrated chunk).
  /// Errors when durability is off.
  [[nodiscard]] Status Checkpoint() EXCLUDES(migration_mu_, dir_mu_);

  bool durable() const { return !options_.durability_dir.empty(); }

  PartitionId num_servers() const { return assignment_.num_partitions(); }
  const Graph& graph() const { return graph_; }
  const PartitionAssignment& assignment() const { return assignment_; }
  const AuxiliaryData& aux() const { return aux_; }
  /// Quiesced TEST access to a server's store, bypassing the message
  /// protocol. Production paths must use the bus.
  GraphStore* store(PartitionId p) { return servers_[p]->store_for_test(); }
  const GraphStore* store(PartitionId p) const {
    return servers_[p]->store_for_test();
  }
  TransactionManager* txn_manager() { return &txns_; }
  const Options& options() const { return options_; }

  /// True when vertex id `v` was tombstoned by Recover(). Quiesced-read
  /// accessor, like graph()/assignment().
  bool IsTombstoned(VertexId v) const {
    return v < tombstoned_.size() && tombstoned_[v] != 0;
  }

  // --- Queries ---------------------------------------------------------------

  /// One executed traversal, decomposed into per-server work segments for
  /// the timing model.
  struct TraversalRun {
    /// (server, vertices visited there) in execution order; consecutive
    /// entries on different servers are remote hops.
    std::vector<std::pair<PartitionId, std::uint32_t>> segments;
    std::uint64_t vertices_processed = 0;
    std::uint64_t unique_vertices = 0;  // the query response size
    std::uint64_t remote_hops = 0;
  };

  /// Executes a `hops`-hop traversal from `start` against the stores
  /// (scanning the stores' real adjacency) and records per-server segments.
  /// Holds dir_mu_ shared for the whole traversal (placement is stable
  /// for one query), so traversals run concurrently with each other and
  /// with writes. Each level's adjacency fetches are batched into one
  /// NeighborsRequest per touched server, and all of a level's batches
  /// are in flight at once (scatter-gather): one bus round trip per
  /// level. Level 0 fetches the start alone, even for `hops == 0`: a
  /// start that is not available returns kUnavailable, and when
  /// configured its server counts the read (see FoldReadCounts()).
  [[nodiscard]] Result<TraversalRun> ExecuteRead(VertexId start, int hops)
      EXCLUDES(dir_mu_);

  /// Folds every server's pending read counts into the vertex weights:
  /// one deduplicated AuxExchange per server, all in flight at once,
  /// whose replies update graph() and aux() by what each server added
  /// to its store. Until a fold, counted reads are soft state that
  /// graph(), aux(), Validate() and the stores do not see, and a crash
  /// loses them (DESIGN.md §12, read-weight contract).
  /// RunLightweightRepartition(), MigrateToAssignment() and Checkpoint()
  /// fold first. On a storage failure, the counts folded before it are
  /// applied everywhere, the rest stay pending, and the error is
  /// returned. A no-op without count_reads_in_weights.
  [[nodiscard]] Status FoldReadCounts() EXCLUDES(dir_mu_);

  /// Adapter for the declarative traversal API (graphdb/traversal.h):
  /// routes each adjacency fetch to the owning server over the bus, i.e.
  /// a cluster-wide remote-traversal-capable NeighborProvider.
  // audit:allow(guard, lock-free; the provider locks per invocation)
  NeighborProvider MakeNeighborProvider() const;

  // --- Writes ----------------------------------------------------------------

  /// Creates a new vertex; placement by hash (new users have no history).
  /// Takes the directory exclusively (the vertex-id space grows).
  [[nodiscard]] Result<VertexId> InsertVertex(double weight = 1.0) EXCLUDES(dir_mu_);

  /// Creates edge {u, v}, updating stores (with ghosts), the graph view,
  /// and the auxiliary data. Takes exclusive record locks on both
  /// endpoints (a lock timeout aborts with kTimedOut — deadlock
  /// resolution), then writes each endpoint's half record through the
  /// bus; each server serializes its own store. If a store rejects its
  /// half of the edge after the graph view accepted it, the graph edge
  /// is rolled back and the transaction aborted, so graph_ and the
  /// stores never diverge.
  [[nodiscard]] Status InsertEdge(VertexId u, VertexId v, std::uint32_t type = 0)
      EXCLUDES(dir_mu_);

  // --- Repartitioning -----------------------------------------------------------

  /// Phase 1 + 2 of the paper's algorithm: runs the lightweight
  /// repartitioner on copies of the directory and auxiliary data (logical
  /// moves), then physically migrates the net-moved vertices between
  /// stores in chunks, releasing all locks between chunks.
  [[nodiscard]] Result<MigrationStats> RunLightweightRepartition()
      EXCLUDES(migration_mu_, dir_mu_);

  /// Physically migrates stores to match `target` (used to apply an
  /// offline Metis partitioning for comparison). Labels should already be
  /// matched to the current assignment.
  [[nodiscard]] Result<MigrationStats> MigrateToAssignment(const PartitionAssignment& target)
      EXCLUDES(migration_mu_, dir_mu_);

  /// Cross-checks stores against the graph view and directory on a sample
  /// of `sample` vertices (0 = all), probing every store through the bus.
  /// Returns false on any inconsistency. Takes the directory exclusively,
  /// so it is a quiesce point: it never observes the inside of a
  /// migration chunk.
  bool Validate(std::size_t sample = 0, std::uint64_t seed = 1) const
      EXCLUDES(dir_mu_);

  /// Total bytes across all store shards (per-server Health messages).
  std::size_t TotalStoreBytes() const EXCLUDES(dir_mu_);

  /// Refreshes the cluster gauges (store bytes, vertex count) under the
  /// directory lock and returns a consistent copy of the process-wide
  /// metrics. Safe to call concurrently with any other cluster operation
  /// (MetricsRegistry's mutex is a leaf in the lock order, DESIGN.md §7).
  hermes::MetricsSnapshot MetricsSnapshot() const EXCLUDES(dir_mu_);

 private:
  /// An empty directory over `num_partitions` servers, with nothing
  /// brought up yet: Recover() calls InitServers() itself so that a
  /// store that fails to recover is an error, not a crash.
  HermesCluster(PartitionId num_partitions, Options options);

  /// Brings up the transport, one PartitionServer per partition
  /// (endpoints 0..alpha-1), and the client bus (endpoint alpha). A
  /// durable server recovers its store as it opens; the bus then mints
  /// request ids above every idempotency token recovered from the WALs.
  [[nodiscard]] Status InitServers();
  /// Seeds every server's store from graph_/assignment_ with chunked
  /// InstallChunk messages.
  [[nodiscard]] Status LoadServers();

  /// Physically migrates every vertex whose live placement differs from
  /// `target`, in chunks of options_.migration_chunk. Each chunk runs the
  /// classic copy -> barrier -> remove epoch against the live directory
  /// in four fan-outs, each one request per server sent in one
  /// BusCallMany:
  ///   1. extract the chunk's snapshots, one request per source;
  ///   2. install the replicas, one request per target (in parallel: an
  ///      edge to another target is a half record);
  ///   3. mark the originals unavailable, one request per source;
  /// all under dir_mu_ exclusive; then all locks released (the observable
  /// barrier window); then, under dir_mu_ exclusive again, the directory
  /// and aux rows flip for the whole chunk before
  ///   4. the originals are removed, one request per source.
  /// A failed install or mark unwinds with one batched Mutate per server:
  /// it re-marks each source's applied prefix (the whole batch if the
  /// reply was lost) and removes exactly each target's nodes_created. A
  /// failed remove strands nothing else: every chunk vertex is already
  /// routed to its target, and the failed one leaves an unavailable copy
  /// at its source (DESIGN.md §9).
  [[nodiscard]] Result<MigrationStats> MigrateDiffChunked(const PartitionAssignment& target)
      REQUIRES(migration_mu_) EXCLUDES(dir_mu_);

  /// FoldReadCounts() for a caller that holds dir_mu_ in either mode.
  [[nodiscard]] Status FoldReadCountsLocked() REQUIRES_SHARED(dir_mu_);

  // --- Message-bus round-trips ----------------------------------------------
  // All cross-server traffic funnels through Call or, for fan-outs,
  // BusCallMany. Every one of these blocks on the reply (bounded by
  // options_.bus.call_timeout_us). Locking contract: issuing a call while
  // holding dir_mu_/topo_mu_ is legal (see the class comment); dispatch
  // threads never take cluster locks.

  /// One request to server `p`; the reply unwrapped to the type the
  /// request implies (any other payload type is a protocol bug).
  template <typename Reply>
  [[nodiscard]] Result<Reply> Call(PartitionId p, MessagePayload payload) const;
  /// One request per element, all in flight at once; replies in order.
  [[nodiscard]] std::vector<Result<Envelope>> BusCallMany(
      std::vector<std::pair<PartitionId, MessagePayload>> calls) const;
  /// One request to each server in `requests`, all in flight at once (one
  /// BusCallMany); the replies unwrapped, by server.
  template <typename Reply, typename Request>
  [[nodiscard]] std::map<PartitionId, Result<Reply>> CallEach(
      const std::map<PartitionId, Request>& requests) const;
  /// One store mutation on server `p` (a one-entry MutateRequest), which
  /// serializes its execution. Callers hold dir_mu_ shared.
  [[nodiscard]] Status Mutate(PartitionId p, MutateRequest::Entry entry) const;
  /// Applies every server's batch, one MutateRequest per server, all in
  /// flight at once. Best effort: an entry that fails is logged (under
  /// `step`) and skipped and the entries after it are resent, so one
  /// failure strands nothing else. Returns the first failure. The
  /// migration's remove step and unwind, under dir_mu_ exclusive.
  [[nodiscard]] Status MutateEach(std::map<PartitionId, MutateRequest> batches,
                                  const char* step) const;
  /// Total bytes across all store shards: one Health fan-out. Best
  /// effort: a server that fails to answer contributes 0.
  std::size_t StoreBytesLocked() const REQUIRES_SHARED(dir_mu_);

  /// Capabilities — see the class comment for the full scheme. The
  /// guarded data members stay unannotated (the "shared-or-exclusive"
  /// directory discipline is not expressible to the static analysis);
  /// the runtime lock-order validator enforces the acquisition order
  /// instead.
  mutable Mutex migration_mu_{"cluster.migration_mu",
                              lock_order::kRankMigration};
  mutable SharedMutex dir_mu_{"cluster.dir", lock_order::kRankCluster};
  mutable Mutex topo_mu_{"cluster.topo", lock_order::kRankClusterTopology};
  // audit:allow(guard, topo_mu_ under a dir_mu_ hold; quiesced const access)
  Graph graph_;
  // audit:allow(guard, dir_mu_ shared to read and exclusive to mutate)
  PartitionAssignment assignment_;
  // audit:allow(guard, topo_mu_ under a dir_mu_ hold; quiesced const access)
  AuxiliaryData aux_;
  const Options options_;
  /// tombstoned_[v] != 0 marks an id recovered without a node record
  /// (guarded like assignment_: dir_mu_ shared to read, exclusive to
  /// mutate). Always sized assignment_.size().
  // audit:allow(guard, dir_mu_ shared to read and exclusive to mutate)
  std::vector<char> tombstoned_;
  /// Message runtime. Declaration order matters for teardown: the
  /// destructor shuts the bus and transport down first (joining every
  /// dispatch thread), then members destruct bus -> servers -> transport
  /// so no dispatcher can touch a dead server.
  // audit:allow(guard, internally synchronized; see InProcTransport)
  std::unique_ptr<InProcTransport> transport_;
  // audit:allow(guard, fixed at construction; each server self-serializes)
  std::vector<std::unique_ptr<PartitionServer>> servers_;
  // audit:allow(guard, internally synchronized; see MessageBus)
  std::unique_ptr<MessageBus> bus_;
  TransactionManager txns_;

  // Observability (process-wide counters and histograms, DESIGN.md §7).
  // Initialized here so every constructor path shares them.
  Counter* const m_reads_ =
      MetricsRegistry::Global().GetCounter("cluster.reads");
  Counter* const m_read_remote_hops_ =
      MetricsRegistry::Global().GetCounter("cluster.read_remote_hops");
  Counter* const m_writes_ =
      MetricsRegistry::Global().GetCounter("cluster.writes");
  Counter* const m_migrations_ =
      MetricsRegistry::Global().GetCounter("cluster.migrations");
  Counter* const m_vertices_migrated_ =
      MetricsRegistry::Global().GetCounter("cluster.vertices_migrated");
  Counter* const m_migration_bytes_ =
      MetricsRegistry::Global().GetCounter("cluster.migration_bytes_copied");
  Histogram* const m_repartition_us_ =
      MetricsRegistry::Global().GetHistogram("cluster.repartition");
  Histogram* const m_migration_copy_us_ =
      MetricsRegistry::Global().GetHistogram("cluster.migration.copy");
  Histogram* const m_migration_remove_us_ =
      MetricsRegistry::Global().GetHistogram("cluster.migration.remove");
};

}  // namespace hermes

#endif  // HERMES_CLUSTER_HERMES_CLUSTER_H_
