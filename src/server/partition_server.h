/// One partition server: owns a partition's GraphStore (optionally
/// durable) and speaks only the typed message protocol (DESIGN.md §12).
/// Frames arrive on the transport's dispatch thread, the request is
/// applied under the server's own mutex, and the reply frame is sent
/// with no locks held — so a server never participates in a lock cycle
/// with the cluster directory or another server.
///
/// The header deliberately forward-declares the store types and exposes
/// no store-typed API besides the quiesced test accessor: the cluster
/// layer compiles against this interface without ever seeing a store
/// header, which is what makes "all cross-server access goes through
/// the bus" a compile-time property (tools/layers.json forbids the
/// includes outright).
#ifndef HERMES_SERVER_PARTITION_SERVER_H_
#define HERMES_SERVER_PARTITION_SERVER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "common/lock_order.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "net/message.h"
#include "net/transport.h"

namespace hermes {

class GraphStore;
class DurableGraphStore;
struct WalEntry;
struct WalToken;

class PartitionServer {
 public:
  struct Options {
    /// Non-empty: open a DurableGraphStore rooted here (the directory is
    /// created if missing). Empty: plain in-memory store.
    std::string durability_dir;
    /// Capacity of the (src, request_id) dedup window and its reply
    /// cache. 0 selects the built-in default. The cluster sizes this from
    /// the transport's inbox capacity × endpoint count: eviction of a
    /// token whose duplicate is still queued somewhere silently
    /// reintroduces double-apply, so the window must dominate the number
    /// of frames that can be in flight at once.
    std::size_t dedup_window = 0;
  };

  /// Creates the server's store and registers its endpoint + dispatch
  /// thread on `transport`. The transport must be shut down before the
  /// server is destroyed (the cluster owns that ordering).
  [[nodiscard]] static Result<std::unique_ptr<PartitionServer>> Open(
      PartitionId partition, EndpointId endpoint, Transport* transport,
      Options options);

  ~PartitionServer();
  PartitionServer(const PartitionServer&) = delete;
  PartitionServer& operator=(const PartitionServer&) = delete;

  PartitionId partition() const { return partition_; }
  EndpointId endpoint() const { return endpoint_; }
  bool durable() const { return durable_raw_ != nullptr; }

  /// Highest bus request id among the idempotency tokens recovered from
  /// the WAL at Open() (0 when none). The cluster starts the post-recovery
  /// MessageBus above this so fresh request ids can never collide with a
  /// recovered token and be answered from stale dedup state.
  std::uint64_t max_recovered_token_id() const {
    return max_recovered_token_id_;
  }

  /// Direct store access for quiesced tests and recovery-free seeding
  /// ONLY — production traffic goes through the message protocol.
  GraphStore* store_for_test() { return store_; }
  const GraphStore* store_for_test() const { return store_; }

 private:
  PartitionServer(PartitionId partition, EndpointId endpoint,
                  Transport* transport,
                  std::unique_ptr<GraphStore> mem_store,
                  std::unique_ptr<DurableGraphStore> durable,
                  GraphStore* store, std::size_t dedup_window);

  using DedupKey = std::pair<EndpointId, std::uint64_t>;

  /// Entry point on the transport dispatch thread.
  void HandleFrame(std::string frame);

  /// True for request payloads that mutate the store (Mutate /
  /// InstallChunk / AuxExchange): these are deduplicated by token and
  /// their replies cached for replay. Reads are idempotent and simply
  /// re-execute on duplicate delivery; a counted read counts only on its
  /// first delivery (its token joins the window, with no cached reply).
  [[nodiscard]] static bool IsMutatingRequest(const MessagePayload& request);

  /// Serves one decoded request and produces the reply payload. `token`
  /// is the bus (src, request_id): a mutation's WAL entries carry it
  /// (reads ignore it).
  [[nodiscard]] MessagePayload DispatchLocked(const MessagePayload& request,
                                              const WalToken& token)
      REQUIRES(mu_);

  /// Applies one store mutation: the only place that chooses between the
  /// durable store (DurableGraphStore::Apply: precheck, log, apply) and
  /// the in-memory one (ApplyWalEntry). Returns a kAddEdge's record id.
  [[nodiscard]] Result<RecordId> ApplyLocked(WalEntry entry) REQUIRES(mu_);

  /// Synthesizes the reply for a mutation whose token was recovered from
  /// the WAL: the mutation is applied state, but its encoded reply died
  /// with the crashed process, so the answer is reconstructed from the
  /// log and the current store. A Mutate reports as applied only the
  /// entries the log holds under `token`; FindEdge supplies the record id
  /// a kAddEdge retry expects.
  [[nodiscard]] MessagePayload RecoveredReplyLocked(
      const MessagePayload& request, const WalToken& token) REQUIRES(mu_);

  /// Records a token, evicting the oldest entry (and its cached reply)
  /// once the window overflows. False when the token was already known.
  bool RememberLocked(const DedupKey& key) REQUIRES(mu_);

  /// Adds one pending read to every vertex of `req` that `reply` served.
  void CountReadsLocked(const NeighborsRequest& req,
                        const NeighborsReply& reply) REQUIRES(mu_);

  NeighborsReply DoNeighbors(const NeighborsRequest& req) REQUIRES(mu_);
  ProbeReply DoProbe(const ProbeRequest& req) REQUIRES(mu_);
  MutateReply DoMutate(const MutateRequest& req, const WalToken& token)
      REQUIRES(mu_);
  InstallChunkReply DoInstall(const InstallChunkRequest& req,
                              const WalToken& token) REQUIRES(mu_);
  ExtractReply DoExtract(const ExtractRequest& req) REQUIRES(mu_);
  AuxExchangeReply DoFold(const WalToken& token) REQUIRES(mu_);
  HealthReply DoHealth() REQUIRES(mu_);
  CheckpointReply DoCheckpoint() REQUIRES(mu_);
  DumpReply DoDump() REQUIRES(mu_);

  const PartitionId partition_;
  const EndpointId endpoint_;
  // audit:allow(guard, not owned; Transport implementations self-synchronize)
  Transport* const transport_;
  const std::string label_;
  /// Serializes every request against this partition's store — the
  /// message-era successor of the cluster's per-partition shard mutex,
  /// so it keeps the kRankPartitionBase + p rank slot.
  mutable Mutex mu_;
  std::unique_ptr<GraphStore> mem_store_ GUARDED_BY(mu_);
  std::unique_ptr<DurableGraphStore> durable_ GUARDED_BY(mu_);
  // audit:allow(guard, set once in the ctor; request paths read it under mu_)
  DurableGraphStore* durable_raw_;
  // audit:allow(guard, same single-assignment view as durable_raw_)
  GraphStore* store_;
  /// Dedup window capacity (Options::dedup_window, defaulted).
  const std::size_t dedup_window_;
  /// Mutation and counted-read tokens this server has applied (or
  /// recovered from the WAL), plus their FIFO eviction order.
  /// Exactly-once contract: a token in `seen_` is never re-applied; if
  /// its encoded reply is in `replies_` it is replayed verbatim,
  /// otherwise (recovered token) the reply is synthesized from store
  /// state. All three structures evict together.
  std::set<DedupKey> seen_ GUARDED_BY(mu_);
  std::deque<DedupKey> seen_fifo_ GUARDED_BY(mu_);
  std::map<DedupKey, std::string> replies_ GUARDED_BY(mu_);
  /// Reads counted since the last fold, by vertex: soft state, lost on a
  /// crash. A fold adds them to the stored weights; an extract carries a
  /// vertex's count in its weight, and removing the record drops it.
  std::map<VertexId, std::uint64_t> read_counts_ GUARDED_BY(mu_);
  // audit:allow(guard, set once in Open() before the endpoint is registered)
  std::uint64_t max_recovered_token_id_ = 0;
  Counter* const m_requests_;
  Counter* const m_duplicates_;
  Counter* const m_decode_errors_;
  Counter* const m_reply_errors_;
  Counter* const m_dedup_hits_;
};

}  // namespace hermes

#endif  // HERMES_SERVER_PARTITION_SERVER_H_
