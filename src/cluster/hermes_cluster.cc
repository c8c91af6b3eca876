#include "cluster/hermes_cluster.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "partition/hash_partitioner.h"
#include "partition/metrics.h"

namespace hermes {

HermesCluster::HermesCluster(Graph graph, PartitionAssignment assignment,
                             Options options)
    : graph_(std::move(graph)),
      assignment_(std::move(assignment)),
      aux_(graph_, assignment_),
      options_(std::move(options)),
      tombstoned_(assignment_.size(), 0) {
  HERMES_CHECK(assignment_.size() == graph_.NumVertices());
  Status st = InitServers();
  HERMES_CHECK(st.ok());
  st = LoadServers();
  HERMES_CHECK(st.ok());
}

HermesCluster::HermesCluster(Graph graph, PartitionAssignment assignment)
    : HermesCluster(std::move(graph), std::move(assignment), Options{}) {}

HermesCluster::HermesCluster(PartitionId num_partitions, Options options)
    : assignment_(0, num_partitions),
      aux_(graph_, assignment_),
      options_(std::move(options)) {}

HermesCluster::~HermesCluster() {
  // Fail every pending call, then join the dispatch threads while all the
  // servers are still alive. Members then destruct bus_ -> servers_ ->
  // transport_, and the (idempotent) transport re-Shutdown is a no-op.
  if (bus_ != nullptr) bus_->Shutdown();
  if (transport_ != nullptr) transport_->Shutdown();
}

// --- Message-bus round-trips ----------------------------------------------
//
// Every cross-server operation is one Call() on the bus, or one
// BusCallMany() for a fan-out: encode, send, block for the matching reply
// (bounded by the call timeout). A reply payload of the wrong type is a
// protocol bug, not an I/O error.

namespace {
// Shared unwrap: the call succeeded, now the payload must be the reply
// type the request implies.
template <typename ReplyT>
[[nodiscard]] Result<ReplyT> UnwrapReply(Result<Envelope> reply) {
  HERMES_RETURN_NOT_OK(reply.status());
  auto* typed = std::get_if<ReplyT>(&reply->payload);
  if (typed == nullptr) {
    return Status::Internal("message bus: unexpected reply payload type");
  }
  return std::move(*typed);
}
}  // namespace

template <typename Reply>
Result<Reply> HermesCluster::Call(PartitionId p, MessagePayload payload) const {
  Envelope request;
  request.payload = std::move(payload);
  return UnwrapReply<Reply>(bus_->Call(p, std::move(request)));
}

std::vector<Result<Envelope>> HermesCluster::BusCallMany(
    std::vector<std::pair<PartitionId, MessagePayload>> calls) const {
  std::vector<MessageBus::Outgoing> requests(calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    requests[i].dst = calls[i].first;
    requests[i].request.payload = std::move(calls[i].second);
  }
  return bus_->CallMany(std::move(requests));
}

template <typename Reply, typename Request>
std::map<PartitionId, Result<Reply>> HermesCluster::CallEach(
    const std::map<PartitionId, Request>& requests) const {
  std::vector<std::pair<PartitionId, MessagePayload>> calls;
  calls.reserve(requests.size());
  for (const auto& [p, request] : requests) calls.emplace_back(p, request);
  std::vector<Result<Envelope>> replies = BusCallMany(std::move(calls));
  std::map<PartitionId, Result<Reply>> unwrapped;
  auto request = requests.begin();
  for (Result<Envelope>& reply : replies) {
    unwrapped.emplace((request++)->first,
                      UnwrapReply<Reply>(std::move(reply)));
  }
  return unwrapped;
}

Status HermesCluster::Mutate(PartitionId p, MutateRequest::Entry entry) const {
  MutateRequest request;
  request.entries.push_back(std::move(entry));
  HERMES_ASSIGN_OR_RETURN(MutateReply reply,
                          Call<MutateReply>(p, std::move(request)));
  return reply.status;
}

Status HermesCluster::MutateEach(std::map<PartitionId, MutateRequest> batches,
                                 const char* step) const {
  Status first_error;
  while (!batches.empty()) {
    std::map<PartitionId, MutateRequest> rest;
    for (auto& [p, reply] : CallEach<MutateReply>(batches)) {
      const Status st = reply.ok() ? reply->status : reply.status();
      if (st.ok()) continue;
      if (first_error.ok()) first_error = st;
      std::vector<MutateRequest::Entry>& entries = batches[p].entries;
      if (!reply.ok()) {
        // Every attempt lost its reply: what applied there is unknown.
        HERMES_LOG(Warning) << step << ": " << entries.size()
                            << " entries on partition " << p
                            << " in doubt: " << st.ToString();
        continue;
      }
      // Skip the entry that failed and resend the ones after it.
      const std::size_t failed =
          std::min<std::size_t>(reply->applied, entries.size() - 1);
      HERMES_LOG(Warning) << step << ": vertex " << entries[failed].vertex
                          << " left as it was on partition " << p << ": "
                          << st.ToString();
      entries.erase(entries.begin(),
                    entries.begin() + static_cast<std::ptrdiff_t>(failed) + 1);
      if (!entries.empty()) rest[p] = std::move(batches[p]);
    }
    batches = std::move(rest);
  }
  return first_error;
}

std::size_t HermesCluster::StoreBytesLocked() const {
  std::vector<std::pair<PartitionId, MessagePayload>> calls;
  calls.reserve(num_servers());
  for (PartitionId p = 0; p < num_servers(); ++p) {
    calls.emplace_back(p, HealthRequest{});
  }
  std::size_t total = 0;
  // audit:allow(blocking, bus round-trips under the shared directory hold:
  // dispatch threads never take cluster locks (DESIGN.md §12))
  for (Result<Envelope>& reply : BusCallMany(std::move(calls))) {
    const Result<HealthReply> health =
        UnwrapReply<HealthReply>(std::move(reply));
    if (health.ok() && health->status.ok()) {
      total += static_cast<std::size_t>(health->store_bytes);
    }
  }
  return total;
}

Status HermesCluster::InitServers() {
  // Construction-time, single-threaded: no cluster locks needed or taken.
  // Endpoint layout: server p owns endpoint p, the client bus owns
  // endpoint alpha.
  const PartitionId alpha = assignment_.num_partitions();
  transport_ = std::make_unique<InProcTransport>(options_.transport);
  MessageBus::Options bus_options = options_.bus;
  servers_.reserve(alpha);
  for (PartitionId p = 0; p < alpha; ++p) {
    PartitionServer::Options server_options;
    if (durable()) {
      server_options.durability_dir =
          options_.durability_dir + "/p" + std::to_string(p);
    }
    // The dedup window must dominate the number of frames that can be in
    // flight at once (every inbox full, all addressed to one server), or
    // eviction could forget a token whose duplicate is still queued and
    // re-apply the mutation.
    server_options.dedup_window =
        options_.transport.inbox_capacity * (alpha + 1);
    HERMES_ASSIGN_OR_RETURN(
        auto server, PartitionServer::Open(p, p, transport_.get(),
                                           std::move(server_options)));
    // Start minting request ids above every idempotency token recovered
    // from the WALs: a fresh call whose id collided with a recovered token
    // would be answered from stale dedup state instead of being applied.
    bus_options.first_request_id = std::max(
        bus_options.first_request_id, server->max_recovered_token_id() + 1);
    servers_.push_back(std::move(server));
  }
  bus_ = std::make_unique<MessageBus>(transport_.get(), alpha, bus_options);
  return bus_->Start();
}

Status HermesCluster::LoadServers() {
  // Construction-time, single-threaded. Every partition's node chunks are
  // installed before any edge chunk, so a co-located half record always
  // finds both endpoints present (cross-partition halves never need the
  // remote node).
  const std::size_t n = graph_.NumVertices();
  const PartitionId alpha = assignment_.num_partitions();
  constexpr std::size_t kLoadChunk = 8192;
  std::vector<InstallChunkRequest> pending(alpha);
  auto flush = [&](PartitionId p) -> Status {
    if (pending[p].nodes.empty() && pending[p].edges.empty()) {
      return Status::OK();
    }
    HERMES_ASSIGN_OR_RETURN(
        InstallChunkReply reply,
        Call<InstallChunkReply>(p, std::move(pending[p])));
    pending[p] = InstallChunkRequest{};
    return reply.status;
  };
  for (VertexId v = 0; v < n; ++v) {
    const PartitionId p = assignment_.PartitionOf(v);
    pending[p].nodes.push_back({v, graph_.VertexWeight(v), {}});
    if (pending[p].nodes.size() >= kLoadChunk) {
      HERMES_RETURN_NOT_OK(flush(p));
    }
  }
  for (PartitionId p = 0; p < alpha; ++p) {
    HERMES_RETURN_NOT_OK(flush(p));
  }
  for (VertexId v = 0; v < n; ++v) {
    const PartitionId pv = assignment_.PartitionOf(v);
    for (VertexId w : graph_.Neighbors(v)) {
      if (w < v) continue;  // one pass per undirected edge
      const PartitionId pw = assignment_.PartitionOf(w);
      if (pv == pw) {
        pending[pv].edges.push_back({v, w, 0, true, false, {}});
      } else {
        pending[pv].edges.push_back({v, w, 0, false, false, {}});
        pending[pw].edges.push_back({w, v, 0, false, false, {}});
      }
      if (pending[pv].edges.size() >= kLoadChunk) {
        HERMES_RETURN_NOT_OK(flush(pv));
      }
      if (pv != pw && pending[pw].edges.size() >= kLoadChunk) {
        HERMES_RETURN_NOT_OK(flush(pw));
      }
    }
  }
  for (PartitionId p = 0; p < alpha; ++p) {
    HERMES_RETURN_NOT_OK(flush(p));
  }
  return Status::OK();
}

Result<std::unique_ptr<HermesCluster>> HermesCluster::Recover(
    PartitionId num_partitions, Options options) {
  if (options.durability_dir.empty()) {
    return Status::InvalidArgument("Recover() needs a durability_dir");
  }
  // Bring up the message runtime exactly as the constructor does; each
  // server recovers its store (snapshot + WAL tail) as it opens. Then
  // rebuild the logical directory from per-server Dump replies. On any
  // failure the destructor shuts the bus and transport down before the
  // servers go, so no dispatch thread outlives its server.
  std::unique_ptr<HermesCluster> cluster(
      new HermesCluster(num_partitions, std::move(options)));
  HERMES_RETURN_NOT_OK(cluster->InitServers());
  std::map<PartitionId, DumpRequest> dump_requests;
  for (PartitionId p = 0; p < num_partitions; ++p) dump_requests[p] = {};
  std::vector<DumpReply> dumps;
  dumps.reserve(num_partitions);
  for (auto& [p, dump] : cluster->CallEach<DumpReply>(dump_requests)) {
    HERMES_RETURN_NOT_OK(dump.status());
    HERMES_RETURN_NOT_OK(dump->status);
    dumps.push_back(std::move(*dump));
  }

  // Rebuild the graph view and directory from the recovered records:
  // every node record places its vertex; every non-ghost relationship
  // record contributes its edge exactly once (full records appear in one
  // store; cross-partition edges have one real and one ghost copy).
  VertexId max_id = 0;
  bool any_node = false;
  for (const DumpReply& dump : dumps) {
    for (const auto& node : dump.nodes) {
      max_id = std::max(max_id, node.id);
      any_node = true;
    }
  }
  const std::size_t n = any_node ? static_cast<std::size_t>(max_id) + 1 : 0;
  Graph graph(n);
  PartitionAssignment assignment(n, num_partitions);
  std::vector<char> seen(n, 0);
  for (PartitionId p = 0; p < num_partitions; ++p) {
    for (const auto& node : dumps[p].nodes) {
      assignment.Assign(node.id, p);
      graph.SetVertexWeight(node.id, node.weight);
      seen[node.id] = 1;
    }
  }
  // Ids below max_id with no node record anywhere were removed and never
  // re-created. Left alone they would recover as weight-1 phantoms on
  // partition 0 (the directory default) that no store hosts — Validate()
  // fails forever and InsertEdge to one diverges graph and stores.
  // Tombstone them instead: weight 0 (so partition weights are exact),
  // rejected by every mutation/read path, never migrated.
  std::vector<char> tombstoned(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (!seen[v]) {
      tombstoned[v] = 1;
      graph.SetVertexWeight(v, 0.0);
    }
  }
  for (const DumpReply& dump : dumps) {
    for (const auto& rel : dump.rels) {
      if (rel.ghost) continue;
      const Status st = graph.AddEdge(rel.src, rel.dst);
      if (!st.ok() && !st.IsAlreadyExists()) return st;
    }
  }
  cluster->graph_ = std::move(graph);
  cluster->assignment_ = std::move(assignment);
  cluster->aux_ = AuxiliaryData(cluster->graph_, cluster->assignment_);
  cluster->tombstoned_ = std::move(tombstoned);
  return cluster;
}

Status HermesCluster::Checkpoint() {
  // migration_mu_ first: a snapshot must never capture the inside of a
  // chunk (node copied to the target but the directory not yet flipped).
  MutexLock migration(&migration_mu_);
  WriterMutexLock dir(&dir_mu_);
  if (!durable()) {
    return Status::InvalidArgument("cluster is not durable");
  }
  // Fold first, so the snapshots hold every read counted so far.
  HERMES_RETURN_NOT_OK(FoldReadCountsLocked());
  // One fan-out: each server writes and syncs its snapshot while the
  // others do, and every server is asked even when one fails.
  std::map<PartitionId, CheckpointRequest> requests;
  for (PartitionId p = 0; p < num_servers(); ++p) requests[p] = {};
  Status first_error;
  // audit:allow(blocking, checkpoint is the documented quiesce point: the
  // exclusive directory hold is what makes the per-partition snapshots
  // mutually consistent, and the dispatch thread serving this call takes
  // only its own server mutex — never a cluster lock)
  for (auto& [p, reply] : CallEach<CheckpointReply>(requests)) {
    const Status st = reply.ok() ? reply->status : reply.status();
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

Result<HermesCluster::TraversalRun> HermesCluster::ExecuteRead(VertexId start,
                                                               int hops) {
  // The shared directory hold pins every vertex's placement for the whole
  // traversal; per-server serialization happens on the dispatch threads,
  // so concurrent traversals (and writes to other partitions) interleave.
  ReaderMutexLock dir(&dir_mu_);
  if (start >= assignment_.size()) {
    return Status::OutOfRange("start vertex out of range");
  }
  if (tombstoned_[start]) {
    return Status::NotFound("start vertex is tombstoned");
  }
  const PartitionId p0 = assignment_.PartitionOf(start);
  TraversalRun run;
  run.segments.emplace_back(p0, 1);
  run.vertices_processed = 1;
  run.unique_vertices = 1;

  // Level-synchronous scatter-gather: at each hop the query is forwarded
  // once to every server that hosts touched vertices — a single
  // NeighborsRequest carries the whole level's vertices for that server,
  // not one message per edge — and the level's requests are all in
  // flight at once, so a level costs one round trip. Replies are
  // processed in partition order. Touching a vertex's record happens on
  // its host, so the per-server visit counts — and the number of
  // distinct remote servers per level — are what edge-cut controls.
  // One bit per directory entry and one counter per partition: a read
  // pays per adjacency list, not per visited vertex, for its bookkeeping.
  const PartitionId alpha = assignment_.num_partitions();
  std::vector<bool> seen(assignment_.size());
  seen[start] = true;
  std::vector<VertexId> level{start};
  PartitionId position = p0;  // server currently holding the traversal
  for (int depth = 0; depth < std::max(hops, 1) && !level.empty(); ++depth) {
    std::vector<NeighborsRequest> batches(alpha);
    for (VertexId v : level) {
      batches[assignment_.PartitionOf(v)].vertices.push_back(v);
    }
    std::vector<std::pair<PartitionId, MessagePayload>> calls;
    for (PartitionId pv = 0; pv < alpha; ++pv) {
      if (batches[pv].vertices.empty()) continue;
      // Level 0 is the start alone; its server counts the read.
      batches[pv].count_reads = depth == 0 && options_.count_reads_in_weights;
      calls.emplace_back(pv, std::move(batches[pv]));
    }
    // audit:allow(blocking, bus round-trips under the shared directory
    // hold: the dispatch threads serving them take only their own server
    // mutex, never a cluster lock, so every reply arrives or its call
    // times out retryably (DESIGN.md §12))
    std::vector<Result<Envelope>> replies = BusCallMany(std::move(calls));
    std::vector<NeighborsReply> fetched;
    fetched.reserve(replies.size());
    for (Result<Envelope>& reply : replies) {
      HERMES_ASSIGN_OR_RETURN(NeighborsReply neighbors,
                              UnwrapReply<NeighborsReply>(std::move(reply)));
      HERMES_RETURN_NOT_OK(neighbors.status);
      fetched.push_back(std::move(neighbors));
    }
    if (depth == 0 && (fetched[0].results.size() != 1 ||
                       !fetched[0].results[0].status.ok())) {
      return Status::Unavailable("start vertex unavailable (mid-migration)");
    }
    if (depth >= hops) break;  // hops <= 0: the start fetch is the read

    std::vector<VertexId> next_level;
    std::vector<std::uint32_t> visits_by_server(alpha, 0);
    for (const NeighborsReply& reply : fetched) {
      for (const auto& adjacency : reply.results) {
        // Per-vertex failure = unavailable (mid-migration barrier): skip
        // the vertex, keep the batch.
        if (!adjacency.status.ok()) continue;
        run.vertices_processed += adjacency.neighbors.size();
        for (VertexId w : adjacency.neighbors) {
          ++visits_by_server[assignment_.PartitionOf(w)];
          if (!seen[w]) {
            seen[w] = true;
            ++run.unique_vertices;
            next_level.push_back(w);
          }
        }
      }
    }
    // Serve the local batch first, then hop to each remote server once.
    run.segments.back().second += visits_by_server[position];
    visits_by_server[position] = 0;
    for (PartitionId server = 0; server < alpha; ++server) {
      const std::uint32_t visits = visits_by_server[server];
      if (visits == 0) continue;
      ++run.remote_hops;
      run.segments.emplace_back(server, visits);
      position = server;
      if (options_.read_hop_latency_us > 0.0) {
        // Model the remote round-trip with a real wait. No server is
        // blocked on this: only the shared directory hold spans the
        // simulated hop, so concurrent readers overlap their waits.
        // audit:allow(blocking, network-latency model: only the shared
        // directory hold spans the simulated hop, so readers overlap and
        // writers wait exactly as a remote fetch would make them)
        std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
            options_.read_hop_latency_us));
      }
    }
    level = std::move(next_level);
  }
  m_reads_->Increment();
  m_read_remote_hops_->Increment(run.remote_hops);
  return run;
}

Status HermesCluster::FoldReadCounts() {
  ReaderMutexLock dir(&dir_mu_);
  return FoldReadCountsLocked();
}

Status HermesCluster::FoldReadCountsLocked() {
  if (!options_.count_reads_in_weights) return Status::OK();
  std::vector<std::pair<PartitionId, MessagePayload>> calls;
  calls.reserve(num_servers());
  for (PartitionId p = 0; p < num_servers(); ++p) {
    calls.emplace_back(p, AuxExchangeRequest{});
  }
  // audit:allow(blocking, bus round-trips under the directory hold — same
  // non-deadlock argument as ExecuteRead's fan-out)
  std::vector<Result<Envelope>> replies = BusCallMany(std::move(calls));
  Status first_error;
  MutexLock topo(&topo_mu_);
  for (Result<Envelope>& envelope : replies) {
    Result<AuxExchangeReply> reply =
        UnwrapReply<AuxExchangeReply>(std::move(envelope));
    const Status st = reply.ok() ? reply->status : reply.status();
    if (first_error.ok()) first_error = st;
    if (!reply.ok()) continue;
    // Even a failed fold lists the counts its store took before the
    // failure; applying them keeps graph_, aux_ and the stores equal.
    for (const AuxExchangeReply::Entry& entry : reply->folded) {
      const double delta = static_cast<double>(entry.reads);
      graph_.AddVertexWeight(entry.vertex, delta);
      aux_.OnVertexWeightChanged(entry.vertex, delta, assignment_);
    }
  }
  return first_error;
}

NeighborProvider HermesCluster::MakeNeighborProvider() const {
  return [this](VertexId v, std::optional<std::uint32_t> type)
             -> Result<std::vector<VertexId>> {
    ReaderMutexLock dir(&dir_mu_);
    if (v >= assignment_.size()) {
      return Status::OutOfRange("vertex out of range");
    }
    if (tombstoned_[v]) {
      return Status::NotFound("vertex is tombstoned");
    }
    const PartitionId p = assignment_.PartitionOf(v);
    NeighborsRequest req;
    req.vertices.push_back(v);
    req.has_type = type.has_value();
    req.type = type.value_or(0);
    // audit:allow(blocking, bus round-trip under the shared directory
    // hold: dispatch threads never take cluster locks (DESIGN.md §12))
    HERMES_ASSIGN_OR_RETURN(NeighborsReply reply,
                            Call<NeighborsReply>(p, std::move(req)));
    HERMES_RETURN_NOT_OK(reply.status);
    if (reply.results.size() != 1) {
      return Status::Internal("neighbors reply shape mismatch");
    }
    HERMES_RETURN_NOT_OK(reply.results[0].status);
    return std::move(reply.results[0].neighbors);
  };
}

Result<VertexId> HermesCluster::InsertVertex(double weight) {
  // The vertex-id space grows: exclusive directory hold (which also
  // excludes every other cluster-side capability).
  WriterMutexLock dir(&dir_mu_);
  VertexId id;
  {
    MutexLock topo(&topo_mu_);
    id = graph_.AddVertex(weight);
  }
  const PartitionId p =
      HashPartitioner(1).PartitionFor(id, assignment_.num_partitions());
  assignment_.AddVertex(p);
  tombstoned_.push_back(0);
  {
    MutexLock topo(&topo_mu_);
    aux_.OnVertexAdded(p, weight);
  }
  // audit:allow(blocking, bus round-trip under the exclusive directory
  // hold: the dispatch thread serving it takes only its own server mutex,
  // never a cluster lock (DESIGN.md §12))
  const Status created = Mutate(
      p, {.op = MutateRequest::Op::kCreateNode, .vertex = id, .weight = weight});
  if (!created.ok()) {
    // The store never saw the node (the send failed before apply), so
    // tombstoning the burned id keeps directory and stores in agreement;
    // the weight contribution is cancelled rather than the aux row
    // removed (ids are append-only).
    tombstoned_[id] = 1;
    MutexLock topo(&topo_mu_);
    aux_.OnVertexWeightChanged(id, -weight, assignment_);
    return created;
  }
  m_writes_->Increment();
  return id;
}

Status HermesCluster::InsertEdge(VertexId u, VertexId v, std::uint32_t type) {
  ReaderMutexLock dir(&dir_mu_);
  if (u >= assignment_.size() || v >= assignment_.size()) {
    return Status::OutOfRange("endpoint out of range");
  }
  if (tombstoned_[u] || tombstoned_[v]) {
    return Status::NotFound("endpoint is tombstoned");
  }
  Transaction txn = txns_.Begin();
  // Lock both endpoints in id order to keep lock acquisition ordered;
  // conflicting workloads still resolve deadlocks by timeout.
  // audit:allow(blocking, 2PL under directory stability: the shared dir
  // hold pins the topology while vertex locks are acquired, and the lock
  // manager bounds the wait with the deadlock timeout)
  HERMES_RETURN_NOT_OK(txn.LockExclusive(std::min(u, v)));
  // audit:allow(blocking, same 2PL acquisition as the line above)
  HERMES_RETURN_NOT_OK(txn.LockExclusive(std::max(u, v)));

  {
    MutexLock topo(&topo_mu_);
    const Status st = graph_.AddEdge(u, v);
    if (!st.ok()) {
      txn.Abort();
      return st;
    }
  }
  const PartitionId pu = assignment_.PartitionOf(u);
  const PartitionId pv = assignment_.PartitionOf(v);
  // Write the half records through the bus; each owning server serializes
  // its own store, and the exclusive record locks above make the pair of
  // sends atomic with respect to competing writers.
  bool first_half_stranded = false;
  // audit:allow(blocking, bus round-trip under the shared directory
  // hold: dispatch threads never take cluster locks (DESIGN.md §12))
  Status store_st = Mutate(pu, {.op = MutateRequest::Op::kAddEdge,
                                .vertex = u,
                                .other = v,
                                .type_or_key = type,
                                .other_is_local = pu == pv});
  if (pu != pv && store_st.ok()) {
    // audit:allow(blocking, same bus round-trip contract as above)
    store_st = Mutate(pv, {.op = MutateRequest::Op::kAddEdge,
                           .vertex = v,
                           .other = u,
                           .type_or_key = type});
    if (!store_st.ok()) {
      // v's half failed after u's succeeded: undo u's half so the two
      // stores agree before we roll back the graph view.
      // audit:allow(blocking, same bus round-trip contract as above)
      const Status undo = Mutate(
          pu, {.op = MutateRequest::Op::kRemoveEdge, .vertex = u, .other = v});
      first_half_stranded = !undo.ok();
    }
  }
  if (!store_st.ok()) {
    // Roll back the graph edge and abort: without this, graph_ keeps an
    // edge the stores never materialized, aux_ is never updated, and the
    // transaction leaks its record locks until destruction — Validate()
    // then fails forever.
    {
      // The edge is provably present: this transaction added it under the
      // endpoints' exclusive record locks, which it still holds.
      MutexLock topo(&topo_mu_);
      HERMES_CHECK_OK(graph_.RemoveEdge(u, v));
    }
    if (first_half_stranded) {
      // Double fault: the rollback write itself failed (e.g. the WAL is
      // rejecting appends, or the reply was lost). The half record on
      // pu's store is stranded until recovery; surface it rather than
      // hiding it.
      HERMES_LOG(Warning) << "InsertEdge rollback failed; edge {" << u << ","
                          << v << "} half record stranded on partition "
                          << pu;
    }
    txn.Abort();
    return store_st;
  }
  {
    MutexLock topo(&topo_mu_);
    aux_.OnEdgeAdded(u, v, assignment_);
  }
  txn.Commit();
  m_writes_->Increment();
  return Status::OK();
}

Result<MigrationStats> HermesCluster::RunLightweightRepartition() {
  ScopedTimer timer(m_repartition_us_);
  MutexLock migration(&migration_mu_);
  // audit:allow(blocking, only migration_mu_ — the repartition
  // serialization token, which guards no reader or writer path — is held)
  HERMES_RETURN_NOT_OK(FoldReadCounts());
  LightweightRepartitioner repartitioner(options_.repartitioner);
  RepartitionResult logical;
  std::optional<PartitionAssignment> target;
  std::optional<Graph> graph_copy;
  AuxiliaryData aux_copy;
  {
    // Phase one (logical) runs on copies of the directory, topology, and
    // auxiliary data: the locks are held only long enough to snapshot a
    // consistent triple, then released before the algorithm iterates —
    // readers keep traversing the live directory the whole time
    // (RepartitionDoesNotBlockReaders). migration_mu_ alone serializes
    // concurrent repartitions, and MigrateDiffChunked re-snapshots the
    // live directory, so mutations that land during the computation only
    // make the chosen placement stale, never wrong.
    ReaderMutexLock dir(&dir_mu_);
    MutexLock topo(&topo_mu_);
    target = assignment_;
    graph_copy = graph_;
    aux_copy = aux_;
  }
  // audit:allow(blocking, only migration_mu_ — the repartition-serialization
  // token — spans the computation; it guards no reader or writer path)
  logical = repartitioner.Run(*graph_copy, &*target, &aux_copy);
  graph_copy.reset();
  HERMES_ASSIGN_OR_RETURN(MigrationStats stats, MigrateDiffChunked(*target));
  stats.repartitioner_iterations = logical.iterations;
  stats.repartitioner_converged = logical.converged;
  stats.aux_bytes_exchanged = logical.aux_bytes_exchanged;
  stats.edge_cut_fraction_before = logical.initial_edge_cut_fraction;
  stats.edge_cut_fraction_after = logical.final_edge_cut_fraction;
  stats.imbalance_before = logical.initial_imbalance;
  stats.imbalance_after = logical.final_imbalance;
  return stats;
}

Result<MigrationStats> HermesCluster::MigrateToAssignment(
    const PartitionAssignment& target) {
  MutexLock migration(&migration_mu_);
  // audit:allow(blocking, only migration_mu_ — the repartition
  // serialization token, which guards no reader or writer path — is held)
  HERMES_RETURN_NOT_OK(FoldReadCounts());
  double cut_before = 0.0;
  double imbalance_before = 0.0;
  {
    WriterMutexLock dir(&dir_mu_);
    if (target.size() != assignment_.size() ||
        target.num_partitions() != assignment_.num_partitions()) {
      return Status::InvalidArgument("assignment shape mismatch");
    }
    MutexLock topo(&topo_mu_);
    cut_before = EdgeCutFraction(graph_, assignment_);
    imbalance_before = ImbalanceFactor(graph_, assignment_);
  }
  HERMES_ASSIGN_OR_RETURN(MigrationStats stats, MigrateDiffChunked(target));
  stats.edge_cut_fraction_before = cut_before;
  stats.imbalance_before = imbalance_before;
  {
    WriterMutexLock dir(&dir_mu_);
    MutexLock topo(&topo_mu_);
    stats.edge_cut_fraction_after = EdgeCutFraction(graph_, assignment_);
    stats.imbalance_after = ImbalanceFactor(graph_, assignment_);
    // A global repartitioner invalidates the incremental counts; rebuild.
    aux_ = AuxiliaryData(graph_, assignment_);
  }
  return stats;
}

Result<MigrationStats> HermesCluster::MigrateDiffChunked(
    const PartitionAssignment& target) {
  MigrationStats stats;
  PartitionId alpha = 1;
  std::vector<VertexId> moved;
  std::optional<PartitionAssignment> after;
  {
    WriterMutexLock dir(&dir_mu_);
    alpha = assignment_.num_partitions();
    // Snapshot the final placement now: `target` may be narrower than the
    // live directory if InsertVertex ran since the caller computed it.
    // Vertices past target.size() (and tombstones) simply don't move.
    after = assignment_;
    const std::size_t n = std::min(target.size(), after->size());
    for (VertexId v = 0; v < n; ++v) {
      if (tombstoned_[v]) continue;
      if (after->PartitionOf(v) != target.PartitionOf(v)) {
        after->Assign(v, target.PartitionOf(v));
        moved.push_back(v);
      }
    }
    MutexLock topo(&topo_mu_);
    stats.relationships_touched =
        RelationshipsTouched(graph_, assignment_, *after);
  }
  stats.vertices_moved = moved.size();
  if (moved.empty()) return stats;

  const std::size_t chunk_size =
      options_.migration_chunk == 0 ? moved.size() : options_.migration_chunk;
  std::vector<SimTime> target_busy(alpha, 0.0);
  std::vector<SimTime> source_busy(alpha, 0.0);

  std::vector<VertexId> chunk;
  for (std::size_t begin = 0; begin < moved.size(); begin += chunk_size) {
    const std::size_t end = std::min(moved.size(), begin + chunk_size);
    chunk.assign(moved.begin() + begin, moved.begin() + end);
    ++stats.chunks;
    // Both parallel to `chunk`.
    std::vector<ExtractReply::Snapshot> extracts;
    std::vector<PartitionId> sources;
    extracts.reserve(chunk.size());
    sources.reserve(chunk.size());

    // --- Copy step (exclusive directory hold, which excludes every other
    // cluster-side capability): three fan-outs, each one request per
    // server. Extract the chunk off its sources, replicate it on the
    // targets, then mark the originals unavailable so the barrier window
    // below is observable to readers (Section 3.2: the directory still
    // routes to the source, whose record answers Unavailable).
    {
      WriterMutexLock dir(&dir_mu_);
      ScopedTimer copy_timer(m_migration_copy_us_);
      std::map<PartitionId, ExtractRequest> extract_requests;
      for (VertexId v : chunk) {
        sources.push_back(assignment_.PartitionOf(v));
        extract_requests[sources.back()].vertices.push_back(v);
      }
      // Extraction is read-only: a failure here aborts the chunk with
      // nothing to unwind.
      // audit:allow(blocking, bus round-trips under the exclusive
      // directory hold: the dispatch threads serving them take only their
      // own server mutex, never a cluster lock (DESIGN.md §12))
      auto extracted = CallEach<ExtractReply>(extract_requests);
      for (auto& [sp, reply] : extracted) {
        HERMES_RETURN_NOT_OK(reply.status());
        HERMES_RETURN_NOT_OK(reply->status);
        if (reply->snapshots.size() !=
            extract_requests[sp].vertices.size()) {
          return Status::Internal("extract reply shape mismatch");
        }
      }
      // A source's snapshots come in the chunk's order.
      std::vector<std::size_t> next_snapshot(alpha, 0);
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        ExtractReply::Snapshot& snap =
            extracted.at(sources[i])->snapshots[next_snapshot[sources[i]]++];
        stats.bytes_copied += snap.wire_bytes;
        target_busy[after->PartitionOf(snap.id)] +=
            static_cast<SimTime>(snap.wire_bytes) * options_.net.per_byte_us +
            static_cast<SimTime>(1 + snap.relationships.size()) *
                options_.net.write_op_us;
        extracts.push_back(std::move(snap));
      }
      // Group the replicas into one InstallChunk per target server. The
      // server creates node records before edges, so edges between
      // co-migrating vertices find both endpoints present. The targets
      // install in parallel: an edge to a vertex bound for another target
      // is a half record, so no install reads another's records.
      std::map<PartitionId, InstallChunkRequest> installs;
      for (const ExtractReply::Snapshot& snap : extracts) {
        const PartitionId tp = after->PartitionOf(snap.id);
        InstallChunkRequest& req = installs[tp];
        req.nodes.push_back({snap.id, snap.weight, snap.properties});
        for (const auto& rel : snap.relationships) {
          // Each chunk is an independent classic migration epoch against
          // the live directory: a neighbor's locality is its placement as
          // of the END of this chunk (co-chunk movers land with us; later
          // chunks are still where the live directory says, and their own
          // epoch upgrades the half record to full when they arrive — the
          // ghost rule is id-derived, so both sides stay consistent).
          const bool other_in_chunk =
              std::binary_search(chunk.begin(), chunk.end(), rel.other);
          const PartitionId other_p = other_in_chunk
                                          ? after->PartitionOf(rel.other)
                                          : assignment_.PartitionOf(rel.other);
          req.edges.push_back({snap.id, rel.other, rel.type, other_p == tp,
                               rel.properties_included, rel.properties});
        }
      }
      // Progress is tracked through the replies, so that a mid-chunk
      // storage failure (a WAL append rejected on a target, say) unwinds
      // to the pre-chunk state instead of leaving a vertex hosted by two
      // stores with the directory still at the source. `unwind` collects,
      // per server, the entries that undo what the chunk applied there.
      Status copy_st;
      std::map<PartitionId, MutateRequest> unwind;
      // audit:allow(blocking, bus round-trips under the exclusive
      // directory hold — same non-deadlock argument as the extract)
      for (auto& [tp, reply] : CallEach<InstallChunkReply>(installs)) {
        const Status st = reply.ok() ? reply->status : reply.status();
        if (copy_st.ok()) copy_st = st;
        if (!reply.ok()) {
          HERMES_LOG(Warning) << "migration unwind: the replicas installed "
                                 "on partition "
                              << tp << " are in doubt: " << st.ToString();
          continue;
        }
        const auto& nodes = installs[tp].nodes;
        for (std::uint64_t i = 0; i < reply->nodes_created && i < nodes.size();
             ++i) {
          unwind[tp].entries.push_back(
              {.op = MutateRequest::Op::kRemoveNode, .vertex = nodes[i].id});
        }
      }
      if (copy_st.ok()) {
        std::map<PartitionId, MutateRequest> marks;
        for (std::size_t i = 0; i < chunk.size(); ++i) {
          marks[sources[i]].entries.push_back(
              {.op = MutateRequest::Op::kSetNodeState,
               .vertex = chunk[i],
               .node_state = WireNodeState::kUnavailable});
        }
        // audit:allow(blocking, bus round-trips under the exclusive
        // directory hold — same non-deadlock argument as the extract)
        for (auto& [sp, reply] : CallEach<MutateReply>(marks)) {
          const Status st = reply.ok() ? reply->status : reply.status();
          if (copy_st.ok()) copy_st = st;
          // A lost reply may have marked any prefix: re-mark them all
          // (marking an available vertex available changes nothing).
          const std::vector<MutateRequest::Entry>& entries =
              marks[sp].entries;
          const std::size_t marked =
              reply.ok() ? std::min<std::size_t>(reply->applied, entries.size())
                         : entries.size();
          for (std::size_t i = 0; i < marked; ++i) {
            unwind[sp].entries.push_back(
                {.op = MutateRequest::Op::kSetNodeState,
                 .vertex = entries[i].vertex,
                 .node_state = WireNodeState::kAvailable});
          }
        }
      }
      if (!copy_st.ok()) {
        // Unwind under the same exclusive directory hold, so no reader or
        // writer ever observes the half-replicated chunk. Removing a
        // target replica degrades any co-located records it upgraded back
        // to the half records they were before this chunk (the degrade
        // rule node removal always applies), so the pre-chunk
        // representation is restored exactly. Unwind writes are
        // best-effort: under a persistent storage fault they can fail too
        // — MutateEach warns loudly and keeps going so as much of the
        // chunk as possible is released, then the original error surfaces.
        // audit:allow(blocking, bus round-trips under the exclusive
        // directory hold — same non-deadlock argument as the extract)
        const Status unwound =
            MutateEach(std::move(unwind), "migration unwind");
        if (!unwound.ok()) {
          HERMES_LOG(Warning) << "migration unwind incomplete ("
                              << unwound.ToString() << ") after "
                              << copy_st.ToString();
        }
        return copy_st;
      }
    }

    // --- Synchronization barrier: every lock released, so reads and
    // writes interleave with the in-flight migration here and observe the
    // unavailable-record semantics for this chunk's vertices.
    if (options_.migration_barrier_hook) {
      options_.migration_barrier_hook(chunk);
    }

    // --- Remove step: flip the directory and shift the auxiliary
    // counters for the whole chunk, then delete the originals with one
    // request per source. Every chunk vertex is routed to its target
    // before any remove is sent, so a failed remove leaves an unavailable
    // copy at its source that nothing routes to, never an unreadable
    // vertex (DESIGN.md §9).
    {
      WriterMutexLock dir(&dir_mu_);
      ScopedTimer remove_timer(m_migration_remove_us_);
      std::map<PartitionId, MutateRequest> removes;
      {
        MutexLock topo(&topo_mu_);
        for (std::size_t i = 0; i < extracts.size(); ++i) {
          const ExtractReply::Snapshot& snap = extracts[i];
          const PartitionId sp = sources[i];
          const PartitionId tp = after->PartitionOf(snap.id);
          // Live counters (not the phase-one copies). The extracted
          // weight includes the reads counted on the source since the
          // last fold; the source drops them with the record below, so
          // the vertex takes that weight here.
          aux_.OnVertexWeightChanged(
              snap.id, snap.weight - graph_.VertexWeight(snap.id),
              assignment_);
          graph_.SetVertexWeight(snap.id, snap.weight);
          aux_.OnVertexMigrated(graph_, snap.id, sp, tp);
          assignment_.Assign(snap.id, tp);
          source_busy[sp] +=
              static_cast<SimTime>(1 + snap.relationships.size()) *
              options_.net.write_op_us;
          removes[sp].entries.push_back(
              {.op = MutateRequest::Op::kRemoveNode, .vertex = snap.id});
        }
      }
      // audit:allow(blocking, bus round-trips under the exclusive
      // directory hold — same non-deadlock argument as the extract)
      HERMES_RETURN_NOT_OK(MutateEach(std::move(removes), "migration remove"));
    }
  }

  stats.copy_time_us =
      *std::max_element(target_busy.begin(), target_busy.end());
  stats.total_time_us =
      stats.copy_time_us +
      static_cast<SimTime>(stats.chunks) * options_.net.migration_barrier_us +
      *std::max_element(source_busy.begin(), source_busy.end());
  m_migrations_->Increment();
  m_vertices_migrated_->Increment(stats.vertices_moved);
  m_migration_bytes_->Increment(stats.bytes_copied);
  return stats;
}

bool HermesCluster::Validate(std::size_t sample, std::uint64_t seed) const {
  WriterMutexLock dir(&dir_mu_);
  MutexLock topo(&topo_mu_);
  // Everything below goes through the message protocol too — validation
  // exercises the same probes a remote client would. Any bus-level error
  // counts as an inconsistency (strict by design).
  auto probe = [this](PartitionId p, ProbeRequest::Mode mode, VertexId v,
                      VertexId other) -> Result<bool> {
    // audit:allow(blocking, bus round-trip under the exclusive directory
    // hold: the dispatch thread serving it takes only its own server
    // mutex, never a cluster lock (DESIGN.md §12))
    HERMES_ASSIGN_OR_RETURN(
        ProbeReply reply,
        Call<ProbeReply>(p, ProbeRequest{mode, v, other}));
    HERMES_RETURN_NOT_OK(reply.status);
    return reply.truth;
  };
  const std::size_t n = graph_.NumVertices();
  Rng rng(seed);
  const bool all = (sample == 0 || sample >= n);
  const std::size_t rounds = all ? n : sample;
  for (std::size_t i = 0; i < rounds; ++i) {
    const VertexId v = all ? static_cast<VertexId>(i) : rng.Uniform(n);
    if (tombstoned_[v]) {
      // A tombstoned id must not exist in any store.
      for (PartitionId p = 0; p < num_servers(); ++p) {
        const Result<bool> exists =
            probe(p, ProbeRequest::Mode::kNodeExists, v, 0);
        if (!exists.ok() || *exists) return false;
      }
      continue;
    }
    const PartitionId pv = assignment_.PartitionOf(v);
    const Result<bool> hosted = probe(pv, ProbeRequest::Mode::kHasNode, v, 0);
    if (!hosted.ok() || !*hosted) return false;
    // No other store may host v.
    for (PartitionId p = 0; p < num_servers(); ++p) {
      if (p == pv) continue;
      const Result<bool> exists =
          probe(p, ProbeRequest::Mode::kNodeExists, v, 0);
      if (!exists.ok() || *exists) return false;
    }
    NeighborsRequest req;
    req.vertices.push_back(v);
    // audit:allow(blocking, bus round-trip under the exclusive directory
    // hold — same non-deadlock argument as the probe lambda)
    const Result<NeighborsReply> reply =
        Call<NeighborsReply>(pv, std::move(req));
    if (!reply.ok() || !reply->status.ok() || reply->results.size() != 1 ||
        !reply->results[0].status.ok()) {
      return false;
    }
    // Both lists are in ascending id order.
    const std::vector<VertexId>& from_store = reply->results[0].neighbors;
    const auto expected = graph_.Neighbors(v);
    if (from_store.size() != expected.size() ||
        !std::equal(from_store.begin(), from_store.end(), expected.begin())) {
      return false;
    }
    // Ghost discipline: cross-partition edges have exactly one ghost copy;
    // co-located edges have a single non-ghost record.
    for (VertexId w : expected) {
      const PartitionId pw = assignment_.PartitionOf(w);
      const Result<bool> mine =
          probe(pv, ProbeRequest::Mode::kEdgeIsGhost, v, w);
      const Result<bool> theirs =
          probe(pw, ProbeRequest::Mode::kEdgeIsGhost, w, v);
      if (!mine.ok() || !theirs.ok()) return false;
      if (pv == pw) {
        if (*mine || *theirs) return false;
      } else {
        if (*mine == *theirs) return false;
      }
    }
  }
  return true;
}

std::size_t HermesCluster::TotalStoreBytes() const {
  ReaderMutexLock dir(&dir_mu_);
  return StoreBytesLocked();
}

hermes::MetricsSnapshot HermesCluster::MetricsSnapshot() const {
  auto& registry = MetricsRegistry::Global();
  {
    // Refresh point-in-time gauges under the directory lock, then
    // snapshot. The registry mutex is a leaf, so every acquisition here
    // respects the lock order.
    ReaderMutexLock dir(&dir_mu_);
    registry.GetGauge("cluster.store_bytes")
        ->Set(static_cast<double>(StoreBytesLocked()));
    MutexLock topo(&topo_mu_);
    registry.GetGauge("cluster.num_vertices")
        ->Set(static_cast<double>(graph_.NumVertices()));
    registry.GetGauge("cluster.num_edges")
        ->Set(static_cast<double>(graph_.NumEdges()));
    registry.GetGauge("cluster.imbalance")
        ->Set(ImbalanceFactor(graph_, assignment_));
  }
  return registry.Snapshot();
}

}  // namespace hermes
