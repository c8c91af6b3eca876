#include "server/partition_server.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "graphdb/durable_store.h"
#include "graphdb/graph_store.h"
#include "graphdb/node_snapshot.h"
#include "storage/fd_appender.h"
#include "storage/records.h"

namespace hermes {

namespace {

/// Default dedup window when Options::dedup_window is 0. Standalone
/// servers (tests, benches) see at most a few in-flight frames; the
/// cluster overrides this with inbox capacity x endpoint count so a
/// token can never be evicted while its duplicate is still queued.
constexpr std::size_t kDefaultDedupWindow = 4096;

// The one conversion from a mutating request to the WAL entries that
// carry it to the store: each entry of a MutateRequest, each node, edge
// and property of an install chunk and each entry of a fold. Every entry
// carries the request's idempotency token.

WalEntry ToWalEntry(const MutateRequest::Entry& m, const WalToken& token) {
  WalEntry e{.a = m.vertex, .token = token};
  switch (m.op) {
    case MutateRequest::Op::kCreateNode:
      e.type = WalOpType::kCreateNode;
      e.weight = m.weight;
      break;
    case MutateRequest::Op::kRemoveNode:
      e.type = WalOpType::kRemoveNode;
      break;
    case MutateRequest::Op::kSetNodeState:
      e.type = WalOpType::kSetNodeState;
      e.flag = static_cast<std::uint8_t>(m.node_state);
      break;
    case MutateRequest::Op::kAddNodeWeight:
      e.type = WalOpType::kAddNodeWeight;
      e.weight = m.weight;
      break;
    case MutateRequest::Op::kAddEdge:
      e.type = WalOpType::kAddEdge;
      e.b = m.other;
      e.key = m.type_or_key;
      e.flag = m.other_is_local;
      break;
    case MutateRequest::Op::kRemoveEdge:
      e.type = WalOpType::kRemoveEdge;
      e.b = m.other;
      break;
    case MutateRequest::Op::kSetNodeProperty:
      e.type = WalOpType::kSetNodeProperty;
      e.key = m.type_or_key;
      e.payload = m.value;
      break;
    case MutateRequest::Op::kSetEdgeProperty:
      e.type = WalOpType::kSetEdgeProperty;
      e.b = m.other;
      e.key = m.type_or_key;
      e.payload = m.value;
      break;
  }
  return e;
}

WalEntry ToWalEntry(const InstallChunkRequest::Node& node,
                    const WalToken& token) {
  return {.type = WalOpType::kCreateNode,
          .a = node.id,
          .weight = node.weight,
          .token = token};
}

WalEntry ToWalEntry(const InstallChunkRequest::Node& node,
                    const WireProperty& prop, const WalToken& token) {
  return {.type = WalOpType::kSetNodeProperty,
          .a = node.id,
          .key = prop.key,
          .token = token,
          .payload = prop.value};
}

WalEntry ToWalEntry(const InstallChunkRequest::Edge& edge,
                    const WalToken& token) {
  return {.type = WalOpType::kAddEdge,
          .a = edge.v,
          .b = edge.other,
          .key = edge.type,
          .flag = edge.other_is_local,
          .token = token};
}

WalEntry ToWalEntry(const InstallChunkRequest::Edge& edge,
                    const WireProperty& prop, const WalToken& token) {
  return {.type = WalOpType::kSetEdgeProperty,
          .a = edge.v,
          .b = edge.other,
          .key = prop.key,
          .token = token,
          .payload = prop.value};
}

WalEntry ToWalEntry(const AuxExchangeReply::Entry& fold,
                    const WalToken& token) {
  return {.type = WalOpType::kAddNodeWeight,
          .a = fold.vertex,
          .weight = static_cast<double>(fold.reads),
          .token = token};
}

}  // namespace

PartitionServer::PartitionServer(PartitionId partition, EndpointId endpoint,
                                 Transport* transport,
                                 std::unique_ptr<GraphStore> mem_store,
                                 std::unique_ptr<DurableGraphStore> durable,
                                 GraphStore* store, std::size_t dedup_window)
    : partition_(partition),
      endpoint_(endpoint),
      transport_(transport),
      label_("server.p" + std::to_string(partition)),
      mu_(label_.c_str(),
          lock_order::kRankPartitionBase + static_cast<int>(partition)),
      mem_store_(std::move(mem_store)),
      durable_(std::move(durable)),
      durable_raw_(durable_.get()),
      store_(store),
      dedup_window_(dedup_window == 0 ? kDefaultDedupWindow : dedup_window),
      m_requests_(MetricsRegistry::Global().GetCounter("server.requests")),
      m_duplicates_(
          MetricsRegistry::Global().GetCounter("server.duplicate_requests")),
      m_decode_errors_(
          MetricsRegistry::Global().GetCounter("server.decode_errors")),
      m_reply_errors_(
          MetricsRegistry::Global().GetCounter("server.reply_errors")),
      m_dedup_hits_(MetricsRegistry::Global().GetCounter("msg.dedup_hits")) {}

PartitionServer::~PartitionServer() = default;

Result<std::unique_ptr<PartitionServer>> PartitionServer::Open(
    PartitionId partition, EndpointId endpoint, Transport* transport,
    Options options) {
  std::unique_ptr<GraphStore> mem_store;
  std::unique_ptr<DurableGraphStore> durable;
  GraphStore* store = nullptr;
  if (options.durability_dir.empty()) {
    mem_store = std::make_unique<GraphStore>(partition);
    store = mem_store.get();
  } else {
    HERMES_RETURN_NOT_OK(CreateDirectories(options.durability_dir));
    HERMES_ASSIGN_OR_RETURN(
        durable, DurableGraphStore::Open(partition, options.durability_dir));
    store = durable->mutable_store();
  }
  std::unique_ptr<PartitionServer> server(new PartitionServer(
      partition, endpoint, transport, std::move(mem_store), std::move(durable),
      store, options.dedup_window));
  PartitionServer* raw = server.get();
  if (raw->durable_raw_ != nullptr) {
    // Seed the dedup table with every token the WAL still remembers: a
    // client whose reply died with the crashed process is about to retry,
    // and that retry must be answered (RecoveredReplyLocked), never
    // re-applied. The endpoint is not registered yet, so this lock is
    // uncontended — it exists for the thread-safety analysis.
    MutexLock lock(&raw->mu_);
    for (const WalToken& token : raw->durable_raw_->recovered_tokens()) {
      const DedupKey key{static_cast<EndpointId>(token.src), token.id};
      if (raw->seen_.insert(key).second) {
        raw->seen_fifo_.push_back(key);
      }
      raw->max_recovered_token_id_ =
          std::max(raw->max_recovered_token_id_, token.id);
    }
    while (raw->seen_fifo_.size() > raw->dedup_window_) {
      raw->seen_.erase(raw->seen_fifo_.front());
      raw->seen_fifo_.pop_front();
    }
  }
  HERMES_RETURN_NOT_OK(transport->OpenEndpoint(
      endpoint, [raw](std::string frame) { raw->HandleFrame(std::move(frame)); }));
  return server;
}

void PartitionServer::HandleFrame(std::string frame) {
  auto env = DecodeFrame(frame);
  if (!env.ok()) {
    // No request id to answer to; the caller's timeout surfaces the loss.
    m_decode_errors_->Increment();
    return;
  }
  const bool mutating = IsMutatingRequest(env->payload);
  const auto* read = std::get_if<NeighborsRequest>(&env->payload);
  const bool counted_read = read != nullptr && read->count_reads;
  const DedupKey key{env->src, env->request_id};
  std::string encoded;
  {
    MutexLock lock(&mu_);
    if (mutating && replies_.count(key) != 0) {
      // Same-token retry (or a transport-manufactured duplicate) of a
      // mutation this server already applied: replay the cached reply
      // byte-for-byte. Re-applying would double-execute; replying with
      // nothing — the pre-fix behavior — made every same-id retry time
      // out, which is the at-most-once hole this path closes.
      m_duplicates_->Increment();
      m_dedup_hits_->Increment();
      encoded = replies_[key];
    } else {
      Envelope reply;
      reply.request_id = env->request_id;
      reply.src = endpoint_;
      reply.dst = env->src;
      if (mutating && seen_.count(key) != 0) {
        // Token recovered from the WAL: the mutation is applied state,
        // but the encoded reply died with the crashed process.
        m_duplicates_->Increment();
        m_dedup_hits_->Increment();
        reply.payload =
            RecoveredReplyLocked(env->payload, {env->src, env->request_id});
      } else {
        if (mutating) RememberLocked(key);
        reply.payload =
            DispatchLocked(env->payload, {env->src, env->request_id});
        if (counted_read && RememberLocked(key)) {
          CountReadsLocked(*read, std::get<NeighborsReply>(reply.payload));
        }
        m_requests_->Increment();
      }
      auto frame_bytes = EncodeFrame(reply);
      if (!frame_bytes.ok()) {
        m_reply_errors_->Increment();
        return;
      }
      encoded = std::move(*frame_bytes);
      // Cache the encoded reply while the token is in the window, so
      // every later same-token delivery gets the identical answer.
      if (mutating) replies_[key] = encoded;
    }
  }
  // Reply send happens with no locks held (class contract).
  const Status sent = transport_->Send(env->src, std::move(encoded));
  if (!sent.ok()) {
    m_reply_errors_->Increment();
    HERMES_LOG(Warning) << "partition server p" << partition_
                        << ": reply send failed: " << sent.ToString();
  }
}

bool PartitionServer::IsMutatingRequest(const MessagePayload& request) {
  return std::get_if<MutateRequest>(&request) != nullptr ||
         std::get_if<InstallChunkRequest>(&request) != nullptr ||
         std::get_if<AuxExchangeRequest>(&request) != nullptr;
}

bool PartitionServer::RememberLocked(const DedupKey& key) {
  if (!seen_.insert(key).second) return false;
  seen_fifo_.push_back(key);
  if (seen_fifo_.size() > dedup_window_) {
    replies_.erase(seen_fifo_.front());
    seen_.erase(seen_fifo_.front());
    seen_fifo_.pop_front();
  }
  return true;
}

void PartitionServer::CountReadsLocked(const NeighborsRequest& req,
                                       const NeighborsReply& reply) {
  for (std::size_t i = 0; i < req.vertices.size(); ++i) {
    if (reply.results[i].status.ok()) ++read_counts_[req.vertices[i]];
  }
}

MessagePayload PartitionServer::DispatchLocked(const MessagePayload& request,
                                               const WalToken& token) {
  if (const auto* m = std::get_if<NeighborsRequest>(&request)) {
    return DoNeighbors(*m);
  }
  if (const auto* m = std::get_if<ProbeRequest>(&request)) {
    return DoProbe(*m);
  }
  if (const auto* m = std::get_if<MutateRequest>(&request)) {
    return DoMutate(*m, token);
  }
  if (const auto* m = std::get_if<InstallChunkRequest>(&request)) {
    return DoInstall(*m, token);
  }
  if (const auto* m = std::get_if<ExtractRequest>(&request)) {
    return DoExtract(*m);
  }
  if (std::get_if<AuxExchangeRequest>(&request) != nullptr) {
    return DoFold(token);
  }
  if (std::get_if<HealthRequest>(&request) != nullptr) {
    return DoHealth();
  }
  if (std::get_if<CheckpointRequest>(&request) != nullptr) {
    return DoCheckpoint();
  }
  if (std::get_if<DumpRequest>(&request) != nullptr) {
    return DoDump();
  }
  MutateReply reply;
  reply.status = Status::InvalidArgument("server: frame is not a request");
  return reply;
}

MessagePayload PartitionServer::RecoveredReplyLocked(
    const MessagePayload& request, const WalToken& token) {
  // The mutation's effects are already in the recovered store; the reply
  // is reconstructed from what the apply must have produced.
  if (const auto* m = std::get_if<MutateRequest>(&request)) {
    // Entries apply in order and each applied one is one logged entry
    // under the token (an entry that failed Precheck was never logged),
    // so the log holds exactly the applied prefix.
    std::size_t logged = 0;
    if (durable_raw_ != nullptr) {
      const std::vector<WalToken>& tokens = durable_raw_->recovered_tokens();
      logged = static_cast<std::size_t>(
          std::count(tokens.begin(), tokens.end(), token));
    }
    MutateReply reply;
    reply.applied = std::min(logged, m->entries.size());
    reply.status =
        reply.applied == m->entries.size()
            ? Status::OK()
            : Status::Aborted("server: the recovered log holds " +
                              std::to_string(reply.applied) + " of " +
                              std::to_string(m->entries.size()) + " entries");
    if (reply.applied > 0) {
      const MutateRequest::Entry& last = m->entries[reply.applied - 1];
      if (last.op == MutateRequest::Op::kAddEdge) {
        if (auto rid = store_->FindEdge(last.vertex, last.other); rid.ok()) {
          reply.record_id = *rid;
        }
      }
    }
    return reply;
  }
  if (const auto* m = std::get_if<InstallChunkRequest>(&request)) {
    // Counts are recomputed from presence. A crash mid-chunk can leave
    // the chunk partially logged; the cluster rebuilds migration state
    // from Dump() on Recover(), so this reply only serves stray retries.
    InstallChunkReply reply;
    reply.status = Status::OK();
    for (const auto& node : m->nodes) {
      if (store_->NodeExists(node.id)) ++reply.nodes_created;
    }
    for (const auto& edge : m->edges) {
      if (store_->FindEdge(edge.v, edge.other).ok()) ++reply.edges_created;
    }
    return reply;
  }
  if (std::get_if<AuxExchangeRequest>(&request) != nullptr) {
    // The folded counts are in the recovered weights. The reply that
    // listed them died with the process, and so did the client that
    // sent the fold: the cluster recovers as a whole and rebuilds its
    // weights from Dump().
    AuxExchangeReply reply;
    reply.status = Status::OK();
    return reply;
  }
  MutateReply reply;
  reply.status = Status::Internal("recovered token for non-mutating request");
  return reply;
}

NeighborsReply PartitionServer::DoNeighbors(const NeighborsRequest& req) {
  NeighborsReply reply;
  reply.status = Status::OK();
  reply.results.reserve(req.vertices.size());
  for (VertexId v : req.vertices) {
    NeighborsReply::Adjacency adj;
    auto neighbors = store_->Neighbors(
        v, req.has_type ? std::optional<std::uint32_t>(req.type)
                        : std::nullopt);
    if (neighbors.ok()) {
      adj.status = Status::OK();
      adj.neighbors = std::move(*neighbors);
    } else {
      adj.status = neighbors.status();
    }
    reply.results.push_back(std::move(adj));
  }
  return reply;
}

ProbeReply PartitionServer::DoProbe(const ProbeRequest& req) {
  ProbeReply reply;
  reply.status = Status::OK();
  switch (req.mode) {
    case ProbeRequest::Mode::kHasNode:
      reply.truth = store_->HasNode(req.vertex);
      break;
    case ProbeRequest::Mode::kNodeExists:
      reply.truth = store_->NodeExists(req.vertex);
      break;
    case ProbeRequest::Mode::kEdgeIsGhost: {
      auto ghost = store_->EdgeIsGhost(req.vertex, req.other);
      if (ghost.ok()) {
        reply.truth = *ghost;
      } else {
        reply.status = ghost.status();
      }
      break;
    }
  }
  return reply;
}

Result<RecordId> PartitionServer::ApplyLocked(WalEntry entry) {
  if (durable_raw_ != nullptr) return durable_raw_->Apply(std::move(entry));
  return ApplyWalEntry(entry, store_);
}

MutateReply PartitionServer::DoMutate(const MutateRequest& req,
                                      const WalToken& token) {
  MutateReply reply;
  reply.status = Status::OK();
  for (const MutateRequest::Entry& entry : req.entries) {
    const Result<RecordId> applied = ApplyLocked(ToWalEntry(entry, token));
    if (!applied.ok()) {
      reply.status = applied.status();
      return reply;
    }
    reply.record_id = *applied;
    ++reply.applied;
    // A migrated vertex took its pending reads along in ExtractReply.
    if (entry.op == MutateRequest::Op::kRemoveNode) {
      read_counts_.erase(entry.vertex);
    }
  }
  return reply;
}

InstallChunkReply PartitionServer::DoInstall(const InstallChunkRequest& req,
                                             const WalToken& token) {
  InstallChunkReply reply;
  reply.status = Status::OK();
  // Nodes first, so edges between co-installed vertices find both
  // endpoints. nodes_created counts actual creations even on failure:
  // the cluster's unwind removes exactly these.
  for (const auto& node : req.nodes) {
    reply.status = ApplyLocked(ToWalEntry(node, token)).status();
    if (!reply.status.ok()) return reply;
    ++reply.nodes_created;
    for (const auto& prop : node.properties) {
      reply.status = ApplyLocked(ToWalEntry(node, prop, token)).status();
      if (!reply.status.ok()) return reply;
    }
  }
  for (const auto& edge : req.edges) {
    const Status added = ApplyLocked(ToWalEntry(edge, token)).status();
    // Co-migrated neighbors may have installed this record already.
    if (added.IsAlreadyExists()) continue;
    if (!added.ok()) {
      reply.status = added;
      return reply;
    }
    ++reply.edges_created;
    if (!edge.properties_included) continue;
    for (const auto& prop : edge.properties) {
      const Status pst = ApplyLocked(ToWalEntry(edge, prop, token)).status();
      // Ghost copies refuse properties by design.
      if (!pst.ok() && !pst.IsInvalidArgument()) {
        reply.status = pst;
        return reply;
      }
    }
  }
  return reply;
}

ExtractReply PartitionServer::DoExtract(const ExtractRequest& req) {
  ExtractReply reply;
  reply.status = Status::OK();
  reply.snapshots.reserve(req.vertices.size());
  for (VertexId v : req.vertices) {
    auto snap = store_->ExtractNode(v);
    if (!snap.ok()) {
      // Extraction is read-only, so one failed vertex fails the request
      // and its chunk aborts with nothing to unwind.
      reply.status = snap.status();
      reply.snapshots.clear();
      return reply;
    }
    ExtractReply::Snapshot& out = reply.snapshots.emplace_back();
    out.id = snap->id;
    // The pending reads travel with the vertex: the target installs them
    // as weight and the source drops them when it removes the record.
    const auto pending = read_counts_.find(v);
    out.weight = snap->weight + (pending == read_counts_.end()
                                     ? 0.0
                                     : static_cast<double>(pending->second));
    out.wire_bytes = snap->WireBytes();
    out.properties.reserve(snap->properties.size());
    for (const auto& [key, value] : snap->properties) {
      out.properties.push_back({key, value});
    }
    out.relationships.reserve(snap->relationships.size());
    for (const auto& rel : snap->relationships) {
      ExtractReply::Relationship& out_rel = out.relationships.emplace_back();
      out_rel.other = rel.other;
      out_rel.type = rel.type;
      out_rel.properties_included = rel.properties_included;
      out_rel.properties.reserve(rel.properties.size());
      for (const auto& [key, value] : rel.properties) {
        out_rel.properties.push_back({key, value});
      }
    }
  }
  return reply;
}

AuxExchangeReply PartitionServer::DoFold(const WalToken& token) {
  AuxExchangeReply reply;
  reply.status = Status::OK();
  for (auto it = read_counts_.begin(); it != read_counts_.end();) {
    const AuxExchangeReply::Entry fold{it->first, it->second};
    reply.status = ApplyLocked(ToWalEntry(fold, token)).status();
    if (!reply.status.ok()) break;  // the rest stay pending
    reply.folded.push_back(fold);
    it = read_counts_.erase(it);
  }
  return reply;
}

HealthReply PartitionServer::DoHealth() {
  HealthReply reply;
  reply.status = Status::OK();
  reply.store_bytes = store_->MemoryBytes();
  reply.nodes = store_->NumNodes();
  reply.relationships = store_->NumRelationships();
  reply.ghost_relationships = store_->NumGhostRelationships();
  return reply;
}

CheckpointReply PartitionServer::DoCheckpoint() {
  CheckpointReply reply;
  if (durable_raw_ == nullptr) {
    reply.status = Status::InvalidArgument("server is not durable");
    return reply;
  }
  // audit:allow(blocking, checkpoint quiesces this server by design: the
  // server mutex is exactly what makes the snapshot atomic against
  // concurrent requests, and the cluster additionally serializes
  // checkpoints against migration)
  reply.status = durable_raw_->Checkpoint();
  return reply;
}

DumpReply PartitionServer::DoDump() {
  DumpReply reply;
  reply.status = Status::OK();
  for (const auto& node : store_->DumpNodes()) {
    reply.nodes.push_back({node.id, node.weight});
  }
  for (const auto& rel : store_->DumpRelationships()) {
    reply.rels.push_back({rel.src, rel.dst, rel.type, rel.ghost});
  }
  return reply;
}

}  // namespace hermes
