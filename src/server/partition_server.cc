#include "server/partition_server.h"

#include <algorithm>
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
        reply.payload = RecoveredReplyLocked(env->payload);
      } else {
        if (mutating) RememberLocked(key);
        reply.payload = ApplyLocked(env->payload, env->src, env->request_id);
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

MessagePayload PartitionServer::ApplyLocked(const MessagePayload& request,
                                            EndpointId src,
                                            std::uint64_t request_id) {
  if (const auto* m = std::get_if<NeighborsRequest>(&request)) {
    return DoNeighbors(*m);
  }
  if (const auto* m = std::get_if<ProbeRequest>(&request)) {
    return DoProbe(*m);
  }
  if (const auto* m = std::get_if<MutateRequest>(&request)) {
    return DoMutate(*m, src, request_id);
  }
  if (const auto* m = std::get_if<InstallChunkRequest>(&request)) {
    return DoInstall(*m, src, request_id);
  }
  if (const auto* m = std::get_if<ExtractRequest>(&request)) {
    return DoExtract(*m);
  }
  if (std::get_if<AuxExchangeRequest>(&request) != nullptr) {
    return DoFold(src, request_id);
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
    const MessagePayload& request) {
  // The mutation's effects are already in the recovered store; the reply
  // is reconstructed from what the apply must have produced. Success is
  // the only reply ever cached into the WAL path: a mutation that failed
  // Precheck was never logged, so its token was never recovered.
  if (const auto* m = std::get_if<MutateRequest>(&request)) {
    MutateReply reply;
    reply.status = Status::OK();
    if (m->op == MutateRequest::Op::kAddEdge) {
      if (auto rid = store_->FindEdge(m->vertex, m->other); rid.ok()) {
        reply.record_id = *rid;
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
    auto neighbors = req.has_type
                         ? store_->NeighborsByType(v, req.type)
                         : store_->Neighbors(v);
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

MutateReply PartitionServer::DoMutate(const MutateRequest& req,
                                      EndpointId src,
                                      std::uint64_t request_id) {
  const WalToken token{src, request_id};
  MutateReply reply;
  switch (req.op) {
    case MutateRequest::Op::kCreateNode:
      reply.status = durable_raw_
                         ? durable_raw_->CreateNode(req.vertex, req.weight, token)
                         : store_->CreateNode(req.vertex, req.weight);
      break;
    case MutateRequest::Op::kRemoveNode:
      reply.status = durable_raw_ ? durable_raw_->RemoveNode(req.vertex, token)
                                  : store_->RemoveNode(req.vertex);
      // A migrated vertex took its pending reads along in ExtractReply.
      if (reply.status.ok()) read_counts_.erase(req.vertex);
      break;
    case MutateRequest::Op::kSetNodeState: {
      const NodeState state = static_cast<NodeState>(req.node_state);
      reply.status = durable_raw_
                         ? durable_raw_->SetNodeState(req.vertex, state, token)
                         : store_->SetNodeState(req.vertex, state);
      break;
    }
    case MutateRequest::Op::kAddNodeWeight:
      reply.status = durable_raw_
                         ? durable_raw_->AddNodeWeight(req.vertex, req.weight, token)
                         : store_->AddNodeWeight(req.vertex, req.weight);
      break;
    case MutateRequest::Op::kAddEdge: {
      auto added = durable_raw_
                       ? durable_raw_->AddEdge(req.vertex, req.other,
                                               req.type_or_key,
                                               req.other_is_local, token)
                       : store_->AddEdge(req.vertex, req.other,
                                         req.type_or_key, req.other_is_local);
      if (added.ok()) {
        reply.record_id = *added;
        reply.status = Status::OK();
      } else {
        reply.status = added.status();
      }
      break;
    }
    case MutateRequest::Op::kRemoveEdge:
      reply.status = durable_raw_
                         ? durable_raw_->RemoveEdge(req.vertex, req.other, token)
                         : store_->RemoveEdge(req.vertex, req.other);
      break;
    case MutateRequest::Op::kSetNodeProperty:
      reply.status =
          durable_raw_
              ? durable_raw_->SetNodeProperty(req.vertex, req.type_or_key,
                                              req.value, token)
              : store_->SetNodeProperty(req.vertex, req.type_or_key,
                                        req.value);
      break;
    case MutateRequest::Op::kSetEdgeProperty:
      reply.status =
          durable_raw_
              ? durable_raw_->SetEdgeProperty(req.vertex, req.other,
                                              req.type_or_key, req.value,
                                              token)
              : store_->SetEdgeProperty(req.vertex, req.other,
                                        req.type_or_key, req.value);
      break;
  }
  return reply;
}

InstallChunkReply PartitionServer::DoInstall(const InstallChunkRequest& req,
                                             EndpointId src,
                                             std::uint64_t request_id) {
  const WalToken token{src, request_id};
  InstallChunkReply reply;
  reply.status = Status::OK();
  // Nodes first, so edges between co-installed vertices find both
  // endpoints. nodes_created counts actual creations even on failure:
  // the cluster's unwind removes exactly these.
  for (const auto& node : req.nodes) {
    const Status st = durable_raw_
                          ? durable_raw_->CreateNode(node.id, node.weight, token)
                          : store_->CreateNode(node.id, node.weight);
    if (!st.ok()) {
      reply.status = st;
      return reply;
    }
    ++reply.nodes_created;
    for (const auto& prop : node.properties) {
      const Status pst =
          durable_raw_
              ? durable_raw_->SetNodeProperty(node.id, prop.key, prop.value,
                                              token)
              : store_->SetNodeProperty(node.id, prop.key, prop.value);
      if (!pst.ok()) {
        reply.status = pst;
        return reply;
      }
    }
  }
  for (const auto& edge : req.edges) {
    auto added =
        durable_raw_
            ? durable_raw_->AddEdge(edge.v, edge.other, edge.type,
                                    edge.other_is_local, token)
            : store_->AddEdge(edge.v, edge.other, edge.type,
                              edge.other_is_local);
    if (!added.ok()) {
      // Co-migrated neighbors may have installed this record already.
      if (added.status().IsAlreadyExists()) continue;
      reply.status = added.status();
      return reply;
    }
    ++reply.edges_created;
    if (edge.properties_included) {
      for (const auto& prop : edge.properties) {
        const Status pst =
            durable_raw_
                ? durable_raw_->SetEdgeProperty(edge.v, edge.other, prop.key,
                                                prop.value, token)
                : store_->SetEdgeProperty(edge.v, edge.other, prop.key,
                                          prop.value);
        // Ghost copies refuse properties by design.
        if (!pst.ok() && !pst.IsInvalidArgument()) {
          reply.status = pst;
          return reply;
        }
      }
    }
  }
  return reply;
}

ExtractReply PartitionServer::DoExtract(const ExtractRequest& req) {
  ExtractReply reply;
  auto snap = store_->ExtractNode(req.vertex);
  if (!snap.ok()) {
    reply.status = snap.status();
    return reply;
  }
  reply.status = Status::OK();
  reply.id = snap->id;
  // The pending reads travel with the vertex: the target installs them
  // as weight and the source drops them when it removes the record.
  const auto pending = read_counts_.find(req.vertex);
  reply.weight = snap->weight + (pending == read_counts_.end()
                                     ? 0.0
                                     : static_cast<double>(pending->second));
  reply.wire_bytes = snap->WireBytes();
  reply.properties.reserve(snap->properties.size());
  for (const auto& [key, value] : snap->properties) {
    reply.properties.push_back({key, value});
  }
  reply.relationships.reserve(snap->relationships.size());
  for (const auto& rel : snap->relationships) {
    ExtractReply::Relationship out;
    out.other = rel.other;
    out.type = rel.type;
    out.properties_included = rel.properties_included;
    out.properties.reserve(rel.properties.size());
    for (const auto& [key, value] : rel.properties) {
      out.properties.push_back({key, value});
    }
    reply.relationships.push_back(std::move(out));
  }
  return reply;
}

AuxExchangeReply PartitionServer::DoFold(EndpointId src,
                                         std::uint64_t request_id) {
  const WalToken token{src, request_id};
  AuxExchangeReply reply;
  reply.status = Status::OK();
  for (auto it = read_counts_.begin(); it != read_counts_.end();) {
    const auto [vertex, reads] = *it;
    const double delta = static_cast<double>(reads);
    reply.status = durable_raw_
                       ? durable_raw_->AddNodeWeight(vertex, delta, token)
                       : store_->AddNodeWeight(vertex, delta);
    if (!reply.status.ok()) break;  // the rest stay pending
    reply.folded.push_back({vertex, reads});
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
