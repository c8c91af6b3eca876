#include "graphdb/durable_store.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "net/wire.h"
#include "storage/fd_appender.h"

namespace hermes {

namespace {

constexpr std::uint64_t kSnapshotMagic = 0x4845524d45533034ULL;  // "HERMES04"

// A snapshot file is one buffer, written once and read once. The 32-byte
// header is [magic u64][partition u32][body crc u32][content_length u64]
// [covered_lsn u64]; the body follows. Every field is little-endian
// (net/wire.h), and the CRC-32 covers the body. The covered LSN makes
// recovery safe when a crash lands between the snapshot rename and the
// WAL truncation: entries at or below it are already reflected in the
// snapshot and must not be replayed.
constexpr std::size_t kSnapshotHeaderBytes = 32;

// Fixed-width bytes of a property (key, value length), a node (id,
// weight, state, property count) and a relationship (src, dst, type,
// flags, property count). The reader bounds every count by these.
constexpr std::size_t kPropertyBytes = 4 + 4;
constexpr std::size_t kNodeBytes = 8 + 8 + 4 + 4;
constexpr std::size_t kRelBytes = 8 + 8 + 4 + 4 + 4;

using Properties = std::vector<std::pair<std::uint32_t, std::string>>;

std::size_t PropertiesBytes(const Properties& props) {
  std::size_t bytes = 0;
  for (const auto& [key, value] : props) bytes += kPropertyBytes + value.size();
  return bytes;
}

void PutProperties(const Properties& props, WireWriter* w) {
  w->PutU32(static_cast<std::uint32_t>(props.size()));
  for (const auto& [key, value] : props) {
    w->PutU32(key);
    w->PutString(value);
  }
}

[[nodiscard]] Status ReadProperties(WireReader* r, Properties* props) {
  std::uint32_t count = 0;
  HERMES_RETURN_NOT_OK(r->ReadCount(kPropertyBytes, &count));
  props->clear();
  props->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t key = 0;
    std::string value;
    HERMES_RETURN_NOT_OK(r->ReadU32(&key));
    HERMES_RETURN_NOT_OK(r->ReadString(&value));
    props->emplace_back(key, std::move(value));
  }
  return Status::OK();
}

/// Reads a u64 record count, bounded by the bytes remaining.
[[nodiscard]] Status ReadRecordCount(WireReader* r, std::size_t record_bytes,
                                     std::uint64_t* count) {
  if (!r->ReadU64(count).ok() || *count > r->remaining() / record_bytes) {
    return Status::IOError("truncated snapshot");
  }
  return Status::OK();
}

/// A node state read back from disk (a snapshot's state word, a
/// kSetNodeState entry's flag) names a NodeState only up to
/// kUnavailable; any larger value is corrupt input, not a state.
bool IsNodeState(std::uint32_t value) {
  return value <= static_cast<std::uint32_t>(NodeState::kUnavailable);
}

/// Encodes `store` into one buffer of exactly the snapshot's size.
std::string EncodeSnapshot(const GraphStore& store,
                           std::uint64_t covered_lsn) {
  const auto nodes = store.DumpNodes();
  const auto rels = store.DumpRelationships();
  std::size_t size = kSnapshotHeaderBytes + 8 + 8;  // header, two counts
  for (const auto& n : nodes) size += kNodeBytes + PropertiesBytes(n.properties);
  for (const auto& r : rels) size += kRelBytes + PropertiesBytes(r.properties);

  WireWriter w;
  w.Reserve(size);
  w.PutRaw(std::string(kSnapshotHeaderBytes, '\0'));  // filled in below
  w.PutU64(nodes.size());
  for (const auto& n : nodes) {
    w.PutU64(n.id);
    w.PutF64(n.weight);
    w.PutU32(static_cast<std::uint32_t>(n.state));
    PutProperties(n.properties, &w);
  }
  w.PutU64(rels.size());
  for (const auto& r : rels) {
    w.PutU64(r.src);
    w.PutU64(r.dst);
    w.PutU32(r.type);
    // Linkage must be persisted, not inferred: after a node is removed
    // and its id re-created, both endpoints of a leftover half record
    // exist again, and endpoint existence would wrongly reconstruct it
    // as a full edge. The flag word is the record's own three bits.
    const std::uint32_t flags = (r.ghost ? 1u : 0u) |
                                (r.src_linked ? 2u : 0u) |
                                (r.dst_linked ? 4u : 0u);
    w.PutU32(flags);
    PutProperties(r.properties, &w);
  }

  std::string bytes = w.TakeBytes();
  const std::string_view body =
      std::string_view(bytes).substr(kSnapshotHeaderBytes);
  WireWriter header;
  header.PutU64(kSnapshotMagic);
  header.PutU32(store.partition_id());
  header.PutU32(Crc32(body.data(), body.size()));
  header.PutU64(body.size());
  header.PutU64(covered_lsn);
  bytes.replace(0, kSnapshotHeaderBytes, header.bytes());
  return bytes;
}

}  // namespace

Status DurableGraphStore::WriteSnapshot(const GraphStore& store,
                                        const std::string& path,
                                        std::uint64_t covered_lsn) {
  const std::string bytes = EncodeSnapshot(store, covered_lsn);
  // Write and sync a temp file, then rename it over `path` and sync the
  // directory: a crash leaves the old snapshot or the new one, never a
  // mix, and a power loss cannot undo the rename once this returns.
  const std::string tmp = path + ".tmp";
  std::remove(tmp.c_str());
  {
    HERMES_ASSIGN_OR_RETURN(FdAppender file, FdAppender::Open(tmp));
    HERMES_FAILPOINT_IOERROR("snapshot.write.io_error");
    const FailpointHit torn = HERMES_FAILPOINT_HIT("snapshot.write.short_write");
    if (torn.fired) {
      // Torn write: only a prefix of the snapshot reaches the temp file
      // before the simulated power loss, and the rename never happens.
      const std::uint64_t want = torn.arg != 0 ? torn.arg : bytes.size() / 2;
      const auto cut = static_cast<std::size_t>(
          std::min<std::uint64_t>(want, bytes.size() - 1));
      if (Status st = file.Append(bytes.data(), cut); !st.ok()) {
        // The tear is the injected failure; a second error writing the
        // prefix leaves an even shorter tear, which recovery never reads.
      }
      HERMES_FAILPOINT_LATCH_CRASH("snapshot.write.short_write");
      return Status::IOError("failpoint: snapshot.write.short_write");
    }
    HERMES_RETURN_NOT_OK(file.Append(bytes.data(), bytes.size()));
    HERMES_FAILPOINT_IOERROR("snapshot.sync.io_error");
    HERMES_RETURN_NOT_OK(file.Sync());
  }
  // Crash with the complete snapshot in the temp file but not yet
  // renamed: recovery must fall back to the previous snapshot + log.
  HERMES_FAILPOINT_CRASH("durable_store.snapshot.rename.crash");
  HERMES_RETURN_NOT_OK(ReplaceFile(tmp, path));
  return SyncParentDirectory(path);
}

Status DurableGraphStore::LoadSnapshot(const std::string& path,
                                       GraphStore* store,
                                       std::uint64_t* covered_lsn) {
  Result<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();  // NotFound: no snapshot yet
  HERMES_FAILPOINT_IOERROR("snapshot.read.io_error");
  WireReader in(*bytes);

  std::uint64_t magic = 0;
  std::uint32_t partition = 0;
  std::uint32_t body_crc = 0;
  std::uint64_t content_length = 0;
  std::uint64_t covered = 0;
  if (!in.ReadU64(&magic).ok() || magic != kSnapshotMagic ||
      !in.ReadU32(&partition).ok() || !in.ReadU32(&body_crc).ok() ||
      !in.ReadU64(&content_length).ok() || !in.ReadU64(&covered).ok()) {
    return Status::IOError("bad snapshot header in " + path);
  }
  if (in.remaining() != content_length) {
    return Status::IOError("snapshot length mismatch in " + path);
  }
  if (Crc32(bytes->data() + kSnapshotHeaderBytes, content_length) !=
      body_crc) {
    return Status::IOError("snapshot checksum mismatch in " + path);
  }
  if (covered_lsn != nullptr) *covered_lsn = covered;

  // The body decodes into the two dumps it was encoded from, and
  // GraphStore::Restore rebuilds the store from them in one pass. A body
  // that decodes but does not restore (nodes out of id order or
  // repeated, a self-loop, a relationship linked on neither side or to
  // a missing node, two relationships on one link) is as corrupt as
  // one that fails its checksum: IOError, so Open never mistakes it for
  // a missing snapshot.
  std::uint64_t node_count = 0;
  HERMES_RETURN_NOT_OK(ReadRecordCount(&in, kNodeBytes, &node_count));
  std::vector<GraphStore::NodeDump> nodes(node_count);
  for (GraphStore::NodeDump& n : nodes) {
    std::uint32_t state = 0;
    if (!in.ReadU64(&n.id).ok() || !in.ReadF64(&n.weight).ok() ||
        !in.ReadU32(&state).ok() || !ReadProperties(&in, &n.properties).ok()) {
      return Status::IOError("truncated snapshot (nodes)");
    }
    if (!IsNodeState(state)) {
      return Status::IOError("snapshot " + path + ": node " +
                             std::to_string(n.id) + " has unknown state " +
                             std::to_string(state));
    }
    n.state = static_cast<NodeState>(state);
  }

  std::uint64_t rel_count = 0;
  HERMES_RETURN_NOT_OK(ReadRecordCount(&in, kRelBytes, &rel_count));
  std::vector<GraphStore::RelationshipDump> rels(rel_count);
  for (GraphStore::RelationshipDump& r : rels) {
    std::uint32_t flags = 0;
    if (!in.ReadU64(&r.src).ok() || !in.ReadU64(&r.dst).ok() ||
        !in.ReadU32(&r.type).ok() || !in.ReadU32(&flags).ok() ||
        !ReadProperties(&in, &r.properties).ok()) {
      return Status::IOError("truncated snapshot (relationships)");
    }
    // flags: bit0 ghost, bit1 linked on src's side, bit2 on dst's (see
    // EncodeSnapshot). Restore recomputes the ghost bit from the
    // same id rule that produced the dumped value.
    r.ghost = (flags & 1u) != 0;
    r.src_linked = (flags & 2u) != 0;
    r.dst_linked = (flags & 4u) != 0;
  }
  if (!in.AtEnd()) return Status::IOError("snapshot length mismatch");
  if (const Status st = store->Restore(nodes, rels); !st.ok()) {
    return Status::IOError("snapshot " + path +
                           " does not restore: " + st.ToString());
  }
  return Status::OK();
}

[[nodiscard]] Result<RecordId> ApplyWalEntry(const WalEntry& e,
                                             GraphStore* store) {
  switch (e.type) {
    case WalOpType::kCreateNode:
      HERMES_RETURN_NOT_OK(store->CreateNode(e.a, e.weight));
      return kInvalidRecord;
    case WalOpType::kRemoveNode:
      HERMES_RETURN_NOT_OK(store->RemoveNode(e.a));
      return kInvalidRecord;
    case WalOpType::kSetNodeState:
      if (!IsNodeState(e.flag)) {
        return Status::InvalidArgument("unknown node state");
      }
      HERMES_RETURN_NOT_OK(
          store->SetNodeState(e.a, static_cast<NodeState>(e.flag)));
      return kInvalidRecord;
    case WalOpType::kAddNodeWeight:
      HERMES_RETURN_NOT_OK(store->AddNodeWeight(e.a, e.weight));
      return kInvalidRecord;
    case WalOpType::kAddEdge:
      return store->AddEdge(e.a, e.b, e.key, e.flag != 0);
    case WalOpType::kRemoveEdge:
      HERMES_RETURN_NOT_OK(store->RemoveEdge(e.a, e.b));
      return kInvalidRecord;
    case WalOpType::kSetNodeProperty:
      HERMES_RETURN_NOT_OK(store->SetNodeProperty(e.a, e.key, e.payload));
      return kInvalidRecord;
    case WalOpType::kSetEdgeProperty:
      HERMES_RETURN_NOT_OK(
          store->SetEdgeProperty(e.a, e.b, e.key, e.payload));
      return kInvalidRecord;
    case WalOpType::kCheckpoint:
      return Status::InvalidArgument("a checkpoint marker is not a mutation");
  }
  return Status::Internal("unknown WAL entry type");
}

Status DurableGraphStore::Replay(const WalEntry& e, GraphStore* store) {
  // Precheck() keeps rejected mutations out of the log and the snapshot's
  // covered LSN keeps already-applied entries out of replay, so a store
  // rejection here almost always means real divergence. The one tolerated
  // case: an AlreadyExists whose payload provably matches the current
  // state (e.g. a pre-v3 log tail overlapping its snapshot) — anything
  // else must surface instead of hiding behind a blanket tolerance.
  const Status st = ApplyWalEntry(e, store).status();
  if (!st.IsAlreadyExists()) return st;
  if (e.type == WalOpType::kCreateNode) {
    const Result<double> weight = store->NodeWeight(e.a);
    if (weight.ok() && *weight == e.weight) return Status::OK();
    return Status::IOError(
        "replay: kCreateNode collides with an existing node of "
        "different weight (corrupt log or replay bug)");
  }
  if (e.type == WalOpType::kAddEdge) {
    if (store->FindEdge(e.a, e.b).ok()) return Status::OK();
    return Status::IOError(
        "replay: kAddEdge rejected but the edge is not present "
        "(corrupt log or replay bug)");
  }
  return st;
}

Status DurableGraphStore::Precheck(const WalEntry& e, const GraphStore& s) {
  switch (e.type) {
    case WalOpType::kCreateNode:
      if (s.NodeExists(e.a)) return Status::AlreadyExists("node exists");
      return Status::OK();
    case WalOpType::kSetNodeState:
      if (!IsNodeState(e.flag)) {
        return Status::InvalidArgument("unknown node state");
      }
      [[fallthrough]];
    case WalOpType::kRemoveNode:
    case WalOpType::kAddNodeWeight:
    case WalOpType::kSetNodeProperty:
      if (!s.NodeExists(e.a)) return Status::NotFound("no such node");
      return Status::OK();
    case WalOpType::kAddEdge: {
      // Mirrors GraphStore::AddEdge's check order exactly (including the
      // mid-migration Unavailable rejections), so that once the entry is
      // logged the store apply cannot fail and the crash-torture model
      // sees identical statuses. Each endpoint is looked up once.
      if (e.a == e.b) return Status::InvalidArgument("self-loops rejected");
      const Result<NodeState> a = s.GetNodeState(e.a);
      if (!a.ok()) return Status::NotFound("no such node");
      if (*a != NodeState::kAvailable) {
        return Status::Unavailable("node is mid-migration");
      }
      if (s.HasEdge(e.a, e.b)) return Status::AlreadyExists("edge exists");
      if (e.flag != 0) {
        const Result<NodeState> b = s.GetNodeState(e.b);
        if (!b.ok()) return Status::NotFound("local other endpoint missing");
        if (*b != NodeState::kAvailable) {
          return Status::Unavailable("other endpoint is mid-migration");
        }
      }
      return Status::OK();
    }
    case WalOpType::kRemoveEdge:
      return s.FindEdge(e.a, e.b).status();
    case WalOpType::kSetEdgeProperty: {
      const Result<bool> ghost = s.EdgeIsGhost(e.a, e.b);
      if (!ghost.ok()) return ghost.status();
      if (*ghost) {
        return Status::InvalidArgument("ghost edges carry no properties");
      }
      return Status::OK();
    }
    case WalOpType::kCheckpoint:
      return Status::InvalidArgument("a checkpoint marker is not a mutation");
  }
  return Status::Internal("unknown WAL entry type");
}

Result<std::unique_ptr<DurableGraphStore>> DurableGraphStore::Open(
    PartitionId partition_id, const std::string& dir, const Options& options) {
  auto store = std::make_unique<GraphStore>(partition_id);
  const std::string snapshot_path = dir + "/snapshot.bin";
  const std::string wal_path = dir + "/wal.log";

  // 1. Latest snapshot (if any).
  std::uint64_t covered_lsn = 0;
  const Status snap = LoadSnapshot(snapshot_path, store.get(), &covered_lsn);
  if (!snap.ok() && !snap.IsNotFound()) return snap;

  // 2. Replay the log tail after the last checkpoint, skipping entries
  // the snapshot already covers (a crash between the snapshot rename and
  // the log truncation leaves both on disk). A missing log just means a
  // fresh store; any other replay failure is real divergence and aborts
  // recovery (see Replay for the one verified tolerance).
  //
  // Idempotency tokens are collected from EVERY scanned entry — even ones
  // replay skips — because a skipped entry's mutation is applied state
  // all the same, and its client may still be retrying.
  std::vector<WalToken> recovered_tokens;
  auto entries = WriteAheadLog::ReadAll(wal_path,
                                        /*after_last_checkpoint=*/false);
  if (entries.ok()) {
    std::size_t replay_from = 0;
    for (std::size_t i = 0; i < entries->size(); ++i) {
      const WalEntry& e = (*entries)[i];
      if (e.type == WalOpType::kCheckpoint) replay_from = i + 1;
      if (e.token.valid()) recovered_tokens.push_back(e.token);
    }
    for (std::size_t i = replay_from; i < entries->size(); ++i) {
      const WalEntry& e = (*entries)[i];
      if (e.lsn <= covered_lsn) continue;
      const Status st = Replay(e, store.get());
      if (!st.ok()) {
        return Status::IOError("WAL replay failed at lsn " +
                               std::to_string(e.lsn) + ": " + st.message());
      }
    }
  }

  // New appends must never reuse LSNs the snapshot covers, even though a
  // checkpoint truncated the log this scan sees.
  HERMES_ASSIGN_OR_RETURN(
      WriteAheadLog wal,
      WriteAheadLog::Open(wal_path, covered_lsn + 1, options.group_commit));
  auto db = std::unique_ptr<DurableGraphStore>(new DurableGraphStore(
      partition_id, dir, std::move(store),
      std::make_unique<WriteAheadLog>(std::move(wal)),
      options.durable_mutations));
  db->recovered_tokens_ = std::move(recovered_tokens);
  return db;
}

Status DurableGraphStore::Checkpoint() {
  MutexLock lock(&mu_);
  // Crash windows, in order: before the snapshot (old snapshot + full
  // log recover everything), after the rename but before the checkpoint
  // marker (new snapshot + stale log — the covered LSN keeps replay from
  // double-applying), and after the marker but before the truncation
  // (replay-after-last-checkpoint sees an empty tail).
  HERMES_FAILPOINT_CRASH("durable_store.checkpoint.crash");
  const std::uint64_t covered_lsn = wal_->next_lsn() - 1;
  // audit:allow(blocking, checkpoint is the documented quiesce point: mu_
  // must span snapshot + marker + truncation or a racing mutator could
  // slip an entry between the snapshot and the log reset and lose it)
  HERMES_RETURN_NOT_OK(
      WriteSnapshot(*store_, dir_ + "/snapshot.bin", covered_lsn));
  HERMES_FAILPOINT_CRASH("durable_store.checkpoint.after_snapshot.crash");
  // audit:allow(blocking, same checkpoint quiesce as above)
  HERMES_RETURN_NOT_OK(wal_->LogCheckpoint().status());
  HERMES_FAILPOINT_CRASH("durable_store.checkpoint.before_reset.crash");
  // audit:allow(blocking, same checkpoint quiesce as above)
  return wal_->Reset();
}

Result<RecordId> DurableGraphStore::Apply(WalEntry entry) {
  std::uint64_t lsn = 0;
  RecordId rid = kInvalidRecord;
  {
    MutexLock lock(&mu_);
    HERMES_RETURN_NOT_OK(Precheck(entry, *store_));
    HERMES_ASSIGN_OR_RETURN(lsn, wal_->Append(entry));
    HERMES_ASSIGN_OR_RETURN(rid, ApplyWalEntry(entry, store_.get()));
  }
  if (durable_mutations_) HERMES_RETURN_NOT_OK(wal_->SyncUntil(lsn));
  return rid;
}

}  // namespace hermes
