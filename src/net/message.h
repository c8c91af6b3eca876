/// Typed request/reply messages for every cluster↔partition-server
/// boundary operation (DESIGN.md §12): batched neighbor reads, existence
/// probes, batched record mutations, migration chunk install/extract,
/// the read-count fold, health, checkpoint, and recovery dumps. Each
/// struct names its fields once, in wire order, with HERMES_WIRE_FIELDS.
/// The one codec in message.cc derives the encoding, the bounds-checked
/// decoding and the minimum encoded size that bounds every element count
/// from that list; each field's C++ type fixes its wire form. Every field
/// of a wire struct is on the wire. EncodeFrame/DecodeFrame wrap a payload
/// in the versioned, CRC-sealed frame that actually travels:
///
///   [u32 len][u8 version][u8 type][u16 attempt]
///   [u64 request_id][u32 src][u32 dst][payload][u32 crc32]
///
/// `len` counts every byte after the length prefix, and the CRC covers
/// version..payload. DecodeFrame demands an exact length match, so any
/// single-bit corruption is caught by the length, version, type, or CRC
/// check and surfaces as a Status — never a crash.
#ifndef HERMES_NET_MESSAGE_H_
#define HERMES_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "net/wire.h"

/// Names a wire struct's fields once, in wire order: the codec reads and
/// writes them through WireFields(). Adding a field to the wire is adding
/// it here (and bumping kWireVersion).
#define HERMES_WIRE_FIELDS(...)                             \
  auto WireFields() { return std::tie(__VA_ARGS__); }       \
  auto WireFields() const { return std::tie(__VA_ARGS__); }

namespace hermes {

/// Logical endpoint on a Transport: partition servers own endpoints
/// 0..alpha-1, the cluster client owns endpoint alpha.
using EndpointId = std::uint32_t;

/// A payload's wire type: its index in MessagePayload plus one.
enum class MsgType : std::uint8_t {
  kNeighborsRequest = 1,
  kNeighborsReply = 2,
  kProbeRequest = 3,
  kProbeReply = 4,
  kMutateRequest = 5,
  kMutateReply = 6,
  kInstallChunkRequest = 7,
  kInstallChunkReply = 8,
  kExtractRequest = 9,
  kExtractReply = 10,
  kAuxExchangeRequest = 11,
  kAuxExchangeReply = 12,
  kHealthRequest = 13,
  kHealthReply = 14,
  kCheckpointRequest = 15,
  kCheckpointReply = 16,
  kDumpRequest = 17,
  kDumpReply = 18,
};

// A wire enum travels as one byte. `kLastWireValue` names its largest
// valid value; the decoder rejects anything above it, and above 0 for an
// enum that declares none.

/// Node availability as it travels on the wire; values mirror
/// storage NodeState so the server-side cast is a no-op.
enum class WireNodeState : std::uint8_t {
  kAvailable = 0,
  kUnavailable = 1,
  kLastWireValue = kUnavailable,
};

/// One property of a node or relationship.
struct WireProperty {
  std::uint32_t key = 0;
  std::string value;
  HERMES_WIRE_FIELDS(key, value)
};

/// Batched adjacency fetch: all of one traversal level's vertices that
/// live on the destination server travel in a single request.
struct NeighborsRequest {
  std::vector<VertexId> vertices;
  bool has_type = false;
  std::uint32_t type = 0;
  /// Count one read of every vertex served OK into the server's pending
  /// read counts (the vertex weight, folded by AuxExchange). Set on the
  /// level-0 request of a traversal, whose only vertex is the start.
  bool count_reads = false;
  HERMES_WIRE_FIELDS(vertices, has_type, type, count_reads)
};

struct NeighborsReply {
  struct Adjacency {
    Status status;
    std::vector<VertexId> neighbors;
    HERMES_WIRE_FIELDS(status, neighbors)
  };
  Status status;
  /// Parallel to the request's `vertices`; a per-vertex status lets one
  /// mid-migration vertex fail without poisoning the batch.
  std::vector<Adjacency> results;
  HERMES_WIRE_FIELDS(status, results)
};

/// Existence/ghost probe against a single server's store.
struct ProbeRequest {
  enum class Mode : std::uint8_t {
    kHasNode = 0,     // linked and available
    kNodeExists = 1,  // record present regardless of state
    kEdgeIsGhost = 2, // half-record (vertex, other) is a ghost copy
    kLastWireValue = kEdgeIsGhost,
  };
  Mode mode = Mode::kHasNode;
  VertexId vertex = 0;
  VertexId other = 0;
  HERMES_WIRE_FIELDS(mode, vertex, other)
};

struct ProbeReply {
  Status status;
  bool truth = false;
  HERMES_WIRE_FIELDS(status, truth)
};

/// A list of store mutations, applied in order under the request's one
/// token and stopped at the first failure; one op enum instead of eight
/// message types keeps the frame dispatch table small. A single write is
/// a one-entry request; a migration step sends one request per server
/// with an entry per vertex. Unused entry fields ride along as zero.
struct MutateRequest {
  enum class Op : std::uint8_t {
    kCreateNode = 0,
    kRemoveNode = 1,
    kSetNodeState = 2,
    kAddNodeWeight = 3,
    kAddEdge = 4,
    kRemoveEdge = 5,
    kSetNodeProperty = 6,
    kSetEdgeProperty = 7,
    kLastWireValue = kSetEdgeProperty,
  };
  struct Entry {
    Op op = Op::kCreateNode;
    VertexId vertex = 0;
    VertexId other = 0;
    /// Edge type for edge ops, property key for property ops.
    std::uint32_t type_or_key = 0;
    WireNodeState node_state = WireNodeState::kAvailable;
    double weight = 0.0;
    bool other_is_local = false;
    std::string value{};
    HERMES_WIRE_FIELDS(op, vertex, other, type_or_key, node_state, weight,
                       other_is_local, value)
  };
  std::vector<Entry> entries;
  HERMES_WIRE_FIELDS(entries)
};

struct MutateReply {
  /// The first failing entry's status, or OK when every entry applied.
  Status status;
  /// Record id the last applied entry produced: a kAddEdge's new edge,
  /// kInvalidRecord for every other op or when nothing applied.
  RecordId record_id = kInvalidRecord;
  /// How many entries applied, a prefix of the request's list. The
  /// cluster's unwind paths undo exactly these.
  std::uint64_t applied = 0;
  HERMES_WIRE_FIELDS(status, record_id, applied)
};

/// Bulk install of nodes and relationship halves on one server — the
/// write side of a migration chunk, and the initial store-loading path.
/// The server creates every node before any edge, so edges between
/// co-migrating vertices in the same chunk always find their endpoints.
struct InstallChunkRequest {
  struct Node {
    VertexId id = 0;
    double weight = 1.0;
    std::vector<WireProperty> properties;
    HERMES_WIRE_FIELDS(id, weight, properties)
  };
  struct Edge {
    VertexId v = 0;
    VertexId other = 0;
    std::uint32_t type = 0;
    bool other_is_local = false;
    bool properties_included = false;
    std::vector<WireProperty> properties;
    HERMES_WIRE_FIELDS(v, other, type, other_is_local, properties_included,
                       properties)
  };
  std::vector<Node> nodes;
  std::vector<Edge> edges;
  HERMES_WIRE_FIELDS(nodes, edges)
};

struct InstallChunkReply {
  Status status;
  /// How many nodes the server managed to create before stopping — the
  /// cluster's unwind path removes exactly these on failure.
  std::uint64_t nodes_created = 0;
  std::uint64_t edges_created = 0;
  HERMES_WIRE_FIELDS(status, nodes_created, edges_created)
};

/// Read the full snapshots of a list of vertices off their source
/// server (migration copy step: one request per source and chunk).
struct ExtractRequest {
  std::vector<VertexId> vertices;
  HERMES_WIRE_FIELDS(vertices)
};

struct ExtractReply {
  struct Relationship {
    VertexId other = 0;
    std::uint32_t type = 0;
    bool properties_included = false;
    std::vector<WireProperty> properties;
    HERMES_WIRE_FIELDS(other, type, properties_included, properties)
  };
  struct Snapshot {
    VertexId id = 0;
    double weight = 1.0;
    /// Server-computed NodeSnapshot::WireBytes(), so migration byte
    /// accounting matches the shared-memory implementation exactly.
    std::uint64_t wire_bytes = 0;
    std::vector<WireProperty> properties;
    std::vector<Relationship> relationships;
    HERMES_WIRE_FIELDS(id, weight, wire_bytes, properties, relationships)
  };
  /// The first failing vertex's status; the reply then carries no
  /// snapshot at all.
  Status status;
  /// Parallel to the request's `vertices` when `status` is OK.
  std::vector<Snapshot> snapshots;
  HERMES_WIRE_FIELDS(status, snapshots)
};

/// Folds the server's pending read counts into its vertex weights
/// (DESIGN.md §12, read-weight contract). A mutation: deduplicated by
/// token, so a retried fold replays its reply and folds nothing twice.
struct AuxExchangeRequest {
  HERMES_WIRE_FIELDS()
};

struct AuxExchangeReply {
  struct Entry {
    VertexId vertex = 0;
    std::uint64_t reads = 0;
    HERMES_WIRE_FIELDS(vertex, reads)
  };
  Status status;
  /// The counts added to vertex weights, in vertex order. On a storage
  /// failure, the ones folded before it; the rest stay pending.
  std::vector<Entry> folded;
  HERMES_WIRE_FIELDS(status, folded)
};

struct HealthRequest {
  HERMES_WIRE_FIELDS()
};

struct HealthReply {
  Status status;
  std::uint64_t store_bytes = 0;
  std::uint64_t nodes = 0;
  std::uint64_t relationships = 0;
  std::uint64_t ghost_relationships = 0;
  HERMES_WIRE_FIELDS(status, store_bytes, nodes, relationships,
                     ghost_relationships)
};

struct CheckpointRequest {
  HERMES_WIRE_FIELDS()
};

struct CheckpointReply {
  Status status;
  HERMES_WIRE_FIELDS(status)
};

struct DumpRequest {
  HERMES_WIRE_FIELDS()
};

/// Everything recovery needs to rebuild the logical directory from one
/// server: node ids + weights and relationship halves with their ghost
/// flag. Single-shot today (bounded by kMaxFrameBytes); a streaming dump
/// is future work alongside the socket transport.
struct DumpReply {
  struct Node {
    VertexId id = 0;
    double weight = 1.0;
    HERMES_WIRE_FIELDS(id, weight)
  };
  struct Rel {
    VertexId src = 0;
    VertexId dst = 0;
    std::uint32_t type = 0;
    bool ghost = false;
    HERMES_WIRE_FIELDS(src, dst, type, ghost)
  };
  Status status;
  std::vector<Node> nodes;
  std::vector<Rel> rels;
  HERMES_WIRE_FIELDS(status, nodes, rels)
};

using MessagePayload =
    std::variant<NeighborsRequest, NeighborsReply, ProbeRequest, ProbeReply,
                 MutateRequest, MutateReply, InstallChunkRequest,
                 InstallChunkReply, ExtractRequest, ExtractReply,
                 AuxExchangeRequest, AuxExchangeReply, HealthRequest,
                 HealthReply, CheckpointRequest, CheckpointReply, DumpRequest,
                 DumpReply>;

/// One addressed message: routing header + typed payload. The payload's
/// variant index determines the on-wire MsgType.
struct Envelope {
  std::uint64_t request_id = 0;
  /// Retry ordinal of this delivery: 0 for the first send, incremented by
  /// the bus on each same-token resend (v2 wire field, formerly reserved).
  /// Servers dedup on (src, request_id) alone; `attempt` exists for
  /// diagnostics and so a future socket transport can prioritize retries.
  std::uint16_t attempt = 0;
  EndpointId src = 0;
  EndpointId dst = 0;
  MessagePayload payload;
  /// The routing header, after the version and type bytes and before
  /// the payload.
  HERMES_WIRE_FIELDS(attempt, request_id, src, dst)

  [[nodiscard]] MsgType type() const;
};

/// Seals `env` into a length-prefixed, CRC'd frame. Fails only if the
/// encoded frame would exceed kMaxFrameBytes.
[[nodiscard]] Result<std::string> EncodeFrame(const Envelope& env);

/// Parses and verifies a frame. Truncated, oversized, bit-flipped,
/// version-skewed, or type-unknown input returns a non-OK Status; the
/// payload decoder never reads out of bounds.
[[nodiscard]] Result<Envelope> DecodeFrame(std::string_view frame);

}  // namespace hermes

#endif  // HERMES_NET_MESSAGE_H_
