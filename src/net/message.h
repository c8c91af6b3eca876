/// Typed request/reply messages for every cluster↔partition-server
/// boundary operation (DESIGN.md §12): batched neighbor reads, existence
/// probes, batched record mutations, migration chunk install/extract,
/// the read-count fold, health, checkpoint, and recovery dumps. Each
/// payload knows how to encode itself into a WireWriter and decode from a
/// WireReader with full bounds checking; EncodeFrame/DecodeFrame wrap a
/// payload in the versioned, CRC-sealed frame that actually travels:
///
///   [u32 len][u8 version][u8 type][u16 reserved]
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
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "net/wire.h"

namespace hermes {

/// Logical endpoint on a Transport: partition servers own endpoints
/// 0..alpha-1, the cluster client owns endpoint alpha.
using EndpointId = std::uint32_t;

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

/// Node availability as it travels on the wire; values mirror
/// storage NodeState so the server-side cast is a no-op.
enum class WireNodeState : std::uint8_t {
  kAvailable = 0,
  kUnavailable = 1,
};

/// One property as stored on node or relationship chains.
struct WireProperty {
  std::uint32_t key = 0;
  std::string value;
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

  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<NeighborsRequest> DecodeFrom(WireReader* r);
};

struct NeighborsReply {
  struct Adjacency {
    Status status;
    std::vector<VertexId> neighbors;
  };
  Status status;
  /// Parallel to the request's `vertices`; a per-vertex status lets one
  /// mid-migration vertex fail without poisoning the batch.
  std::vector<Adjacency> results;

  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<NeighborsReply> DecodeFrom(WireReader* r);
};

/// Existence/ghost probe against a single server's store.
struct ProbeRequest {
  enum class Mode : std::uint8_t {
    kHasNode = 0,     // linked and available
    kNodeExists = 1,  // record present regardless of state
    kEdgeIsGhost = 2, // half-record (vertex, other) is a ghost copy
  };
  Mode mode = Mode::kHasNode;
  VertexId vertex = 0;
  VertexId other = 0;

  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<ProbeRequest> DecodeFrom(WireReader* r);
};

struct ProbeReply {
  Status status;
  bool truth = false;

  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<ProbeReply> DecodeFrom(WireReader* r);
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
  };
  std::vector<Entry> entries;

  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<MutateRequest> DecodeFrom(WireReader* r);
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

  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<MutateReply> DecodeFrom(WireReader* r);
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
  };
  struct Edge {
    VertexId v = 0;
    VertexId other = 0;
    std::uint32_t type = 0;
    bool other_is_local = false;
    bool properties_included = false;
    std::vector<WireProperty> properties;
  };
  std::vector<Node> nodes;
  std::vector<Edge> edges;

  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<InstallChunkRequest> DecodeFrom(WireReader* r);
};

struct InstallChunkReply {
  Status status;
  /// How many nodes the server managed to create before stopping — the
  /// cluster's unwind path removes exactly these on failure.
  std::uint64_t nodes_created = 0;
  std::uint64_t edges_created = 0;

  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<InstallChunkReply> DecodeFrom(WireReader* r);
};

/// Read the full snapshots of a list of vertices off their source
/// server (migration copy step: one request per source and chunk).
struct ExtractRequest {
  std::vector<VertexId> vertices;

  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<ExtractRequest> DecodeFrom(WireReader* r);
};

struct ExtractReply {
  struct Relationship {
    VertexId other = 0;
    std::uint32_t type = 0;
    bool properties_included = false;
    std::vector<WireProperty> properties;
  };
  struct Snapshot {
    VertexId id = 0;
    double weight = 1.0;
    /// Server-computed NodeSnapshot::WireBytes(), so migration byte
    /// accounting matches the shared-memory implementation exactly.
    std::uint64_t wire_bytes = 0;
    std::vector<WireProperty> properties;
    std::vector<Relationship> relationships;
  };
  /// The first failing vertex's status; the reply then carries no
  /// snapshot at all.
  Status status;
  /// Parallel to the request's `vertices` when `status` is OK.
  std::vector<Snapshot> snapshots;

  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<ExtractReply> DecodeFrom(WireReader* r);
};

/// Folds the server's pending read counts into its vertex weights
/// (DESIGN.md §12, read-weight contract). A mutation: deduplicated by
/// token, so a retried fold replays its reply and folds nothing twice.
struct AuxExchangeRequest {
  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<AuxExchangeRequest> DecodeFrom(WireReader* r);
};

struct AuxExchangeReply {
  struct Entry {
    VertexId vertex = 0;
    std::uint64_t reads = 0;
  };
  Status status;
  /// The counts added to vertex weights, in vertex order. On a storage
  /// failure, the ones folded before it; the rest stay pending.
  std::vector<Entry> folded;

  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<AuxExchangeReply> DecodeFrom(WireReader* r);
};

struct HealthRequest {
  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<HealthRequest> DecodeFrom(WireReader* r);
};

struct HealthReply {
  Status status;
  std::uint64_t store_bytes = 0;
  std::uint64_t nodes = 0;
  std::uint64_t relationships = 0;
  std::uint64_t ghost_relationships = 0;

  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<HealthReply> DecodeFrom(WireReader* r);
};

struct CheckpointRequest {
  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<CheckpointRequest> DecodeFrom(WireReader* r);
};

struct CheckpointReply {
  Status status;

  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<CheckpointReply> DecodeFrom(WireReader* r);
};

struct DumpRequest {
  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<DumpRequest> DecodeFrom(WireReader* r);
};

/// Everything recovery needs to rebuild the logical directory from one
/// server: node ids + weights and relationship halves with their ghost
/// flag. Single-shot today (bounded by kMaxFrameBytes); a streaming dump
/// is future work alongside the socket transport.
struct DumpReply {
  struct Node {
    VertexId id = 0;
    double weight = 1.0;
  };
  struct Rel {
    VertexId src = 0;
    VertexId dst = 0;
    std::uint32_t type = 0;
    bool ghost = false;
  };
  Status status;
  std::vector<Node> nodes;
  std::vector<Rel> rels;

  void EncodeTo(WireWriter* w) const;
  [[nodiscard]] static Result<DumpReply> DecodeFrom(WireReader* r);
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
