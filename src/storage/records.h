#ifndef HERMES_STORAGE_RECORDS_H_
#define HERMES_STORAGE_RECORDS_H_

#include <cstdint>

#include "common/types.h"

namespace hermes {

/// Fixed-size record layouts mirroring Neo4j's three-store design
/// (Section 4): node store, relationship store, property store. Keeping
/// node and relationship records fixed-size preserves Neo4j's O(1) record
/// addressing; Hermes swaps the offset computation for a B+Tree lookup
/// because IDs stop being contiguous once data migrates. Adjacency is not
/// in the records: each GraphStore indexes its relationships by
/// (endpoint, other end) instead of threading Neo4j's doubly-linked
/// chains through them.

/// Availability of a node during the two-step physical migration: marked
/// records enter kUnavailable in the remove step, and queries treat them
/// as absent (Section 3.2).
enum class NodeState : std::uint8_t {
  kAvailable = 0,
  kUnavailable = 1,
};

struct NodeRecord {
  bool in_use = false;
  NodeState state = NodeState::kAvailable;
  /// Head of this node's property chain.
  RecordId first_prop = kInvalidRecord;
  /// Popularity weight (read-request count) — the repartitioner's vertex
  /// weight.
  double weight = 1.0;
};

struct RelationshipRecord {
  bool in_use = false;
  /// Ghost relationships keep the graph structure valid when the other
  /// endpoint lives on a remote partition: they carry no properties but
  /// make adjacency lists fully local (Section 4).
  bool ghost = false;
  /// Which endpoints' adjacency the record belongs to: both for a full
  /// record, exactly one for a half record (a remote endpoint, or a local
  /// one removed and possibly re-created since). Each set bit has its
  /// (endpoint, other end) key in the store's link index.
  bool src_linked = false;
  bool dst_linked = false;
  std::uint32_t type = 0;
  VertexId src = kInvalidVertex;
  VertexId dst = kInvalidVertex;
  RecordId first_prop = kInvalidRecord;

  /// The other endpoint, given one of them.
  VertexId OtherEnd(VertexId self) const { return self == src ? dst : src; }
  /// Whether the record is linked on `self`'s side.
  bool& Linked(VertexId self) { return self == src ? src_linked : dst_linked; }
  bool Linked(VertexId self) const {
    return self == src ? src_linked : dst_linked;
  }
};

static_assert(sizeof(NodeRecord) == 24);
static_assert(sizeof(RelationshipRecord) == 32);

struct PropertyRecord {
  bool in_use = false;
  std::uint32_t key_id = 0;
  /// Small integral values are stored inline; longer payloads live in the
  /// dynamic store (two-layer scheme, Section 4).
  bool inlined = true;
  std::uint64_t inline_value = 0;
  RecordId dynamic_head = kInvalidRecord;
  RecordId next_prop = kInvalidRecord;
};

}  // namespace hermes

#endif  // HERMES_STORAGE_RECORDS_H_
