#ifndef HERMES_GRAPHDB_GRAPH_STORE_H_
#define HERMES_GRAPHDB_GRAPH_STORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "graphdb/node_snapshot.h"
#include "storage/bptree.h"
#include "storage/dynamic_store.h"
#include "storage/id_generator.h"
#include "storage/record_store.h"
#include "storage/records.h"

namespace hermes {

/// One partition's slice of the distributed graph: Neo4j's layered store
/// model (node store, relationship store, property store with dynamic
/// blocks) extended with the Hermes distribution mechanisms — ghost
/// relationships, node availability states, and snapshot-based migration
/// (Section 4). Where Neo4j threads each node's relationships into a
/// doubly-linked chain, this store keeps one link index keyed by
/// (endpoint, other end), so a node's adjacency is one range scan.
///
/// Edge representation. An edge {v, u} is materialized on every partition
/// that hosts one of its endpoints:
///   * both endpoints local  -> one full record linked on both sides;
///   * one endpoint remote   -> a half record linked on the local
///     endpoint's side only. The copy co-located with the lower vertex id
///     is the property-bearing one; the other carries the ghost flag and no
///     properties. Both sides derive this rule independently, so no
///     coordination is needed.
/// Either way the adjacency list of a local node is fully local, which is
/// what keeps traversal hops cheap.
class GraphStore {
 public:
  explicit GraphStore(PartitionId partition_id);

  PartitionId partition_id() const { return partition_id_; }

  // --- Nodes ---------------------------------------------------------------

  [[nodiscard]] Status CreateNode(VertexId id, double weight = 1.0);

  /// True when the node exists and is available (not mid-migration).
  bool HasNode(VertexId id) const;

  /// True when the node record exists regardless of availability.
  bool NodeExists(VertexId id) const;

  [[nodiscard]] Result<double> NodeWeight(VertexId id) const;
  [[nodiscard]] Status AddNodeWeight(VertexId id, double delta);

  /// Marks a node unavailable: standard queries treat it as absent and no
  /// locks can be taken on it (migration remove step, Section 3.2).
  [[nodiscard]] Status SetNodeState(VertexId id, NodeState state);
  [[nodiscard]] Result<NodeState> GetNodeState(VertexId id) const;

  // --- Relationships --------------------------------------------------------

  /// Adds the local materialization of edge {v, other}. `other_is_local`
  /// selects full-record vs. ghost/half-record handling; `v` must be local
  /// and available. A record already linked on v's side is AlreadyExists;
  /// a half record the local `other` holds for the edge is upgraded to a
  /// full record, and its id returned. A new record is appended to the
  /// relationship store: its id is above every stored one.
  [[nodiscard]] Result<RecordId> AddEdge(VertexId v, VertexId other, std::uint32_t type,
                           bool other_is_local);

  /// Removes the local materialization of edge {v, other}.
  [[nodiscard]] Status RemoveEdge(VertexId v, VertexId other);

  /// v's neighbours in ascending id order: one range scan of the link
  /// index, fully local by construction. With `type` set, only those
  /// reached via relationships of that type (the scan then reads each
  /// relationship record); std::nullopt means all types.
  [[nodiscard]] Result<std::vector<VertexId>> Neighbors(
      VertexId v, std::optional<std::uint32_t> type = std::nullopt) const;

  [[nodiscard]] Result<std::size_t> DegreeOf(VertexId v) const;

  /// Record id of the edge {v, other} linked on v's side: one lookup in
  /// the link index.
  [[nodiscard]] Result<RecordId> FindEdge(VertexId v, VertexId other) const;

  /// FindEdge(v, other).ok() without its node lookup: a link's owner
  /// always exists.
  bool HasEdge(VertexId v, VertexId other) const {
    return links_.Contains({v, other});
  }

  /// Whether the local copy of edge {v, other} is a ghost (no properties).
  [[nodiscard]] Result<bool> EdgeIsGhost(VertexId v, VertexId other) const;

  // --- Properties ------------------------------------------------------------

  [[nodiscard]] Status SetNodeProperty(VertexId id, std::uint32_t key,
                         const std::string& value);
  [[nodiscard]] Result<std::string> GetNodeProperty(VertexId id, std::uint32_t key) const;

  [[nodiscard]] Status SetEdgeProperty(VertexId v, VertexId other, std::uint32_t key,
                         const std::string& value);
  [[nodiscard]] Result<std::string> GetEdgeProperty(VertexId v, VertexId other,
                                      std::uint32_t key) const;

  // --- Migration -------------------------------------------------------------

  /// Copy-step payload for node v (does not modify the store): one range
  /// scan of the link index, so relationships come in ascending
  /// other-end order.
  [[nodiscard]] Result<NodeSnapshot> ExtractNode(VertexId v) const;

  /// Rebuilds a migrated node locally. `is_local` reports whether a given
  /// neighbor is hosted on this partition *after* the migration epoch;
  /// half records for neighbors that are local get merged into full
  /// records (AddEdge handles the merge).
  template <typename IsLocalFn>
  [[nodiscard]] Status IngestNodeWith(const NodeSnapshot& snapshot, IsLocalFn is_local);

  /// Remove-step: deletes v and the relationships linked on its side.
  /// Full records shared with a still-local neighbor degrade to half
  /// records (the neighbor keeps the edge; the ghost rule decides whether
  /// properties are kept or dropped).
  [[nodiscard]] Status RemoveNode(VertexId v);

  // --- Introspection ----------------------------------------------------------

  std::size_t NumNodes() const { return nodes_.size(); }
  std::size_t NumRelationships() const { return rels_.size(); }
  std::size_t NumGhostRelationships() const;
  std::size_t MemoryBytes() const;

  /// Validates that the link index and the records' linkage bits agree:
  /// every set bit has its key, naming that record, under an existing
  /// owner; every key has its bit; no record is linked on neither side;
  /// a full record is no ghost and a half record's ghost bit follows the
  /// id rule. Used by tests.
  bool CheckLinks() const;

  /// All local node ids (in id order).
  std::vector<VertexId> NodeIds() const;

  // --- Bulk export (snapshots / persistence) -----------------------------

  struct NodeDump {
    VertexId id;
    double weight;
    NodeState state;
    std::vector<std::pair<std::uint32_t, std::string>> properties;

    friend bool operator==(const NodeDump&, const NodeDump&) = default;
  };
  struct RelationshipDump {
    VertexId src;
    VertexId dst;
    std::uint32_t type;
    bool ghost;
    // The record's linkage bits: both for a full record; exactly one for
    // a half record (remote endpoint, or a local endpoint that was
    // removed and possibly re-created since). Node existence alone
    // cannot recover this distinction, so snapshots must carry it
    // explicitly.
    bool src_linked;
    bool dst_linked;
    std::vector<std::pair<std::uint32_t, std::string>> properties;

    friend bool operator==(const RelationshipDump&,
                           const RelationshipDump&) = default;
  };

  /// Every node record with its property chain, in id order.
  std::vector<NodeDump> DumpNodes() const;

  /// Every relationship record (full and half/ghost alike), in record-id
  /// order, with its linkage bits: one pass over the relationship store.
  std::vector<RelationshipDump> DumpRelationships() const;

  /// Rebuilds an empty store from DumpNodes() and DumpRelationships()
  /// output, in one pass over the records: the inverse of the dumps, and
  /// what loading a snapshot does. Relationship ids are minted in dump
  /// order, each record keeps its linkage bits and gets a link key per
  /// set bit; property chains keep their dump order. The ghost flag is
  /// recomputed from the id rule and a ghost record's properties are
  /// dropped. Rejected, before any record is stored: a non-empty store
  /// (InvalidArgument), a duplicate node id (AlreadyExists), nodes out of
  /// id order, a relationship linked on neither side and a self-loop
  /// (InvalidArgument), a linked endpoint that is not in `nodes`
  /// (NotFound), and two links with one (owner, other end) key
  /// (AlreadyExists). No store dumps any of these.
  [[nodiscard]] Status Restore(const std::vector<NodeDump>& nodes,
                               const std::vector<RelationshipDump>& rels);

 private:
  /// Links record `rel_id` on `owner`'s side: inserts the owner's link
  /// key and sets the record's bit. Link and Unlink are the only writers
  /// of both outside Restore.
  void Link(VertexId owner, RecordId rel_id, RelationshipRecord* rec);
  void Unlink(VertexId owner, RelationshipRecord* rec);

  /// Whether the local copy of a half edge {local, remote} is the ghost.
  static bool HalfEdgeIsGhost(VertexId local, VertexId remote) {
    return local > remote;
  }

  [[nodiscard]] Status SetPropertyOnChain(RecordId* first_prop, std::uint32_t key,
                            const std::string& value);
  [[nodiscard]] Result<std::string> GetPropertyFromChain(RecordId first_prop,
                                           std::uint32_t key) const;
  void FreePropertyChain(RecordId first_prop);
  std::vector<std::pair<std::uint32_t, std::string>> DumpPropertyChain(
      RecordId first_prop) const;

  PartitionId partition_id_;
  RecordStore<NodeRecord> nodes_;
  RecordStore<RelationshipRecord> rels_;
  RecordStore<PropertyRecord> props_;
  DynamicStore dynamic_;
  /// (owner, other end) -> the record linked on the owner's side, one
  /// entry per set linkage bit: the store's only adjacency structure.
  /// Only Link, Unlink and Restore change it. AddEdge's duplicate check
  /// keeps an owner to one record per other end, so the key is unique
  /// even when a removed and re-created node leaves two records for one
  /// endpoint pair, each linked on one side.
  BPlusTree<std::pair<VertexId, VertexId>, RecordId> links_;
  IdGenerator rel_ids_;
  IdGenerator prop_ids_;
};

template <typename IsLocalFn>
Status GraphStore::IngestNodeWith(const NodeSnapshot& snapshot,
                                  IsLocalFn is_local) {
  HERMES_RETURN_NOT_OK(CreateNode(snapshot.id, snapshot.weight));
  for (const auto& [key, value] : snapshot.properties) {
    HERMES_RETURN_NOT_OK(SetNodeProperty(snapshot.id, key, value));
  }
  for (const auto& rel : snapshot.relationships) {
    HERMES_ASSIGN_OR_RETURN(
        RecordId rel_id,
        AddEdge(snapshot.id, rel.other, rel.type, is_local(rel.other)));
    (void)rel_id;
    if (rel.properties_included) {
      for (const auto& [key, value] : rel.properties) {
        // Ghost copies drop properties by design; SetEdgeProperty on a
        // ghost returns InvalidArgument, which we tolerate here.
        Status st = SetEdgeProperty(snapshot.id, rel.other, key, value);
        if (!st.ok() && !st.IsInvalidArgument()) return st;
      }
    }
  }
  return Status::OK();
}

}  // namespace hermes

#endif  // HERMES_GRAPHDB_GRAPH_STORE_H_
