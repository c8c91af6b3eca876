#include "graphdb/graph_store.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"

namespace hermes {

GraphStore::GraphStore(PartitionId partition_id)
    : partition_id_(partition_id),
      rel_ids_(partition_id),
      prop_ids_(partition_id) {}

// --- Nodes -------------------------------------------------------------------

Status GraphStore::CreateNode(VertexId id, double weight) {
  NodeRecord record;
  record.in_use = true;
  record.state = NodeState::kAvailable;
  record.weight = weight;
  return nodes_.Create(id, record);
}

bool GraphStore::HasNode(VertexId id) const {
  const NodeRecord* r = nodes_.GetPtr(id);
  return r != nullptr && r->in_use && r->state == NodeState::kAvailable;
}

bool GraphStore::NodeExists(VertexId id) const {
  const NodeRecord* r = nodes_.GetPtr(id);
  return r != nullptr && r->in_use;
}

Result<double> GraphStore::NodeWeight(VertexId id) const {
  const NodeRecord* r = nodes_.GetPtr(id);
  if (r == nullptr || !r->in_use) return Status::NotFound("no such node");
  return r->weight;
}

Status GraphStore::AddNodeWeight(VertexId id, double delta) {
  NodeRecord* r = nodes_.GetMutable(id);
  if (r == nullptr || !r->in_use) return Status::NotFound("no such node");
  r->weight += delta;
  return Status::OK();
}

Status GraphStore::SetNodeState(VertexId id, NodeState state) {
  NodeRecord* r = nodes_.GetMutable(id);
  if (r == nullptr || !r->in_use) return Status::NotFound("no such node");
  r->state = state;
  return Status::OK();
}

Result<NodeState> GraphStore::GetNodeState(VertexId id) const {
  const NodeRecord* r = nodes_.GetPtr(id);
  if (r == nullptr || !r->in_use) return Status::NotFound("no such node");
  return r->state;
}

// --- Relationships -------------------------------------------------------------

void GraphStore::Link(VertexId owner, RecordId rel_id,
                      RelationshipRecord* rec) {
  HERMES_CHECK(links_.Insert({owner, rec->OtherEnd(owner)}, rel_id));
  rec->Linked(owner) = true;
}

void GraphStore::Unlink(VertexId owner, RelationshipRecord* rec) {
  HERMES_CHECK(links_.Erase({owner, rec->OtherEnd(owner)}));
  rec->Linked(owner) = false;
}

Result<RecordId> GraphStore::AddEdge(VertexId v, VertexId other,
                                     std::uint32_t type,
                                     bool other_is_local) {
  // Each endpoint's record is looked up once and each link key tested
  // directly; the checks and their order are those of NodeExists,
  // HasNode and FindEdge.
  if (v == other) return Status::InvalidArgument("self-loops not allowed");
  const NodeRecord* n = nodes_.GetPtr(v);
  if (n == nullptr || !n->in_use) {
    return Status::NotFound("local endpoint missing");
  }
  // Unavailable endpoints reject writes, exactly like Neighbors() rejects
  // reads. Without this, an edge written during a migration barrier
  // window lands on the node's already-snapshotted source copy and is
  // destroyed by the commit step's RemoveNode — the graph view keeps an
  // edge no store hosts.
  if (n->state != NodeState::kAvailable) {
    return Status::Unavailable("node is mid-migration");
  }

  // Existing record? (Either a duplicate AddEdge, or — during migration —
  // a half record created from the other endpoint that we now upgrade.)
  if (links_.Contains({v, other})) {
    return Status::AlreadyExists("edge already present in chain");
  }
  if (other_is_local) {
    const NodeRecord* m = nodes_.GetPtr(other);
    if (m == nullptr || !m->in_use) {
      return Status::NotFound("other endpoint claimed local but missing");
    }
    if (m->state != NodeState::kAvailable) {
      return Status::Unavailable("other endpoint is mid-migration");
    }
    // The other endpoint may already hold a half record for this edge
    // (it used to see `v` as remote). Upgrade it to a full record.
    if (const RecordId* half = links_.Find({other, v}); half != nullptr) {
      const RecordId rel_id = *half;
      RelationshipRecord* rec = rels_.GetMutable(rel_id);
      rec->ghost = false;
      Link(v, rel_id, rec);
      return rel_id;
    }
  }

  RelationshipRecord rec;
  rec.in_use = true;
  rec.type = type;
  // Store the lower endpoint as src so the side selection is stable.
  rec.src = std::min(v, other);
  rec.dst = std::max(v, other);
  rec.ghost = other_is_local ? false : HalfEdgeIsGhost(v, other);

  // Linked before it is stored, so nothing is looked up afterwards.
  // rel_ids_ mints ascending ids, so the record is an append to the
  // store's last leaf (Section 5.3.3) and cannot collide.
  const RecordId rel_id = rel_ids_.Next();
  Link(v, rel_id, &rec);
  if (other_is_local) Link(other, rel_id, &rec);
  HERMES_CHECK_OK(rels_.Append(rel_id, rec));
  return rel_id;
}

Status GraphStore::RemoveEdge(VertexId v, VertexId other) {
  HERMES_ASSIGN_OR_RETURN(RecordId rel_id, FindEdge(v, other));
  RelationshipRecord* rec = rels_.GetMutable(rel_id);
  Unlink(v, rec);
  // A full record is linked on the other side too.
  if (rec->Linked(other)) Unlink(other, rec);
  FreePropertyChain(rec->first_prop);
  return rels_.Delete(rel_id);
}

Result<std::vector<VertexId>> GraphStore::Neighbors(
    VertexId v, std::optional<std::uint32_t> type) const {
  const NodeRecord* n = nodes_.GetPtr(v);
  if (n == nullptr || !n->in_use) return Status::NotFound("no such node");
  if (n->state != NodeState::kAvailable) {
    return Status::Unavailable("node is mid-migration");
  }
  std::vector<VertexId> out;
  for (auto it = links_.LowerBoundIter({v, 0});
       it != links_.end() && it.key().first == v; ++it) {
    if (type.has_value()) {
      const RelationshipRecord* rec = rels_.GetPtr(it.value());
      HERMES_CHECK(rec != nullptr);
      if (rec->type != *type) continue;
    }
    out.push_back(it.key().second);
  }
  return out;
}

Result<std::size_t> GraphStore::DegreeOf(VertexId v) const {
  HERMES_ASSIGN_OR_RETURN(auto neighbors, Neighbors(v));
  return neighbors.size();
}

Result<RecordId> GraphStore::FindEdge(VertexId v, VertexId other) const {
  if (!NodeExists(v)) return Status::NotFound("no such node");
  const RecordId* id = links_.Find({v, other});
  if (id == nullptr) return Status::NotFound("edge not in chain");
  return *id;
}

Result<bool> GraphStore::EdgeIsGhost(VertexId v, VertexId other) const {
  HERMES_ASSIGN_OR_RETURN(RecordId rel_id, FindEdge(v, other));
  return rels_.GetPtr(rel_id)->ghost;
}

// --- Properties ----------------------------------------------------------------

Status GraphStore::SetPropertyOnChain(RecordId* first_prop,
                                      std::uint32_t key,
                                      const std::string& value) {
  // Look for an existing property record with this key.
  RecordId id = *first_prop;
  while (id != kInvalidRecord) {
    PropertyRecord* rec = props_.GetMutable(id);
    HERMES_CHECK(rec != nullptr);
    if (rec->key_id == key) {
      if (!rec->inlined && rec->dynamic_head != kInvalidRecord) {
        HERMES_RETURN_NOT_OK(dynamic_.Free(rec->dynamic_head));
      }
      rec->inlined = false;
      rec->dynamic_head = dynamic_.Put(value);
      return Status::OK();
    }
    id = rec->next_prop;
  }
  // Prepend a new property record.
  PropertyRecord rec;
  rec.in_use = true;
  rec.key_id = key;
  rec.inlined = false;
  rec.dynamic_head = dynamic_.Put(value);
  rec.next_prop = *first_prop;
  const RecordId prop_id = prop_ids_.Next();
  HERMES_RETURN_NOT_OK(props_.Create(prop_id, rec));
  *first_prop = prop_id;
  return Status::OK();
}

Result<std::string> GraphStore::GetPropertyFromChain(
    RecordId first_prop, std::uint32_t key) const {
  RecordId id = first_prop;
  while (id != kInvalidRecord) {
    const PropertyRecord* rec = props_.GetPtr(id);
    HERMES_CHECK(rec != nullptr);
    if (rec->key_id == key) {
      if (rec->inlined) return std::to_string(rec->inline_value);
      return dynamic_.Get(rec->dynamic_head);
    }
    id = rec->next_prop;
  }
  return Status::NotFound("no such property");
}

void GraphStore::FreePropertyChain(RecordId first_prop) {
  RecordId id = first_prop;
  while (id != kInvalidRecord) {
    const PropertyRecord* rec = props_.GetPtr(id);
    HERMES_CHECK(rec != nullptr);
    const RecordId next = rec->next_prop;
    // The record was just observed live via GetPtr, so freeing its
    // dynamic chain and the record itself cannot legitimately fail — a
    // failure here is chain corruption, not a recoverable condition.
    if (!rec->inlined && rec->dynamic_head != kInvalidRecord) {
      HERMES_CHECK_OK(dynamic_.Free(rec->dynamic_head));
    }
    HERMES_CHECK_OK(props_.Delete(id));
    id = next;
  }
}

std::vector<std::pair<std::uint32_t, std::string>>
GraphStore::DumpPropertyChain(RecordId first_prop) const {
  std::vector<std::pair<std::uint32_t, std::string>> out;
  RecordId id = first_prop;
  while (id != kInvalidRecord) {
    const PropertyRecord* rec = props_.GetPtr(id);
    HERMES_CHECK(rec != nullptr);
    std::string value = rec->inlined
                            ? std::to_string(rec->inline_value)
                            : dynamic_.Get(rec->dynamic_head).ValueOr("");
    out.emplace_back(rec->key_id, std::move(value));
    id = rec->next_prop;
  }
  return out;
}

Status GraphStore::SetNodeProperty(VertexId id, std::uint32_t key,
                                   const std::string& value) {
  NodeRecord* n = nodes_.GetMutable(id);
  if (n == nullptr || !n->in_use) return Status::NotFound("no such node");
  return SetPropertyOnChain(&n->first_prop, key, value);
}

Result<std::string> GraphStore::GetNodeProperty(VertexId id,
                                                std::uint32_t key) const {
  const NodeRecord* n = nodes_.GetPtr(id);
  if (n == nullptr || !n->in_use) return Status::NotFound("no such node");
  return GetPropertyFromChain(n->first_prop, key);
}

Status GraphStore::SetEdgeProperty(VertexId v, VertexId other,
                                   std::uint32_t key,
                                   const std::string& value) {
  HERMES_ASSIGN_OR_RETURN(RecordId rel_id, FindEdge(v, other));
  RelationshipRecord* rec = rels_.GetMutable(rel_id);
  if (rec->ghost) {
    return Status::InvalidArgument(
        "ghost relationships hold no properties; write to the owning "
        "partition");
  }
  return SetPropertyOnChain(&rec->first_prop, key, value);
}

Result<std::string> GraphStore::GetEdgeProperty(VertexId v, VertexId other,
                                                std::uint32_t key) const {
  HERMES_ASSIGN_OR_RETURN(RecordId rel_id, FindEdge(v, other));
  const RelationshipRecord* rec = rels_.GetPtr(rel_id);
  if (rec->ghost) {
    return Status::Unavailable("property lives on the owning partition");
  }
  return GetPropertyFromChain(rec->first_prop, key);
}

// --- Migration -------------------------------------------------------------------

Result<NodeSnapshot> GraphStore::ExtractNode(VertexId v) const {
  const NodeRecord* n = nodes_.GetPtr(v);
  if (n == nullptr || !n->in_use) return Status::NotFound("no such node");

  NodeSnapshot snap;
  snap.id = v;
  snap.weight = n->weight;
  snap.properties = DumpPropertyChain(n->first_prop);

  for (auto it = links_.LowerBoundIter({v, 0});
       it != links_.end() && it.key().first == v; ++it) {
    const RelationshipRecord* rec = rels_.GetPtr(it.value());
    HERMES_CHECK(rec != nullptr);
    NodeSnapshot::Relationship rel;
    rel.other = it.key().second;
    rel.type = rec->type;
    rel.properties_included = !rec->ghost;
    if (!rec->ghost) rel.properties = DumpPropertyChain(rec->first_prop);
    snap.relationships.push_back(std::move(rel));
  }
  return snap;
}

Status GraphStore::RemoveNode(VertexId v) {
  const NodeRecord* n = nodes_.GetPtr(v);
  if (n == nullptr || !n->in_use) return Status::NotFound("no such node");

  // v's (other end, record) links, collected before Unlink erases them.
  std::vector<std::pair<VertexId, RecordId>> linked;
  for (auto it = links_.LowerBoundIter({v, 0});
       it != links_.end() && it.key().first == v; ++it) {
    linked.emplace_back(it.key().second, it.value());
  }
  for (const auto& [other, id] : linked) {
    RelationshipRecord* rec = rels_.GetMutable(id);
    HERMES_CHECK(rec != nullptr);
    Unlink(v, rec);
    if (rec->Linked(other)) {
      // Full record degrades to the neighbor's half record. The ghost rule
      // (real copy follows the lower vertex id) decides whether this side
      // keeps the properties.
      rec->ghost = HalfEdgeIsGhost(other, v);
      if (rec->ghost && rec->first_prop != kInvalidRecord) {
        FreePropertyChain(rec->first_prop);
        rec->first_prop = kInvalidRecord;
      }
    } else {
      FreePropertyChain(rec->first_prop);
      HERMES_RETURN_NOT_OK(rels_.Delete(id));
    }
  }

  FreePropertyChain(n->first_prop);
  return nodes_.Delete(v);
}

// --- Introspection -----------------------------------------------------------------

std::size_t GraphStore::NumGhostRelationships() const {
  std::size_t ghosts = 0;
  rels_.ForEach([&ghosts](RecordId, const RelationshipRecord& rec) {
    if (rec.ghost) ++ghosts;
    return true;
  });
  return ghosts;
}

std::size_t GraphStore::MemoryBytes() const {
  return nodes_.MemoryBytes() + rels_.MemoryBytes() + props_.MemoryBytes() +
         dynamic_.MemoryBytes() + links_.AllocatedBytes();
}

bool GraphStore::CheckLinks() const {
  // Every key has its bit, on a record with that owner and other end.
  for (auto it = links_.begin(); it != links_.end(); ++it) {
    const auto [owner, other] = it.key();
    const RelationshipRecord* rec = rels_.GetPtr(it.value());
    if (rec == nullptr || !rec->in_use ||
        (rec->src != owner && rec->dst != owner) ||
        rec->OtherEnd(owner) != other || !rec->Linked(owner)) {
      return false;
    }
  }
  // Every set bit has its key, naming the record, under an existing
  // owner. Some bit is set; a full record is no ghost, and a half
  // record's ghost bit follows the id rule.
  bool ok = true;
  rels_.ForEach([&](RecordId id, const RelationshipRecord& r) {
    for (const VertexId owner : {r.src, r.dst}) {
      if (!r.Linked(owner)) continue;
      const RecordId* key = links_.Find({owner, r.OtherEnd(owner)});
      if (key == nullptr || *key != id || !NodeExists(owner)) ok = false;
    }
    const bool full = r.src_linked && r.dst_linked;
    const VertexId local = r.src_linked ? r.src : r.dst;
    if (!(r.src_linked || r.dst_linked) ||
        r.ghost != (!full && HalfEdgeIsGhost(local, r.OtherEnd(local)))) {
      ok = false;
    }
    return ok;
  });
  return ok;
}

std::vector<GraphStore::NodeDump> GraphStore::DumpNodes() const {
  std::vector<NodeDump> out;
  out.reserve(nodes_.size());
  nodes_.ForEach([&](RecordId id, const NodeRecord& n) {
    if (n.in_use) {
      out.push_back(NodeDump{static_cast<VertexId>(id), n.weight, n.state,
                             DumpPropertyChain(n.first_prop)});
    }
    return true;
  });
  return out;
}

std::vector<GraphStore::RelationshipDump> GraphStore::DumpRelationships()
    const {
  std::vector<RelationshipDump> out;
  out.reserve(rels_.size());
  rels_.ForEach([&](RecordId, const RelationshipRecord& r) {
    if (r.in_use) {
      out.push_back(RelationshipDump{r.src, r.dst, r.type, r.ghost,
                                     r.src_linked, r.dst_linked,
                                     DumpPropertyChain(r.first_prop)});
    }
    return true;
  });
  return out;
}

Status GraphStore::Restore(const std::vector<NodeDump>& nodes,
                           const std::vector<RelationshipDump>& rels) {
  if (nodes_.size() != 0 || rels_.size() != 0) {
    return Status::InvalidArgument("Restore needs an empty store");
  }
  // Nodes come in id order, as DumpNodes gives them; a node's index is
  // its slot in the per-node vectors below, found by hash: a binary
  // search over the ids mispredicts its way to about 40% of the whole
  // restore.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::unordered_map<VertexId, std::size_t> slots;
  slots.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0 && nodes[i].id <= nodes[i - 1].id) {
      return nodes[i].id == nodes[i - 1].id
                 ? Status::AlreadyExists("duplicate node id")
                 : Status::InvalidArgument("nodes not in id order");
    }
    slots.emplace(nodes[i].id, i);
  }
  auto slot = [&slots](VertexId v) {
    const auto it = slots.find(v);
    return it != slots.end() ? it->second : kNone;
  };

  // Records in dump order, with one link key per linkage bit.
  struct LinkKey {
    std::size_t owner;  // slot of the linked node
    VertexId other;
    RecordId id;
  };
  std::vector<std::pair<RecordId, RelationshipRecord>> records;
  records.reserve(rels.size());
  std::vector<LinkKey> links;
  links.reserve(2 * rels.size());
  for (const RelationshipDump& r : rels) {
    if (!r.src_linked && !r.dst_linked) {
      return Status::InvalidArgument("relationship linked on neither side");
    }
    if (r.src == r.dst) {
      return Status::InvalidArgument("self-loops not allowed");
    }
    const std::size_t src_slot = r.src_linked ? slot(r.src) : kNone;
    const std::size_t dst_slot = r.dst_linked ? slot(r.dst) : kNone;
    if ((r.src_linked && src_slot == kNone) ||
        (r.dst_linked && dst_slot == kNone)) {
      return Status::NotFound("relationship endpoint missing");
    }
    RelationshipRecord rec;
    rec.in_use = true;
    rec.type = r.type;
    rec.src = std::min(r.src, r.dst);
    rec.dst = std::max(r.src, r.dst);
    rec.Linked(r.src) = r.src_linked;
    rec.Linked(r.dst) = r.dst_linked;
    rec.ghost = !(r.src_linked && r.dst_linked) &&
                (r.src_linked ? HalfEdgeIsGhost(r.src, r.dst)
                              : HalfEdgeIsGhost(r.dst, r.src));
    const RecordId id = rel_ids_.Next();
    if (r.src_linked) links.push_back({src_slot, r.dst, id});
    if (r.dst_linked) links.push_back({dst_slot, r.src, id});
    records.emplace_back(id, rec);
  }

  // The link index's keys in order: grouped by owner (a counting sort on
  // the slot), each group sorted by other end.
  std::vector<std::size_t> group(nodes.size() + 1, 0);
  for (const LinkKey& link : links) ++group[link.owner + 1];
  for (std::size_t i = 1; i < group.size(); ++i) group[i] += group[i - 1];
  std::vector<std::pair<VertexId, RecordId>> keyed(links.size());
  std::vector<std::size_t> fill(group.begin(), group.end() - 1);
  for (const LinkKey& link : links) {
    keyed[fill[link.owner]++] = {link.other, link.id};
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto first = keyed.begin() + static_cast<std::ptrdiff_t>(group[i]);
    const auto last = keyed.begin() + static_cast<std::ptrdiff_t>(group[i + 1]);
    std::sort(first, last);
    if (std::adjacent_find(first, last, [](const auto& a, const auto& b) {
          return a.first == b.first;
        }) != last) {
      return Status::AlreadyExists("two relationships share one link");
    }
  }

  // Every check passed: store the records in ascending key order, each
  // an append to its tree's last leaf. Property chains are built back to
  // front, so they keep their dump order.
  auto restore_properties = [this](const auto& properties,
                                   RecordId* first_prop) {
    for (auto p = properties.rbegin(); p != properties.rend(); ++p) {
      HERMES_CHECK_OK(SetPropertyOnChain(first_prop, p->first, p->second));
    }
  };
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    NodeRecord n;
    n.in_use = true;
    n.state = nodes[i].state;
    n.weight = nodes[i].weight;
    restore_properties(nodes[i].properties, &n.first_prop);
    HERMES_CHECK_OK(nodes_.Append(nodes[i].id, n));
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    auto& [id, rec] = records[i];
    if (!rec.ghost) restore_properties(rels[i].properties, &rec.first_prop);
    HERMES_CHECK_OK(rels_.Append(id, rec));
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t k = group[i]; k < group[i + 1]; ++k) {
      HERMES_CHECK(
          links_.Append({nodes[i].id, keyed[k].first}, keyed[k].second));
    }
  }
  return Status::OK();
}

std::vector<VertexId> GraphStore::NodeIds() const {
  std::vector<VertexId> out;
  out.reserve(nodes_.size());
  nodes_.ForEach([&out](RecordId id, const NodeRecord& n) {
    if (n.in_use) out.push_back(static_cast<VertexId>(id));
    return true;
  });
  return out;
}

}  // namespace hermes
