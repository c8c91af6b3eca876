// Property-based stress test for the GraphStore: a long random sequence
// of node/edge/property operations (including ghost halves, full
// records, two half records for one endpoint pair and unavailable nodes)
// is mirrored into a trivially correct reference model; store contents,
// edge lookups and link invariants must match throughout, Restore of
// the store's own dumps must rebuild it after every operation, and a
// snapshot round trip must reproduce the final state.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "canonical_state.h"
#include "test_util.h"

#include "common/rng.h"
#include "graphdb/durable_store.h"
#include "graphdb/graph_store.h"

namespace hermes {
namespace {

constexpr VertexId kLocalSpace = 60;    // ids 0..59 may be local nodes
constexpr VertexId kRemoteBase = 1000;  // ids >= 1000 are "remote"
constexpr VertexId kRemoteSpace = 20;

struct Reference {
  // node id -> weight; adjacency (the other ends linked on each node's
  // side) as sorted sets.
  std::map<VertexId, double> nodes;
  std::map<VertexId, std::set<VertexId>> adjacency;
  std::map<std::pair<VertexId, VertexId>, std::string> edge_prop;
  // Endpoint pairs (lower id first) whose record is linked on both
  // sides. Any other link is a half record, even when both ends list
  // each other: a removed and re-created node can leave one half record
  // linked on each side.
  std::set<std::pair<VertexId, VertexId>> full;
  std::set<VertexId> unavailable;

  bool Available(VertexId v) const {
    return nodes.count(v) != 0 && unavailable.count(v) == 0;
  }

  static std::pair<VertexId, VertexId> Key(VertexId a, VertexId b) {
    return {std::min(a, b), std::max(a, b)};
  }
};

// FindEdge(v, w) and EdgeIsGhost(v, w) for every pair the ops can touch.
// An edge is linked on v's side exactly when the model's adjacency says
// so. A half record is the ghost when its local end is the higher id.
void ExpectLookupsMatch(const GraphStore& store, const Reference& ref) {
  std::vector<VertexId> others;
  for (VertexId w = 0; w < kLocalSpace; ++w) others.push_back(w);
  for (VertexId w = 0; w < kRemoteSpace; ++w) others.push_back(kRemoteBase + w);
  for (VertexId v = 0; v < kLocalSpace; ++v) {
    const auto adj = ref.adjacency.find(v);
    for (VertexId w : others) {
      const bool linked = ref.nodes.count(v) != 0 &&
                          adj != ref.adjacency.end() && adj->second.count(w);
      const Result<bool> ghost = store.EdgeIsGhost(v, w);
      ASSERT_EQ(store.FindEdge(v, w).ok(), linked) << v << "->" << w;
      ASSERT_EQ(ghost.ok(), linked) << v << "->" << w;
      if (!linked) continue;
      const bool full = ref.full.count(Reference::Key(v, w)) != 0;
      EXPECT_EQ(*ghost, !full && v > w) << v << "->" << w;
    }
  }
}

// Neighbors is one scan of the link index: strictly ascending, and the
// same ids as the other ends of the node's relationships (ExtractNode).
void ExpectNeighborsMatchLinks(const GraphStore& store) {
  for (VertexId v : store.NodeIds()) {
    if (!store.HasNode(v)) continue;
    const Result<std::vector<VertexId>> neighbors = store.Neighbors(v);
    const Result<NodeSnapshot> snapshot = store.ExtractNode(v);
    ASSERT_OK(neighbors);
    ASSERT_OK(snapshot);
    ASSERT_EQ(std::adjacent_find(neighbors->begin(), neighbors->end(),
                                 std::greater_equal<VertexId>()),
              neighbors->end())
        << "vertex " << v << ": neighbours not strictly ascending";
    std::vector<VertexId> others;
    for (const auto& rel : snapshot->relationships) others.push_back(rel.other);
    std::sort(others.begin(), others.end());
    ASSERT_EQ(*neighbors, others) << "vertex " << v;
  }
}

// Restore of the store's own dumps rebuilds it: the same dumps, links
// and adjacency. Each node's ExtractNode relationships equal the
// original's element for element, come in strictly ascending other-end
// order, and are exactly the links the dump's linkage bits name for it.
void ExpectRestoreRebuilds(const GraphStore& store) {
  const std::vector<GraphStore::NodeDump> nodes = store.DumpNodes();
  const std::vector<GraphStore::RelationshipDump> rels =
      store.DumpRelationships();
  GraphStore restored(store.partition_id());
  ASSERT_OK(restored.Restore(nodes, rels));
  ASSERT_TRUE(restored.CheckLinks());
  ASSERT_TRUE(restored.DumpNodes() == nodes);
  ASSERT_TRUE(restored.DumpRelationships() == rels);

  std::map<VertexId, std::set<VertexId>> dumped_links;
  for (const auto& r : rels) {
    if (r.src_linked) dumped_links[r.src].insert(r.dst);
    if (r.dst_linked) dumped_links[r.dst].insert(r.src);
  }
  for (const auto& n : nodes) {
    const Result<std::vector<VertexId>> want = store.Neighbors(n.id);
    const Result<std::vector<VertexId>> got = restored.Neighbors(n.id);
    ASSERT_EQ(got.status().ToString(), want.status().ToString());
    if (want.ok()) ASSERT_EQ(*got, *want) << "vertex " << n.id;

    const Result<NodeSnapshot> original = store.ExtractNode(n.id);
    const Result<NodeSnapshot> rebuilt = restored.ExtractNode(n.id);
    ASSERT_OK(original);
    ASSERT_OK(rebuilt);
    ASSERT_EQ(rebuilt->relationships.size(), original->relationships.size())
        << "vertex " << n.id;
    std::vector<VertexId> order;
    for (std::size_t i = 0; i < rebuilt->relationships.size(); ++i) {
      const NodeSnapshot::Relationship& rel = rebuilt->relationships[i];
      const NodeSnapshot::Relationship& was = original->relationships[i];
      order.push_back(rel.other);
      ASSERT_EQ(rel.other, was.other) << "vertex " << n.id << " index " << i;
      ASSERT_EQ(rel.type, was.type) << n.id << "->" << rel.other;
      ASSERT_EQ(rel.properties_included, was.properties_included)
          << n.id << "->" << rel.other;
      ASSERT_EQ(rel.properties, was.properties) << n.id << "->" << rel.other;
    }
    ASSERT_EQ(std::adjacent_find(order.begin(), order.end(),
                                 std::greater_equal<VertexId>()),
              order.end())
        << "vertex " << n.id << ": relationships not strictly ascending";
    const std::set<VertexId>& linked = dumped_links[n.id];
    ASSERT_EQ(order, std::vector<VertexId>(linked.begin(), linked.end()))
        << "vertex " << n.id;
  }
}

class GraphStoreFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphStoreFuzzTest, MatchesReferenceModel) {
  GraphStore store(0);
  Reference ref;
  Rng rng(GetParam());
  // Mostly, the edge ops answer a half record: they pick a b that holds
  // a half record toward a (left by a's removal and re-creation, or
  // added while b saw a as remote). A full AddEdge then upgrades b's
  // record, and a half AddEdge makes a second half record for the pair.
  auto pick_other = [&](VertexId a) {
    std::vector<VertexId> halves_toward_a;
    for (const auto& [w, adjacent] : ref.adjacency) {
      if (w != a && adjacent.count(a) &&
          !ref.full.count(Reference::Key(a, w))) {
        halves_toward_a.push_back(w);
      }
    }
    if (halves_toward_a.empty() || rng.Uniform(4) == 0) {
      return rng.Uniform(kLocalSpace);
    }
    return halves_toward_a[rng.Uniform(halves_toward_a.size())];
  };

  for (int step = 0; step < 3000; ++step) {
    switch (rng.Uniform(9)) {
      case 0: {  // create node
        const VertexId v = rng.Uniform(kLocalSpace);
        const double w = 1.0 + static_cast<double>(rng.Uniform(5));
        const Status st = store.CreateNode(v, w);
        if (ref.nodes.count(v)) {
          ASSERT_TRUE(st.IsAlreadyExists());
        } else {
          ASSERT_OK(st);
          ref.nodes[v] = w;
        }
        break;
      }
      case 1: {  // add local-local edge
        const VertexId a = rng.Uniform(kLocalSpace);
        const VertexId b = pick_other(a);
        auto st = store.AddEdge(a, b, 0, /*other_is_local=*/true);
        const bool can = a != b && ref.Available(a) && ref.Available(b) &&
                         !ref.adjacency[a].count(b);
        if (can) {
          // New, or b's half record toward a upgraded to full.
          ASSERT_OK(st);
          ref.adjacency[a].insert(b);
          ref.adjacency[b].insert(a);
          ref.full.insert(Reference::Key(a, b));
        } else {
          ASSERT_FALSE(st.ok());
        }
        break;
      }
      case 2: {  // add a half edge, mostly to a remote id
        const VertexId a = rng.Uniform(kLocalSpace);
        // Or a local b that a sees as remote.
        const VertexId b = rng.Uniform(2) == 0
                               ? pick_other(a)
                               : kRemoteBase + rng.Uniform(kRemoteSpace);
        auto st = store.AddEdge(a, b, 0, /*other_is_local=*/false);
        const bool can =
            a != b && ref.Available(a) && !ref.adjacency[a].count(b);
        if (can) {
          ASSERT_OK(st);
          ref.adjacency[a].insert(b);  // one-sided: a half record
        } else {
          ASSERT_FALSE(st.ok());
        }
        break;
      }
      case 3: {  // remove edge
        const VertexId a = rng.Uniform(kLocalSpace);
        if (!ref.nodes.count(a) || ref.adjacency[a].empty()) {
          ASSERT_FALSE(store.RemoveEdge(a, 0).ok());
          break;
        }
        auto it = ref.adjacency[a].begin();
        std::advance(it, rng.Uniform(ref.adjacency[a].size()));
        const VertexId b = *it;
        ASSERT_OK(store.RemoveEdge(a, b));
        ref.adjacency[a].erase(b);
        if (ref.full.erase(Reference::Key(a, b)) != 0) {
          ref.adjacency[b].erase(a);
        }
        ref.edge_prop.erase(Reference::Key(a, b));
        break;
      }
      case 4: {  // remove node
        const VertexId v = rng.Uniform(kLocalSpace);
        const Status st = store.RemoveNode(v);
        if (!ref.nodes.count(v)) {
          ASSERT_TRUE(st.IsNotFound());
          break;
        }
        ASSERT_OK(st);
        // A full record degrades to the neighbour's half record (the
        // neighbour's set still holds v, which it now sees as remote);
        // v's half records disappear.
        ref.nodes.erase(v);
        ref.unavailable.erase(v);
        for (VertexId nbr : ref.adjacency[v]) {
          ref.full.erase(Reference::Key(v, nbr));
        }
        ref.adjacency.erase(v);
        if (rng.Uniform(2) == 0) {  // re-created: its neighbours' halves stay
          ASSERT_OK(store.CreateNode(v, 1.0));
          ref.nodes[v] = 1.0;
        }
        break;
      }
      case 5: {  // set edge property on a local-local edge
        const VertexId a = rng.Uniform(kLocalSpace);
        if (!ref.nodes.count(a) || ref.adjacency[a].empty()) break;
        auto it = ref.adjacency[a].begin();
        std::advance(it, rng.Uniform(ref.adjacency[a].size()));
        const VertexId b = *it;
        const std::string value = "v" + std::to_string(step);
        const Status st = store.SetEdgeProperty(a, b, 1, value);
        if (st.ok()) {
          ref.edge_prop[Reference::Key(a, b)] = value;
        } else {
          // Ghost copies refuse properties.
          ASSERT_TRUE(st.IsInvalidArgument()) << st.ToString();
        }
        break;
      }
      case 6: {  // weight bump
        const VertexId v = rng.Uniform(kLocalSpace);
        const Status st = store.AddNodeWeight(v, 1.0);
        if (ref.nodes.count(v)) {
          ASSERT_OK(st);
          ref.nodes[v] += 1.0;
        } else {
          ASSERT_TRUE(st.IsNotFound());
        }
        break;
      }
      case 7: {  // node property: property chains of up to three records
        const VertexId v = rng.Uniform(kLocalSpace);
        const auto key = static_cast<std::uint32_t>(rng.Uniform(3));
        const Status st =
            store.SetNodeProperty(v, key, "n" + std::to_string(step));
        if (ref.nodes.count(v)) {
          ASSERT_OK(st);
        } else {
          ASSERT_TRUE(st.IsNotFound());
        }
        break;
      }
      case 8: {  // availability (the migration remove step's mark)
        const VertexId v = rng.Uniform(kLocalSpace);
        // Marks a quarter of the time, so most nodes stay writable.
        const bool mark =
            ref.unavailable.count(v) == 0 && rng.Uniform(4) == 0;
        const Status st = store.SetNodeState(
            v, mark ? NodeState::kUnavailable : NodeState::kAvailable);
        if (!ref.nodes.count(v)) {
          ASSERT_TRUE(st.IsNotFound());
          break;
        }
        ASSERT_OK(st);
        if (mark) {
          ref.unavailable.insert(v);
        } else {
          ref.unavailable.erase(v);
        }
        break;
      }
    }

    ASSERT_NO_FATAL_FAILURE(ExpectNeighborsMatchLinks(store))
        << "step " << step;
    ASSERT_NO_FATAL_FAILURE(ExpectRestoreRebuilds(store)) << "step " << step;
    if (step % 250 == 0) {
      ASSERT_TRUE(store.CheckLinks()) << "step " << step;
      ASSERT_NO_FATAL_FAILURE(ExpectLookupsMatch(store, ref))
          << "step " << step;
    }
  }

  // Final full cross-check.
  ASSERT_TRUE(store.CheckLinks());
  ASSERT_NO_FATAL_FAILURE(ExpectLookupsMatch(store, ref));
  ASSERT_EQ(store.NumNodes(), ref.nodes.size());
  for (const auto& [v, weight] : ref.nodes) {
    ASSERT_TRUE(store.NodeExists(v));
    EXPECT_DOUBLE_EQ(*store.NodeWeight(v), weight);
    if (ref.unavailable.count(v)) {
      EXPECT_TRUE(store.Neighbors(v).status().IsUnavailable());
      continue;
    }
    auto neighbors = store.Neighbors(v);
    ASSERT_OK(neighbors);
    std::vector<VertexId> got = *neighbors;
    std::sort(got.begin(), got.end());
    std::vector<VertexId> want(ref.adjacency[v].begin(),
                               ref.adjacency[v].end());
    EXPECT_EQ(got, want) << "vertex " << v;
  }
  for (const auto& [key, value] : ref.edge_prop) {
    const auto [a, b] = key;
    // Property lives on the non-ghost copy; read from the node that still
    // exists locally.
    const VertexId reader = ref.nodes.count(a) ? a : b;
    const VertexId other = reader == a ? b : a;
    if (!ref.nodes.count(reader)) continue;
    auto got = store.GetEdgeProperty(reader, other, 1);
    if (got.ok()) EXPECT_EQ(*got, value);
  }

  // The snapshot rebuilds the records' linkage bits and the link index.
  const std::string path = ::testing::TempDir() + "/hermes_fuzz_" +
                           std::to_string(GetParam()) + ".snap";
  ASSERT_OK(DurableGraphStore::WriteSnapshot(store, path));
  GraphStore restored(0);
  ASSERT_OK(DurableGraphStore::LoadSnapshot(path, &restored));
  std::remove(path.c_str());
  ASSERT_TRUE(restored.CheckLinks());
  EXPECT_EQ(test::DiffStates(test::Canonicalize(restored),
                             test::Canonicalize(store)),
            "");
  ASSERT_NO_FATAL_FAILURE(ExpectLookupsMatch(restored, ref));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphStoreFuzzTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u,
                                           88u));

// Focused fuzz over the dynamic property store and id recycling: values
// whose lengths sweep across the 24-byte dynamic-block payload boundary
// (empty, sub-block, exact block, multi-block), overwrites that grow and
// shrink chains, and delete/re-create cycles that recycle node ids — a
// recycled id must never resurrect the previous incarnation's properties.
class PropertyRecycleFuzzTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertyRecycleFuzzTest, DynamicPropertiesAndIdRecyclingMatchModel) {
  GraphStore store(0);
  Rng rng(GetParam());
  constexpr VertexId kSpace = 24;
  constexpr std::uint32_t kKeys = 4;
  std::map<VertexId, double> weights;
  std::map<VertexId, std::map<std::uint32_t, std::string>> props;

  for (int step = 0; step < 4000; ++step) {
    const VertexId v = rng.Uniform(kSpace);
    switch (rng.Uniform(6)) {
      case 0: {  // create (fresh or recycled id)
        const Status st = store.CreateNode(v, 1.0);
        if (weights.count(v)) {
          ASSERT_TRUE(st.IsAlreadyExists());
        } else {
          ASSERT_OK(st);
          weights[v] = 1.0;
        }
        break;
      }
      case 1: {  // remove: the property chain dies with the node
        const Status st = store.RemoveNode(v);
        if (!weights.count(v)) {
          ASSERT_TRUE(st.IsNotFound());
        } else {
          ASSERT_OK(st);
          weights.erase(v);
          props.erase(v);
        }
        break;
      }
      case 2:
      case 3: {  // set or overwrite a property
        const auto key = static_cast<std::uint32_t>(rng.Uniform(kKeys));
        const std::string value(rng.Uniform(61),
                                static_cast<char>('a' + (step % 26)));
        const Status st = store.SetNodeProperty(v, key, value);
        if (weights.count(v)) {
          ASSERT_OK(st);
          props[v][key] = value;
        } else {
          ASSERT_TRUE(st.IsNotFound());
        }
        break;
      }
      case 4: {  // point read
        const auto key = static_cast<std::uint32_t>(rng.Uniform(kKeys));
        auto got = store.GetNodeProperty(v, key);
        const auto it = props.find(v);
        if (it != props.end() && it->second.count(key)) {
          ASSERT_OK(got);
          EXPECT_EQ(*got, it->second.at(key)) << "node " << v;
        } else {
          ASSERT_FALSE(got.ok());
        }
        break;
      }
      case 5: {  // recycle storm: remove + immediate re-create
        if (weights.count(v)) {
          ASSERT_OK(store.RemoveNode(v));
          weights.erase(v);
          props.erase(v);
        }
        ASSERT_OK(store.CreateNode(v, 2.0));
        weights[v] = 2.0;
        for (std::uint32_t key = 0; key < kKeys; ++key) {
          EXPECT_TRUE(store.GetNodeProperty(v, key).status().IsNotFound())
              << "recycled node " << v << " kept property " << key;
        }
        break;
      }
    }
    if (step % 500 == 0) {
      ASSERT_TRUE(store.CheckLinks()) << "step " << step;
    }
  }

  // Full cross-check, including the bulk-export path the snapshot writer
  // relies on.
  ASSERT_TRUE(store.CheckLinks());
  const auto dump = store.DumpNodes();
  ASSERT_EQ(dump.size(), weights.size());
  for (const auto& nd : dump) {
    ASSERT_TRUE(weights.count(nd.id)) << "node " << nd.id;
    EXPECT_DOUBLE_EQ(nd.weight, weights.at(nd.id));
    std::map<std::uint32_t, std::string> got(nd.properties.begin(),
                                             nd.properties.end());
    const auto it = props.find(nd.id);
    const std::map<std::uint32_t, std::string> want =
        it == props.end() ? std::map<std::uint32_t, std::string>{}
                          : it->second;
    EXPECT_EQ(got, want) << "node " << nd.id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyRecycleFuzzTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

}  // namespace
}  // namespace hermes
