#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "graphdb/durable_store.h"
#include "graphdb/graph_store.h"

namespace hermes {
namespace {

std::vector<VertexId> SortedNeighbors(const GraphStore& store, VertexId v) {
  auto n = store.Neighbors(v);
  EXPECT_OK(n);
  std::vector<VertexId> out = n.ok() ? *n : std::vector<VertexId>{};
  std::sort(out.begin(), out.end());
  return out;
}

TEST(GraphStoreTest, CreateAndQueryNodes) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(1, 2.5));
  EXPECT_TRUE(store.HasNode(1));
  EXPECT_FALSE(store.HasNode(2));
  EXPECT_DOUBLE_EQ(*store.NodeWeight(1), 2.5);
  EXPECT_EQ(store.NumNodes(), 1u);
}

TEST(GraphStoreTest, DuplicateNodeRejected) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(1));
  EXPECT_TRUE(store.CreateNode(1).IsAlreadyExists());
}

TEST(GraphStoreTest, WeightAccumulates) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(1, 1.0));
  ASSERT_OK(store.AddNodeWeight(1, 4.0));
  EXPECT_DOUBLE_EQ(*store.NodeWeight(1), 5.0);
  EXPECT_TRUE(store.AddNodeWeight(9, 1.0).IsNotFound());
}

TEST(GraphStoreTest, LocalEdgeVisibleFromBothChains) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(1));
  ASSERT_OK(store.CreateNode(2));
  auto rel = store.AddEdge(1, 2, 0, /*other_is_local=*/true);
  ASSERT_OK(rel);
  EXPECT_EQ(SortedNeighbors(store, 1), std::vector<VertexId>{2});
  EXPECT_EQ(SortedNeighbors(store, 2), std::vector<VertexId>{1});
  EXPECT_EQ(store.NumRelationships(), 1u);  // single shared record
  EXPECT_FALSE(*store.EdgeIsGhost(1, 2));
  EXPECT_TRUE(store.CheckLinks());
}

TEST(GraphStoreTest, HalfEdgeGhostRule) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(5));
  // Remote endpoint 9 > 5: the real copy follows the lower id, so the
  // local copy (with endpoint 5) is real.
  ASSERT_OK(store.AddEdge(5, 9, 0, false));
  EXPECT_FALSE(*store.EdgeIsGhost(5, 9));

  ASSERT_OK(store.CreateNode(20));
  // Remote endpoint 3 < 20: local copy is the ghost.
  ASSERT_OK(store.AddEdge(20, 3, 0, false));
  EXPECT_TRUE(*store.EdgeIsGhost(20, 3));
  EXPECT_EQ(store.NumGhostRelationships(), 1u);
}

TEST(GraphStoreTest, GhostKeepsAdjacencyLocal) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(1));
  ASSERT_OK(store.AddEdge(1, 100, 0, false));
  ASSERT_OK(store.AddEdge(1, 200, 0, false));
  EXPECT_EQ(SortedNeighbors(store, 1), (std::vector<VertexId>{100, 200}));
  EXPECT_EQ(*store.DegreeOf(1), 2u);
}

TEST(GraphStoreTest, DuplicateEdgeRejected) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(1));
  ASSERT_OK(store.CreateNode(2));
  ASSERT_OK(store.AddEdge(1, 2, 0, true));
  EXPECT_TRUE(store.AddEdge(1, 2, 0, true).status().IsAlreadyExists());
  EXPECT_TRUE(store.AddEdge(2, 1, 0, true).status().IsAlreadyExists());
}

TEST(GraphStoreTest, SelfLoopRejected) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(1));
  EXPECT_TRUE(store.AddEdge(1, 1, 0, true).status().IsInvalidArgument());
}

TEST(GraphStoreTest, RemoveEdgeFixesChains) {
  GraphStore store(0);
  for (VertexId v = 1; v <= 4; ++v) ASSERT_OK(store.CreateNode(v));
  ASSERT_OK(store.AddEdge(1, 2, 0, true));
  ASSERT_OK(store.AddEdge(1, 3, 0, true));
  ASSERT_OK(store.AddEdge(1, 4, 0, true));
  ASSERT_OK(store.RemoveEdge(1, 3));
  EXPECT_EQ(SortedNeighbors(store, 1), (std::vector<VertexId>{2, 4}));
  EXPECT_TRUE(SortedNeighbors(store, 3).empty());
  EXPECT_TRUE(store.CheckLinks());
  EXPECT_TRUE(store.RemoveEdge(1, 3).IsNotFound());
}

TEST(GraphStoreTest, ChainSurvivesMiddleAndHeadRemoval) {
  GraphStore store(0);
  for (VertexId v = 0; v < 6; ++v) ASSERT_OK(store.CreateNode(v));
  for (VertexId v = 1; v < 6; ++v) {
    ASSERT_OK(store.AddEdge(0, v, 0, true));
  }
  // Remove the newest (5), a middle (3) and the oldest (1) relationship.
  ASSERT_OK(store.RemoveEdge(0, 5));
  ASSERT_OK(store.RemoveEdge(0, 3));
  ASSERT_OK(store.RemoveEdge(0, 1));
  EXPECT_EQ(SortedNeighbors(store, 0), (std::vector<VertexId>{2, 4}));
  EXPECT_TRUE(store.CheckLinks());
}

TEST(GraphStoreTest, NodeProperties) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(1));
  ASSERT_OK(store.SetNodeProperty(1, 0, "alice"));
  ASSERT_OK(store.SetNodeProperty(1, 1, "springfield"));
  EXPECT_EQ(*store.GetNodeProperty(1, 0), "alice");
  EXPECT_EQ(*store.GetNodeProperty(1, 1), "springfield");
  EXPECT_TRUE(store.GetNodeProperty(1, 2).status().IsNotFound());
  // Overwrite.
  ASSERT_OK(store.SetNodeProperty(1, 0, "bob"));
  EXPECT_EQ(*store.GetNodeProperty(1, 0), "bob");
}

TEST(GraphStoreTest, LongPropertyValueUsesDynamicStore) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(1));
  const std::string big(500, 'p');
  ASSERT_OK(store.SetNodeProperty(1, 7, big));
  EXPECT_EQ(*store.GetNodeProperty(1, 7), big);
}

TEST(GraphStoreTest, EdgePropertiesOnRealCopyOnly) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(1));
  ASSERT_OK(store.CreateNode(2));
  ASSERT_OK(store.AddEdge(1, 2, 0, true));
  ASSERT_OK(store.SetEdgeProperty(1, 2, 0, "since-2009"));
  EXPECT_EQ(*store.GetEdgeProperty(2, 1, 0), "since-2009");

  // Ghost copy refuses writes.
  ASSERT_OK(store.CreateNode(20));
  ASSERT_OK(store.AddEdge(20, 3, 0, false));  // ghost (3 < 20)
  EXPECT_TRUE(store.SetEdgeProperty(20, 3, 0, "x").IsInvalidArgument());
  EXPECT_TRUE(store.GetEdgeProperty(20, 3, 0).status().IsUnavailable());
}

TEST(GraphStoreTest, UnavailableNodeHiddenFromQueries) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(1));
  ASSERT_OK(store.CreateNode(2));
  ASSERT_OK(store.AddEdge(1, 2, 0, true));
  ASSERT_OK(store.SetNodeState(1, NodeState::kUnavailable));
  EXPECT_FALSE(store.HasNode(1));
  EXPECT_TRUE(store.NodeExists(1));
  EXPECT_TRUE(store.Neighbors(1).status().IsUnavailable());
  // Node 2 still sees the edge (structure stays valid until removal).
  EXPECT_EQ(SortedNeighbors(store, 2), std::vector<VertexId>{1});
}

TEST(GraphStoreTest, ExtractNodeCarriesEverything) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(1, 3.0));
  ASSERT_OK(store.CreateNode(2));
  ASSERT_OK(store.SetNodeProperty(1, 0, "alice"));
  ASSERT_OK(store.AddEdge(1, 2, 5, true));
  ASSERT_OK(store.SetEdgeProperty(1, 2, 1, "friend"));
  ASSERT_OK(store.AddEdge(1, 99, 0, false));  // real half (1 < 99)

  auto snap = store.ExtractNode(1);
  ASSERT_OK(snap);
  EXPECT_EQ(snap->id, 1u);
  EXPECT_DOUBLE_EQ(snap->weight, 3.0);
  ASSERT_EQ(snap->properties.size(), 1u);
  EXPECT_EQ(snap->properties[0].second, "alice");
  ASSERT_EQ(snap->relationships.size(), 2u);
  EXPECT_GT(snap->WireBytes(), 0u);
}

TEST(GraphStoreTest, MigrationExtractIngestAcrossStores) {
  GraphStore a(0);
  GraphStore b(1);
  ASSERT_OK(a.CreateNode(1));
  ASSERT_OK(a.CreateNode(2));
  ASSERT_OK(a.AddEdge(1, 2, 0, true));
  ASSERT_OK(a.SetEdgeProperty(1, 2, 0, "props"));

  // Move node 2 from store a to store b.
  auto snap = a.ExtractNode(2);
  ASSERT_OK(snap);
  ASSERT_OK(b.IngestNodeWith(*snap, [](VertexId) { return false; }));
  ASSERT_OK(a.SetNodeState(2, NodeState::kUnavailable));
  ASSERT_OK(a.RemoveNode(2));

  // Store a keeps a half record for node 1 (real: 1 < 2).
  EXPECT_EQ(SortedNeighbors(a, 1), std::vector<VertexId>{2});
  EXPECT_FALSE(*a.EdgeIsGhost(1, 2));
  EXPECT_EQ(*a.GetEdgeProperty(1, 2, 0), "props");
  // Store b holds the ghost half for node 2.
  EXPECT_EQ(SortedNeighbors(b, 2), std::vector<VertexId>{1});
  EXPECT_TRUE(*b.EdgeIsGhost(2, 1));
  EXPECT_TRUE(a.CheckLinks());
  EXPECT_TRUE(b.CheckLinks());
}

TEST(GraphStoreTest, IngestMergesWithExistingHalfRecord) {
  GraphStore b(1);
  ASSERT_OK(b.CreateNode(1));
  ASSERT_OK(b.AddEdge(1, 2, 0, false));  // 2 remote; real copy (1<2)
  ASSERT_OK(b.SetEdgeProperty(1, 2, 0, "kept"));

  // Node 2 arrives: its snapshot says the edge's properties live with 1.
  NodeSnapshot snap;
  snap.id = 2;
  snap.weight = 1.0;
  NodeSnapshot::Relationship rel;
  rel.other = 1;
  rel.properties_included = false;  // node 2's old copy was the ghost
  snap.relationships.push_back(rel);
  ASSERT_OK(b.IngestNodeWith(snap, [](VertexId) { return true; }));

  // Single full record now serves both endpoints, properties preserved.
  EXPECT_EQ(b.NumRelationships(), 1u);
  EXPECT_FALSE(*b.EdgeIsGhost(1, 2));
  EXPECT_FALSE(*b.EdgeIsGhost(2, 1));
  EXPECT_EQ(*b.GetEdgeProperty(2, 1, 0), "kept");
  EXPECT_TRUE(b.CheckLinks());
}

TEST(GraphStoreTest, RemoveNodeDeletesHalfRecords) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(1));
  ASSERT_OK(store.AddEdge(1, 50, 0, false));
  ASSERT_OK(store.AddEdge(1, 60, 0, false));
  ASSERT_OK(store.RemoveNode(1));
  EXPECT_EQ(store.NumNodes(), 0u);
  EXPECT_EQ(store.NumRelationships(), 0u);
}

TEST(GraphStoreTest, RemoveNodeDegradesSharedRecordsToGhostRule) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(1));
  ASSERT_OK(store.CreateNode(2));
  ASSERT_OK(store.AddEdge(1, 2, 0, true));
  ASSERT_OK(store.SetEdgeProperty(1, 2, 0, "payload"));

  // Remove node 2 (migrating away); node 1 keeps the edge. Since 1 < 2 the
  // surviving copy is real and keeps properties.
  ASSERT_OK(store.RemoveNode(2));
  EXPECT_EQ(SortedNeighbors(store, 1), std::vector<VertexId>{2});
  EXPECT_FALSE(*store.EdgeIsGhost(1, 2));
  EXPECT_EQ(*store.GetEdgeProperty(1, 2, 0), "payload");

  // Symmetric case: removing the lower endpoint drops the properties.
  GraphStore store2(0);
  ASSERT_OK(store2.CreateNode(1));
  ASSERT_OK(store2.CreateNode(2));
  ASSERT_OK(store2.AddEdge(1, 2, 0, true));
  ASSERT_OK(store2.SetEdgeProperty(1, 2, 0, "payload"));
  ASSERT_OK(store2.RemoveNode(1));
  EXPECT_TRUE(*store2.EdgeIsGhost(2, 1));
  EXPECT_TRUE(store2.GetEdgeProperty(2, 1, 0).status().IsUnavailable());
}

// (src, dst, ghost, src_linked, dst_linked) per record, sorted.
std::vector<std::tuple<VertexId, VertexId, bool, bool, bool>> Linkage(
    const GraphStore& store) {
  std::vector<std::tuple<VertexId, VertexId, bool, bool, bool>> out;
  for (const auto& r : store.DumpRelationships()) {
    out.emplace_back(r.src, r.dst, r.ghost, r.src_linked, r.dst_linked);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(GraphStoreTest, RecreatedNodeKeepsTwoRecordsForOnePair) {
  // x is removed while its full record with y degrades to y's half. The
  // re-created x adds the edge with y as remote, so the pair {x, y} has
  // two records, each linked on exactly one side.
  constexpr VertexId x = 1;
  constexpr VertexId y = 2;
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(x));
  ASSERT_OK(store.CreateNode(y));
  ASSERT_OK(store.AddEdge(x, y, 0, /*other_is_local=*/true));
  ASSERT_OK(store.RemoveNode(x));
  ASSERT_OK(store.CreateNode(x));
  ASSERT_OK(store.AddEdge(x, y, 0, /*other_is_local=*/false));

  EXPECT_TRUE(store.CheckLinks());
  ASSERT_OK(store.FindEdge(x, y));
  ASSERT_OK(store.FindEdge(y, x));
  EXPECT_NE(*store.FindEdge(x, y), *store.FindEdge(y, x));
  EXPECT_EQ(SortedNeighbors(store, x), std::vector<VertexId>{y});
  EXPECT_EQ(SortedNeighbors(store, y), std::vector<VertexId>{x});
  // y's half is the ghost (y > x); x's new half holds the properties.
  const std::vector<std::tuple<VertexId, VertexId, bool, bool, bool>> want = {
      {x, y, false, true, false}, {x, y, true, false, true}};
  EXPECT_EQ(Linkage(store), want);

  const std::string path = ::testing::TempDir() + "/hermes_recreated.snap";
  ASSERT_OK(DurableGraphStore::WriteSnapshot(store, path));
  GraphStore restored(0);
  ASSERT_OK(DurableGraphStore::LoadSnapshot(path, &restored));
  EXPECT_TRUE(restored.CheckLinks());
  EXPECT_EQ(Linkage(restored), want);
  EXPECT_EQ(SortedNeighbors(restored, x), std::vector<VertexId>{y});
  EXPECT_EQ(SortedNeighbors(restored, y), std::vector<VertexId>{x});
  std::remove(path.c_str());
}

// Restore fills only an empty store, takes nodes in id order as the
// dumps give them, and stores nothing when it rejects its input.
TEST(GraphStoreTest, RestoreRejectsBeforeStoringAnything) {
  using Node = GraphStore::NodeDump;
  using Rel = GraphStore::RelationshipDump;
  const std::vector<Node> nodes = {{1, 1.0, NodeState::kAvailable, {}},
                                   {2, 1.0, NodeState::kAvailable, {}}};
  const std::vector<Rel> full = {{1, 2, 0, false, true, true, {}}};

  GraphStore store(0);
  ASSERT_OK(store.Restore(nodes, full));
  EXPECT_TRUE(store.Restore(nodes, full).IsInvalidArgument());  // not empty

  auto rejected = [](const std::vector<Node>& n, const std::vector<Rel>& r) {
    GraphStore fresh(0);
    const Status st = fresh.Restore(n, r);
    EXPECT_EQ(fresh.NumNodes(), 0u);
    EXPECT_EQ(fresh.NumRelationships(), 0u);
    EXPECT_TRUE(fresh.CheckLinks());
    return st;
  };
  EXPECT_TRUE(rejected({nodes[1], nodes[0]}, {}).IsInvalidArgument());
  EXPECT_TRUE(rejected({nodes[0], nodes[0]}, {}).IsAlreadyExists());
  EXPECT_TRUE(rejected(nodes, {{1, 2, 0, false, false, false, {}}})
                  .IsInvalidArgument());
  EXPECT_TRUE(
      rejected(nodes, {{1, 1, 0, false, true, false, {}}}).IsInvalidArgument());
  EXPECT_TRUE(rejected({nodes[0]}, full).IsNotFound());
  EXPECT_TRUE(rejected(nodes, {{1, 2, 0, false, false, true, {}}, full[0]})
                  .IsAlreadyExists());
}

TEST(GraphStoreTest, NodeIdsListsLiveNodes) {
  GraphStore store(0);
  for (VertexId v : {5, 1, 9}) ASSERT_OK(store.CreateNode(v));
  ASSERT_OK(store.RemoveNode(1));
  EXPECT_EQ(store.NodeIds(), (std::vector<VertexId>{5, 9}));
}

TEST(GraphStoreTest, MemoryBytesGrowsWithContent) {
  GraphStore store(0);
  const std::size_t empty = store.MemoryBytes();
  ASSERT_OK(store.CreateNode(1));
  ASSERT_OK(store.SetNodeProperty(1, 0, std::string(200, 'z')));
  EXPECT_GT(store.MemoryBytes(), empty);
}

TEST(GraphStoreTest, EdgeToMissingLocalEndpointFails) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(1));
  EXPECT_TRUE(store.AddEdge(1, 2, 0, true).status().IsNotFound());
  EXPECT_TRUE(store.AddEdge(3, 1, 0, true).status().IsNotFound());
}

}  // namespace
}  // namespace hermes
