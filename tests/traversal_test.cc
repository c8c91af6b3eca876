#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "cluster/hermes_cluster.h"
#include "graphdb/graph_store.h"
#include "graphdb/traversal.h"
#include "partition/hash_partitioner.h"

namespace hermes {
namespace {

/// Star: 0 at the center of 1..4, plus a tail 4-5-6; typed edges.
GraphStore MakeStore() {
  GraphStore store(0);
  for (VertexId v = 0; v <= 6; ++v) EXPECT_OK(store.CreateNode(v));
  EXPECT_OK(store.AddEdge(0, 1, /*type=*/0, true));
  EXPECT_OK(store.AddEdge(0, 2, 0, true));
  EXPECT_OK(store.AddEdge(0, 3, 1, true));  // type 1: "follows"
  EXPECT_OK(store.AddEdge(0, 4, 0, true));
  EXPECT_OK(store.AddEdge(4, 5, 0, true));
  EXPECT_OK(store.AddEdge(5, 6, 0, true));
  return store;
}

NeighborProvider Provider(const GraphStore& store) {
  return [&store](VertexId v, std::optional<std::uint32_t> type) {
    return store.Neighbors(v, type);
  };
}

std::vector<VertexId> HitNodes(const TraversalResult& r) {
  std::vector<VertexId> out;
  for (const auto& hit : r.hits) out.push_back(hit.node);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(TraversalTest, OneHopReturnsNeighborsAndStart) {
  GraphStore store = MakeStore();
  TraversalDescription d;
  d.max_depth = 1;
  auto r = Traverse(0, d, Provider(store));
  ASSERT_OK(r);
  EXPECT_EQ(HitNodes(*r), (std::vector<VertexId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(r->nodes_processed, 5u);
}

TEST(TraversalTest, DepthLimitsExpansion) {
  GraphStore store = MakeStore();
  TraversalDescription d;
  d.max_depth = 2;
  auto r = Traverse(0, d, Provider(store));
  ASSERT_OK(r);
  EXPECT_EQ(HitNodes(*r), (std::vector<VertexId>{0, 1, 2, 3, 4, 5}));

  d.max_depth = 3;
  r = Traverse(0, d, Provider(store));
  ASSERT_OK(r);
  EXPECT_EQ(HitNodes(*r), (std::vector<VertexId>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(TraversalTest, DepthsAreBfsDistances) {
  GraphStore store = MakeStore();
  TraversalDescription d;
  d.max_depth = 3;
  auto r = Traverse(0, d, Provider(store));
  ASSERT_OK(r);
  for (const TraversalHit& hit : r->hits) {
    if (hit.node == 0) EXPECT_EQ(hit.depth, 0);
    if (hit.node == 4) EXPECT_EQ(hit.depth, 1);
    if (hit.node == 5) EXPECT_EQ(hit.depth, 2);
    if (hit.node == 6) EXPECT_EQ(hit.depth, 3);
  }
}

TEST(TraversalTest, RelationshipTypeFilter) {
  GraphStore store = MakeStore();
  TraversalDescription d;
  d.max_depth = 1;
  d.relationship_type = 1;
  auto r = Traverse(0, d, Provider(store));
  ASSERT_OK(r);
  EXPECT_EQ(HitNodes(*r), (std::vector<VertexId>{0, 3}));
}

TEST(TraversalTest, IncludeEvaluatorFiltersResults) {
  GraphStore store = MakeStore();
  TraversalDescription d;
  d.max_depth = 2;
  d.include = [](VertexId v, int depth) { return depth == 2 && v != 0; };
  auto r = Traverse(0, d, Provider(store));
  ASSERT_OK(r);
  EXPECT_EQ(HitNodes(*r), (std::vector<VertexId>{5}));
}

TEST(TraversalTest, PruneStopsExpansion) {
  GraphStore store = MakeStore();
  TraversalDescription d;
  d.max_depth = 3;
  d.prune = [](VertexId v, int) { return v == 4; };  // do not go past 4
  auto r = Traverse(0, d, Provider(store));
  ASSERT_OK(r);
  EXPECT_EQ(HitNodes(*r), (std::vector<VertexId>{0, 1, 2, 3, 4}));
}

TEST(TraversalTest, MaxResultsShortCircuits) {
  GraphStore store = MakeStore();
  TraversalDescription d;
  d.max_depth = 3;
  d.max_results = 3;
  auto r = Traverse(0, d, Provider(store));
  ASSERT_OK(r);
  EXPECT_EQ(r->hits.size(), 3u);
}

TEST(TraversalTest, UniquenessNoneReportsRevisits) {
  // Triangle 0-1-2: at depth 2 under kNone, vertices are reached again.
  GraphStore store(0);
  for (VertexId v = 0; v < 3; ++v) ASSERT_OK(store.CreateNode(v));
  ASSERT_OK(store.AddEdge(0, 1, 0, true));
  ASSERT_OK(store.AddEdge(1, 2, 0, true));
  ASSERT_OK(store.AddEdge(0, 2, 0, true));

  TraversalDescription d;
  d.max_depth = 2;
  d.uniqueness = Uniqueness::kNone;
  auto r = Traverse(0, d, Provider(store));
  ASSERT_OK(r);
  // Hits: 0 (start), 1, 2 (depth 1), then each of 1 and 2 re-reaches the
  // other two: response > unique (the Section 5.3.2 effect).
  EXPECT_GT(r->hits.size(), 3u);
  EXPECT_GT(r->nodes_processed, 3u);

  TraversalDescription unique = d;
  unique.uniqueness = Uniqueness::kNodeGlobal;
  auto ru = Traverse(0, unique, Provider(store));
  ASSERT_OK(ru);
  EXPECT_EQ(ru->hits.size(), 3u);
  EXPECT_LT(ru->hits.size(), r->hits.size());
}

TEST(TraversalTest, MissingStartFails) {
  GraphStore store = MakeStore();
  TraversalDescription d;
  auto r = Traverse(99, d, Provider(store));
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(TraversalTest, UnavailableInteriorNodeSkipped) {
  GraphStore store = MakeStore();
  ASSERT_OK(store.SetNodeState(4, NodeState::kUnavailable));
  TraversalDescription d;
  d.max_depth = 2;
  auto r = Traverse(0, d, Provider(store));
  ASSERT_OK(r);
  // 4 is still reported (0 links to it locally) but not expanded,
  // so 5 is unreachable — queries act as if the record is absent.
  EXPECT_EQ(HitNodes(*r), (std::vector<VertexId>{0, 1, 2, 3, 4}));
}

TEST(TraversalTest, ClusterProviderCrossesPartitions) {
  Graph g(6);
  for (VertexId v = 0; v + 1 < 6; ++v) ASSERT_OK(g.AddEdge(v, v + 1));
  PartitionAssignment asg(6, 3);
  for (VertexId v = 0; v < 6; ++v) {
    asg.Assign(v, static_cast<PartitionId>(v / 2));
  }
  HermesCluster cluster(std::move(g), asg);
  TraversalDescription d;
  d.max_depth = 5;
  auto r = Traverse(0, d, cluster.MakeNeighborProvider());
  ASSERT_OK(r);
  EXPECT_EQ(HitNodes(*r), (std::vector<VertexId>{0, 1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace hermes
