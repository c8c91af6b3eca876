#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "gen/social_graph.h"
#include "graph/graph.h"
#include "partition/assignment.h"
#include "partition/aux_data.h"
#include "partition/hash_partitioner.h"
#include "partition/lightweight.h"
#include "partition/metrics.h"

namespace hermes {
namespace {

/// The running example of Section 2.2 / Figure 1: two chained communities
/// a-b-c-d-e | f-g-h-i-j with one bridge e-f; weights 2,2,3,2,2 per side
/// (c and g weigh 3).
struct Figure1 {
  Graph g{10};
  PartitionAssignment asg{10, 2};

  Figure1() {
    const std::vector<std::pair<VertexId, VertexId>> edges{
        {0, 1}, {1, 2}, {2, 3}, {3, 4},  // a-b-c-d-e
        {4, 5},                          // the single edge-cut e-f
        {5, 6}, {6, 7}, {7, 8}, {8, 9},  // f-g-h-i-j
    };
    for (const auto& [u, v] : edges) EXPECT_OK(g.AddEdge(u, v));
    const std::vector<double> weights{2, 2, 3, 2, 2, 2, 3, 2, 2, 2};
    for (VertexId v = 0; v < 10; ++v) g.SetVertexWeight(v, weights[v]);
    for (VertexId v = 5; v < 10; ++v) asg.Assign(v, 1);
  }
};

TEST(LightweightFigure1, InitialStateIsBalancedWithOneCut) {
  Figure1 fig;
  EXPECT_EQ(EdgeCut(fig.g, fig.asg), 1u);
  EXPECT_DOUBLE_EQ(ImbalanceFactor(fig.g, fig.asg), 1.0);
}

TEST(LightweightFigure1, SkewTriggersMigrationOfVertexE) {
  Figure1 fig;
  // The popular weblogger b posts: its weight rises from 2 to 6 and
  // partition 1 becomes overloaded (15 vs average 13).
  fig.g.SetVertexWeight(1, 6.0);
  AuxiliaryData aux(fig.g, fig.asg);
  EXPECT_GT(aux.Imbalance(0), 1.1);

  RepartitionerOptions opt;
  opt.beta = 1.1;
  opt.k = 1;
  LightweightRepartitioner rp(opt);
  const RepartitionResult result = rp.Run(fig.g, &fig.asg, &aux);

  EXPECT_TRUE(result.converged);
  // Vertex e (id 4) is the only sensible move: split access pattern and
  // fewest neighbors in its own partition.
  EXPECT_EQ(fig.asg.PartitionOf(4), 1u);
  for (VertexId v : {0, 1, 2, 3}) EXPECT_EQ(fig.asg.PartitionOf(v), 0u);
  for (VertexId v : {5, 6, 7, 8, 9}) EXPECT_EQ(fig.asg.PartitionOf(v), 1u);
  // Loads are rebalanced to 13/13 and the edge-cut stays minimal.
  EXPECT_DOUBLE_EQ(ImbalanceFactor(fig.g, fig.asg), 1.0);
  EXPECT_EQ(EdgeCut(fig.g, fig.asg), 1u);
  ASSERT_EQ(result.net_moves.size(), 1u);
  EXPECT_EQ(result.net_moves[0].vertex, 4u);
  EXPECT_EQ(result.net_moves[0].from, 0u);
  EXPECT_EQ(result.net_moves[0].to, 1u);
}

TEST(LightweightFigure1, NoMigrationWhileBalanced) {
  Figure1 fig;
  AuxiliaryData aux(fig.g, fig.asg);
  RepartitionerOptions opt;
  opt.beta = 1.1;
  opt.k = 1;
  LightweightRepartitioner rp(opt);
  const RepartitionResult result = rp.Run(fig.g, &fig.asg, &aux);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.total_logical_moves, 0u);
  EXPECT_EQ(result.iterations, 1u);
}

/// Figure 2: two tightly cross-connected triads. Without the one-way
/// two-stage rule both triads would swap sides forever.
struct Figure2 {
  Graph g{12};
  PartitionAssignment asg{12, 2};

  Figure2() {
    // Triad {0,1,2} on partition 0 and triad {3,4,5} on partition 1 are
    // completely cross-connected (9 edges). Vertices 6-8 (partition 0)
    // and 9-11 (partition 1) are ballast cliques keeping loads equal.
    for (VertexId u = 0; u < 3; ++u) {
      for (VertexId v = 3; v < 6; ++v) EXPECT_OK(g.AddEdge(u, v));
    }
    EXPECT_OK(g.AddEdge(6, 7));
    EXPECT_OK(g.AddEdge(7, 8));
    EXPECT_OK(g.AddEdge(6, 8));
    EXPECT_OK(g.AddEdge(9, 10));
    EXPECT_OK(g.AddEdge(10, 11));
    EXPECT_OK(g.AddEdge(9, 11));
    for (VertexId v : {3, 4, 5, 9, 10, 11}) asg.Assign(v, 1);
  }
};

TEST(LightweightFigure2, TwoStagePreventsOscillation) {
  Figure2 fig;
  AuxiliaryData aux(fig.g, fig.asg);
  RepartitionerOptions opt;
  opt.beta = 1.9;  // generous so balance does not block the group move
  opt.k = 12;
  LightweightRepartitioner rp(opt);
  EXPECT_EQ(EdgeCut(fig.g, fig.asg), 9u);
  const RepartitionResult result = rp.Run(fig.g, &fig.asg, &aux);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(EdgeCut(fig.g, fig.asg), 0u);
  // The whole cross-connected cluster ends on one side.
  const PartitionId home = fig.asg.PartitionOf(0);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_EQ(fig.asg.PartitionOf(v), home);
  }
}

TEST(LightweightFigure2, SingleStageAblationOscillates) {
  Figure2 fig;
  AuxiliaryData aux(fig.g, fig.asg);
  RepartitionerOptions opt;
  opt.beta = 1.9;
  opt.k = 12;
  opt.two_stage = false;       // the ablation
  opt.max_iterations = 8;
  opt.quiescence_window = 0;   // observe the raw oscillation
  LightweightRepartitioner rp(opt);
  const RepartitionResult result = rp.Run(fig.g, &fig.asg, &aux);
  // Both triads keep swapping: no convergence, no edge-cut improvement.
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(EdgeCut(fig.g, fig.asg), 9u);
}

/// A three-partition instance in the spirit of Figure 3: 10 unit-weight
/// vertices, suboptimal initial grouping with 7 of 11 edges cut,
/// beta = 1.3 (partition weights must stay within [2.2, 4.4] around the
/// 10/3 average). The repartitioner must reach the natural grouping
/// {a,b,c} | {d,e,f} | {g,h,i,j} within a couple of iterations.
struct Figure3 {
  Graph g{10};
  PartitionAssignment asg{10, 3};

  // Communities: A = {0,1,2}, B = {3,4,5}, C = {6,7,8,9}, each internally
  // connected, joined by a single A-B bridge. The initial placement puts
  // one vertex of each community on the wrong partition.
  Figure3() {
    const std::vector<std::pair<VertexId, VertexId>> edges{
        {0, 1}, {1, 2}, {0, 2},          // community A triangle
        {3, 4}, {4, 5}, {3, 5},          // community B triangle
        {6, 7}, {7, 8}, {8, 9}, {6, 9},  // community C cycle
        {2, 3},                          // bridge A-B
    };
    for (const auto& [u, v] : edges) EXPECT_OK(g.AddEdge(u, v));
    // Misplacements: vertex 0 (A) on partition 1, vertex 5 (B) on
    // partition 2, vertex 6 (C) on partition 0.
    const std::vector<PartitionId> initial{1, 0, 0, 1, 1, 2, 0, 2, 2, 2};
    for (VertexId v = 0; v < 10; ++v) asg.Assign(v, initial[v]);
  }
};

TEST(LightweightFigure3, StartsSuboptimal) {
  Figure3 fig;
  EXPECT_EQ(EdgeCut(fig.g, fig.asg), 7u);
  EXPECT_LE(ImbalanceFactor(fig.g, fig.asg), 1.3);
}

TEST(LightweightFigure3, ReachesTheNaturalGrouping) {
  Figure3 fig;
  AuxiliaryData aux(fig.g, fig.asg);
  RepartitionerOptions opt;
  opt.beta = 1.3;
  opt.k = 1;
  const RepartitionResult result =
      LightweightRepartitioner(opt).Run(fig.g, &fig.asg, &aux);
  EXPECT_TRUE(result.converged);
  // Communities end up intact (each on a single partition)...
  EXPECT_EQ(fig.asg.PartitionOf(0), fig.asg.PartitionOf(1));
  EXPECT_EQ(fig.asg.PartitionOf(1), fig.asg.PartitionOf(2));
  EXPECT_EQ(fig.asg.PartitionOf(3), fig.asg.PartitionOf(4));
  EXPECT_EQ(fig.asg.PartitionOf(4), fig.asg.PartitionOf(5));
  EXPECT_EQ(fig.asg.PartitionOf(6), fig.asg.PartitionOf(7));
  EXPECT_EQ(fig.asg.PartitionOf(8), fig.asg.PartitionOf(9));
  EXPECT_EQ(fig.asg.PartitionOf(7), fig.asg.PartitionOf(8));
  // ...on three distinct partitions, with only the bridge cut and the
  // weights inside the validity band.
  EXPECT_EQ(EdgeCut(fig.g, fig.asg), 1u);
  EXPECT_LE(ImbalanceFactor(fig.g, fig.asg), 1.3 + 1e-9);
  // The paper's walkthrough converges after two productive iterations;
  // allow the convergence-detection tail on top.
  EXPECT_LE(result.iterations, 6u);
}

// --- GetTargetPartition rule coverage (Algorithm 1) -------------------------

class TargetRuleTest : public ::testing::Test {
 protected:
  // Two partitions of weight 6 and 6 over 12 unit-weight vertices; vertex
  // 0 sits on partition 0 with configurable neighbor counts.
  Graph g{12};
  PartitionAssignment asg{12, 2};

  void SetUp() override {
    for (VertexId v = 6; v < 12; ++v) asg.Assign(v, 1);
  }
};

TEST_F(TargetRuleTest, PositiveGainRequiredWhenBalanced) {
  // Neighbors: 1 local, 2 remote -> gain +1; migration allowed. beta must
  // leave headroom for the unit weight on the 6-weight target partition.
  ASSERT_OK(g.AddEdge(0, 1));
  ASSERT_OK(g.AddEdge(0, 6));
  ASSERT_OK(g.AddEdge(0, 7));
  AuxiliaryData aux(g, asg);
  RepartitionerOptions opt;
  opt.beta = 1.3;
  LightweightRepartitioner rp(opt);
  long gain = 0;
  EXPECT_EQ(rp.GetTargetPartition(aux, 0, 1.0, 0, /*stage=*/1, &gain), 1u);
  EXPECT_EQ(gain, 1);
}

TEST_F(TargetRuleTest, ZeroGainRejectedWhenBalanced) {
  ASSERT_OK(g.AddEdge(0, 1));
  ASSERT_OK(g.AddEdge(0, 6));
  AuxiliaryData aux(g, asg);
  LightweightRepartitioner rp{RepartitionerOptions{}};
  EXPECT_EQ(rp.GetTargetPartition(aux, 0, 1.0, 0, 1, nullptr),
            kInvalidPartition);
}

TEST_F(TargetRuleTest, DirectionRuleBlocksWrongStage) {
  ASSERT_OK(g.AddEdge(0, 6));
  ASSERT_OK(g.AddEdge(0, 7));
  AuxiliaryData aux(g, asg);
  RepartitionerOptions ropt;
  ropt.beta = 1.3;
  LightweightRepartitioner rp(ropt);
  // Stage 2 only allows moves to lower partition IDs; 0 -> 1 is blocked.
  EXPECT_EQ(rp.GetTargetPartition(aux, 0, 1.0, 0, 2, nullptr),
            kInvalidPartition);
  // And a partition-1 vertex may move down in stage 2.
  ASSERT_OK(g.AddEdge(6, 1));
  ASSERT_OK(g.AddEdge(6, 2));
  AuxiliaryData aux2(g, asg);
  EXPECT_EQ(rp.GetTargetPartition(aux2, 6, 1.0, 1, 2, nullptr), 0u);
  EXPECT_EQ(rp.GetTargetPartition(aux2, 6, 1.0, 1, 1, nullptr),
            kInvalidPartition);
}

TEST_F(TargetRuleTest, OverloadedTargetRejected) {
  // Make partition 1 heavy: moving there would exceed beta * avg.
  g.SetVertexWeight(6, 10.0);
  ASSERT_OK(g.AddEdge(0, 6));
  ASSERT_OK(g.AddEdge(0, 7));
  AuxiliaryData aux(g, asg);
  LightweightRepartitioner rp{RepartitionerOptions{}};
  EXPECT_EQ(rp.GetTargetPartition(aux, 0, 1.0, 0, 1, nullptr),
            kInvalidPartition);
}

TEST_F(TargetRuleTest, UnderloadingSourceRejected) {
  // Vertex 0 weighs most of its partition; moving it would underload the
  // source below (2 - beta) * avg.
  g.SetVertexWeight(0, 6.0);
  ASSERT_OK(g.AddEdge(0, 6));
  AuxiliaryData aux(g, asg);
  RepartitionerOptions opt;
  opt.beta = 1.1;
  LightweightRepartitioner rp(opt);
  EXPECT_EQ(rp.GetTargetPartition(aux, 0, 6.0, 0, 1, nullptr),
            kInvalidPartition);
}

TEST_F(TargetRuleTest, OverloadedSourceAdmitsNegativeGain) {
  // All of vertex 0's neighbors are local (gain -2 to move), but its
  // partition is overloaded; the prose variant lets it shed anyway.
  g.SetVertexWeight(1, 8.0);
  ASSERT_OK(g.AddEdge(0, 2));
  ASSERT_OK(g.AddEdge(0, 3));
  AuxiliaryData aux(g, asg);
  RepartitionerOptions opt;
  opt.beta = 1.1;
  opt.overloaded_admits_any_gain = true;
  long gain = 0;
  EXPECT_EQ(LightweightRepartitioner(opt).GetTargetPartition(
                aux, 0, 1.0, 0, 1, &gain),
            1u);
  EXPECT_EQ(gain, -2);

  // The strict pseudocode variant (sentinel -1) only admits gain >= 0.
  opt.overloaded_admits_any_gain = false;
  EXPECT_EQ(LightweightRepartitioner(opt).GetTargetPartition(
                aux, 0, 1.0, 0, 1, nullptr),
            kInvalidPartition);
}

TEST_F(TargetRuleTest, BestGainTargetWinsAmongSeveral) {
  Graph g3(12);
  PartitionAssignment asg3(12, 3);
  for (VertexId v = 4; v < 8; ++v) asg3.Assign(v, 1);
  for (VertexId v = 8; v < 12; ++v) asg3.Assign(v, 2);
  // Vertex 0: 1 neighbor in partition 1, 3 neighbors in partition 2.
  ASSERT_OK(g3.AddEdge(0, 4));
  ASSERT_OK(g3.AddEdge(0, 8));
  ASSERT_OK(g3.AddEdge(0, 9));
  ASSERT_OK(g3.AddEdge(0, 10));
  AuxiliaryData aux(g3, asg3);
  RepartitionerOptions opt;
  opt.beta = 1.5;
  long gain = 0;
  EXPECT_EQ(LightweightRepartitioner(opt).GetTargetPartition(
                aux, 0, 1.0, 0, 1, &gain),
            2u);
  EXPECT_EQ(gain, 3);
}

// --- Run-level behaviour -----------------------------------------------------

TEST(LightweightRunTest, TopKCapsPerPartitionMoves) {
  // A graph where many vertices want to move: bipartite cross edges.
  Graph g(20);
  PartitionAssignment asg(20, 2);
  for (VertexId v = 10; v < 20; ++v) asg.Assign(v, 1);
  for (VertexId u = 0; u < 10; ++u) {
    ASSERT_OK(g.AddEdge(u, 10 + u));
    ASSERT_OK(g.AddEdge(u, 10 + (u + 1) % 10));
  }
  AuxiliaryData aux(g, asg);
  RepartitionerOptions opt;
  opt.beta = 1.9;
  opt.k = 2;
  LightweightRepartitioner rp(opt);
  const std::size_t moves = rp.RunIteration(g, &asg, &aux);
  // Two stages, each moving at most k from each of the two partitions.
  EXPECT_LE(moves, 4u * opt.k);
}

TEST(LightweightRunTest, EffectiveKDerivedFromFraction) {
  RepartitionerOptions opt;
  opt.k = 0;
  opt.k_fraction = 0.01;
  LightweightRepartitioner rp(opt);
  EXPECT_EQ(rp.EffectiveK(10000), 100u);
  EXPECT_EQ(rp.EffectiveK(10), 1u);  // floor at 1
  opt.k = 7;
  EXPECT_EQ(LightweightRepartitioner(opt).EffectiveK(10000), 7u);
}

TEST(LightweightRunTest, ConvergesOnSocialGraphQuickly) {
  SocialGraphOptions gopt;
  gopt.num_vertices = 4000;
  gopt.community_mixing = 0.1;
  gopt.seed = 17;
  Graph g = GenerateSocialGraph(gopt);
  PartitionAssignment asg = HashPartitioner(2).Partition(g, 8);
  AuxiliaryData aux(g, asg);

  RepartitionerOptions opt;
  opt.beta = 1.1;
  opt.k_fraction = 0.01;
  LightweightRepartitioner rp(opt);
  const double cut_before = EdgeCutFraction(g, asg);
  const RepartitionResult result = rp.Run(g, &asg, &aux);

  // Theorem 4 / Section 3.3: converges, and in well under 50 iterations.
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 50u);
  EXPECT_LT(result.final_edge_cut_fraction, cut_before);
  EXPECT_LE(ImbalanceFactor(g, asg), opt.beta + 1e-9);
}

TEST(LightweightRunTest, RestoresBalanceAfterHotspot) {
  SocialGraphOptions gopt;
  gopt.num_vertices = 2000;
  gopt.seed = 23;
  Graph g = GenerateSocialGraph(gopt);
  PartitionAssignment asg = HashPartitioner(4).Partition(g, 4);
  // Create a hotspot: double the weight of partition 0's vertices.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (asg.PartitionOf(v) == 0) g.AddVertexWeight(v, 1.0);
  }
  AuxiliaryData aux(g, asg);
  ASSERT_GT(aux.Imbalance(0), 1.1);

  RepartitionerOptions opt;
  opt.beta = 1.1;
  opt.k_fraction = 0.02;
  const RepartitionResult result =
      LightweightRepartitioner(opt).Run(g, &asg, &aux);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(ImbalanceFactor(g, asg), opt.beta + 1e-9);
  EXPECT_FALSE(result.net_moves.empty());
}

TEST(LightweightRunTest, AuxStaysConsistentWithAssignment) {
  SocialGraphOptions gopt;
  gopt.num_vertices = 1000;
  gopt.seed = 29;
  Graph g = GenerateSocialGraph(gopt);
  PartitionAssignment asg = HashPartitioner(5).Partition(g, 4);
  AuxiliaryData aux(g, asg);
  LightweightRepartitioner rp{RepartitionerOptions{}};
  rp.Run(g, &asg, &aux);

  const AuxiliaryData rebuilt(g, asg);
  for (PartitionId p = 0; p < 4; ++p) {
    EXPECT_NEAR(aux.PartitionWeight(p), rebuilt.PartitionWeight(p), 1e-6);
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (PartitionId p = 0; p < 4; ++p) {
      ASSERT_EQ(aux.NeighborCount(v, p), rebuilt.NeighborCount(v, p))
          << "vertex " << v << " partition " << p;
    }
  }
}

TEST(LightweightRunTest, EdgeCutHistoryTracksProgress) {
  SocialGraphOptions gopt;
  gopt.num_vertices = 1000;
  gopt.community_mixing = 0.1;
  gopt.seed = 31;
  Graph g = GenerateSocialGraph(gopt);
  PartitionAssignment asg = HashPartitioner(6).Partition(g, 4);
  AuxiliaryData aux(g, asg);
  const RepartitionResult result =
      LightweightRepartitioner().Run(g, &asg, &aux);
  ASSERT_EQ(result.edge_cut_history.size(), result.iterations);
  // Overall trend: the final cut does not exceed the first recorded cut.
  EXPECT_LE(result.edge_cut_history.back(), result.edge_cut_history.front());
}

TEST(LightweightRunTest, NetMovesMatchAssignmentDiff) {
  SocialGraphOptions gopt;
  gopt.num_vertices = 800;
  gopt.seed = 37;
  Graph g = GenerateSocialGraph(gopt);
  PartitionAssignment asg = HashPartitioner(7).Partition(g, 4);
  const PartitionAssignment before = asg;
  AuxiliaryData aux(g, asg);
  const RepartitionResult result =
      LightweightRepartitioner(RepartitionerOptions{}).Run(g, &asg, &aux);
  EXPECT_EQ(result.net_moves.size(), VerticesMoved(before, asg));
  for (const MigrationRecord& move : result.net_moves) {
    EXPECT_EQ(before.PartitionOf(move.vertex), move.from);
    EXPECT_EQ(asg.PartitionOf(move.vertex), move.to);
    EXPECT_NE(move.from, move.to);
  }
}

TEST(LightweightRunTest, LargerKConvergesInFewerIterations) {
  SocialGraphOptions gopt;
  gopt.num_vertices = 6000;
  gopt.community_mixing = 0.15;
  gopt.seed = 41;

  std::vector<std::size_t> iterations;
  for (std::size_t k : {30u, 300u}) {
    Graph g = GenerateSocialGraph(gopt);
    PartitionAssignment asg = HashPartitioner(8).Partition(g, 8);
    AuxiliaryData aux(g, asg);
    RepartitionerOptions opt;
    opt.k = k;
    opt.max_iterations = 400;
    const RepartitionResult r =
        LightweightRepartitioner(opt).Run(g, &asg, &aux);
    EXPECT_TRUE(r.converged);
    iterations.push_back(r.iterations);
  }
  EXPECT_GT(iterations[0], iterations[1]);
}

TEST(LightweightRunTest, ConvergedInputExchangesNoAuxBytes) {
  // Regression: a run on an already-balanced assignment converges in one
  // zero-move iteration; that iteration used to be charged the
  // alpha*(alpha-1) weight broadcast even though no weight changed.
  SocialGraphOptions gopt;
  gopt.num_vertices = 1000;
  gopt.seed = 23;
  Graph g = GenerateSocialGraph(gopt);
  PartitionAssignment asg = HashPartitioner(3).Partition(g, 4);
  AuxiliaryData aux(g, asg);
  LightweightRepartitioner rp((RepartitionerOptions{}));

  // First run drives the system to convergence...
  (void)rp.Run(g, &asg, &aux);
  // ...so the second run is a pure no-op and must report zero traffic.
  const RepartitionResult again = rp.Run(g, &asg, &aux);
  EXPECT_TRUE(again.converged);
  EXPECT_EQ(again.total_logical_moves, 0u);
  EXPECT_EQ(again.aux_bytes_exchanged, 0u);
}

TEST(LightweightRunTest, InvalidBetaIsRejected) {
  RepartitionerOptions opt;
  opt.beta = 2.5;
  EXPECT_DEATH(LightweightRepartitioner{opt}, "beta");
}

}  // namespace
}  // namespace hermes
