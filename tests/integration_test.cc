// End-to-end scenarios combining generators, initial partitioning, the
// distributed store, the workload driver, and the lightweight
// repartitioner — miniature versions of the paper's Section 5 experiments.

#include <gtest/gtest.h>

#include "test_util.h"

#include "cluster/hermes_cluster.h"
#include "graphdb/graph_store.h"
#include "gen/profiles.h"
#include "gen/social_graph.h"
#include "partition/hash_partitioner.h"
#include "partition/metrics.h"
#include "partition/multilevel.h"
#include "workload/driver.h"
#include "workload/trace.h"

namespace hermes {
namespace {

TEST(IntegrationTest, SkewedWorkloadTriggersAndBenefitsFromRepartitioning) {
  // Miniature Fig. 9 pipeline: Metis initial placement; skewed trace makes
  // one partition hot; the lightweight repartitioner restores balance and
  // the post-repartition throughput beats the skewed state.
  SocialGraphOptions gopt;
  gopt.num_vertices = 3000;
  gopt.community_mixing = 0.12;
  gopt.seed = 42;
  Graph g = GenerateSocialGraph(gopt);
  const auto initial = MultilevelPartitioner().Partition(g, 8);

  HermesCluster::Options copt;
  copt.repartitioner.beta = 1.1;
  copt.repartitioner.k_fraction = 0.01;
  // Paper regime: server CPU (record visits) dominates per-query cost, so
  // a hot server saturates and load balance governs throughput.
  copt.net.local_visit_us = 4.0;
  copt.net.client_request_us = 40.0;
  HermesCluster cluster(std::move(g), initial, copt);

  // Phase 1: skewed reads heat partition 0 (the servers count them; the
  // fold adds them to the weights). A strong skew makes the hot server
  // the clear bottleneck.
  TraceOptions skew;
  skew.num_requests = 8000;
  skew.hot_partition = 0;
  skew.skew_factor = 4.0;
  skew.seed = 7;
  const auto trace =
      GenerateTrace(cluster.graph(), cluster.assignment(), skew);
  const ThroughputReport during_skew = RunWorkload(&cluster, trace);
  EXPECT_GT(during_skew.reads_completed, 0u);
  ASSERT_OK(cluster.FoldReadCounts());
  EXPECT_GT(ImbalanceFactor(cluster.graph(), cluster.assignment()), 1.1);

  // Phase 2: repartition.
  auto stats = cluster.RunLightweightRepartition();
  ASSERT_OK(stats);
  EXPECT_TRUE(stats->repartitioner_converged);
  EXPECT_GT(stats->vertices_moved, 0u);
  EXPECT_LE(stats->imbalance_after, 1.1 + 1e-6);
  EXPECT_TRUE(cluster.Validate(400));

  // Phase 3: replay the same skewed trace; throughput improves because the
  // hot partition was rebalanced.
  const ThroughputReport after = RunWorkload(&cluster, trace);
  EXPECT_GT(after.VerticesPerSecond(),
            during_skew.VerticesPerSecond());
}

TEST(IntegrationTest, LightweightMigratesFarLessThanRerunningMetis) {
  // Miniature Fig. 8: after a workload shift, compare migration volume of
  // the lightweight repartitioner vs. applying a fresh Metis run.
  SocialGraphOptions gopt;
  gopt.num_vertices = 3000;
  gopt.community_mixing = 0.12;
  gopt.seed = 43;
  Graph g = GenerateSocialGraph(gopt);
  const auto initial = MultilevelPartitioner().Partition(g, 8);

  // Apply the skew directly to the weights.
  Graph skewed = g;
  for (VertexId v = 0; v < skewed.NumVertices(); ++v) {
    if (initial.PartitionOf(v) == 0) skewed.AddVertexWeight(v, 1.0);
  }

  // Lightweight path.
  PartitionAssignment lw_asg = initial;
  AuxiliaryData aux(skewed, lw_asg);
  RepartitionerOptions ropt;
  ropt.k_fraction = 0.01;
  const RepartitionResult lw =
      LightweightRepartitioner(ropt).Run(skewed, &lw_asg, &aux);
  EXPECT_TRUE(lw.converged);

  // Metis-from-scratch path (labels matched to be fair).
  MultilevelOptions mopt;
  mopt.seed = 77;
  const auto metis_new = MatchLabels(
      initial, MultilevelPartitioner(mopt).Partition(skewed, 8));

  const std::size_t lw_moves = VerticesMoved(initial, lw_asg);
  const std::size_t metis_moves = VerticesMoved(initial, metis_new);
  EXPECT_LT(5 * lw_moves, metis_moves);

  const std::size_t lw_rels = RelationshipsTouched(skewed, initial, lw_asg);
  const std::size_t metis_rels =
      RelationshipsTouched(skewed, initial, metis_new);
  EXPECT_LT(lw_rels, metis_rels);
}

TEST(IntegrationTest, WriteHeavyWorkloadKeepsQualityAfterRepartition) {
  // Miniature Fig. 10: insert-heavy traffic, then repartition; partition
  // quality (edge-cut) stays near the offline baseline.
  SocialGraphOptions gopt;
  gopt.num_vertices = 2000;
  gopt.community_mixing = 0.1;
  gopt.seed = 44;
  Graph g = GenerateSocialGraph(gopt);
  const auto initial = MultilevelPartitioner().Partition(g, 4);
  HermesCluster::Options copt;
  copt.repartitioner.k_fraction = 0.02;
  HermesCluster cluster(std::move(g), initial, copt);

  TraceOptions writes;
  writes.num_requests = 2000;
  writes.write_fraction = 0.3;
  writes.seed = 9;
  const auto trace =
      GenerateTrace(cluster.graph(), cluster.assignment(), writes);
  const ThroughputReport report = RunWorkload(&cluster, trace);
  EXPECT_GT(report.writes_completed, 0u);
  ASSERT_OK(cluster.RunLightweightRepartition());
  EXPECT_TRUE(cluster.Validate(300));

  const double cut_now =
      EdgeCutFraction(cluster.graph(), cluster.assignment());
  const auto fresh_metis =
      MultilevelPartitioner().Partition(cluster.graph(), 4);
  const double cut_metis = EdgeCutFraction(cluster.graph(), fresh_metis);
  EXPECT_LT(cut_now, cut_metis + 0.15);  // stays in the same quality band
}

TEST(IntegrationTest, DatasetProfilesDriveFullPipeline) {
  for (const DatasetProfile& profile : AllProfiles(0.03)) {
    Graph g = GenerateDataset(profile);
    const auto asg = HashPartitioner(1).Partition(g, 4);
    HermesCluster cluster(std::move(g), asg);
    TraceOptions topt;
    topt.num_requests = 300;
    const auto trace =
        GenerateTrace(cluster.graph(), cluster.assignment(), topt);
    const ThroughputReport report = RunWorkload(&cluster, trace);
    EXPECT_GT(report.vertices_processed, 0u) << profile.name;
    auto stats = cluster.RunLightweightRepartition();
    ASSERT_OK(stats) << profile.name;
    EXPECT_TRUE(cluster.Validate(150)) << profile.name;
  }
}

TEST(IntegrationTest, GhostDisciplineSurvivesManyEpochs) {
  // Stress the migration machinery: alternate skew between partitions and
  // repartition repeatedly; store invariants must hold throughout.
  SocialGraphOptions gopt;
  gopt.num_vertices = 800;
  gopt.seed = 45;
  Graph g = GenerateSocialGraph(gopt);
  const auto initial = HashPartitioner(1).Partition(g, 4);
  HermesCluster::Options copt;
  copt.repartitioner.k_fraction = 0.05;
  HermesCluster cluster(std::move(g), initial, copt);

  for (int epoch = 0; epoch < 4; ++epoch) {
    TraceOptions topt;
    topt.num_requests = 800;
    topt.hot_partition = static_cast<PartitionId>(epoch % 4);
    topt.skew_factor = 3.0;
    topt.seed = 100 + epoch;
    const auto trace =
        GenerateTrace(cluster.graph(), cluster.assignment(), topt);
    RunWorkload(&cluster, trace);
    ASSERT_OK(cluster.RunLightweightRepartition()) << epoch;
    ASSERT_TRUE(cluster.Validate()) << "epoch " << epoch;
    for (PartitionId p = 0; p < 4; ++p) {
      ASSERT_TRUE(cluster.store(p)->CheckLinks()) << "epoch " << epoch;
    }
  }
}

}  // namespace
}  // namespace hermes
