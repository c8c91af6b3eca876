// Whole-cluster durability: run workloads and repartitioning against a
// durable cluster, crash it (drop the object without shutdown), recover,
// and verify the rebuilt directory/graph/stores match.

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "test_util.h"

#include "cluster/hermes_cluster.h"
#include "common/failpoint.h"
#include "graphdb/graph_store.h"
#include "gen/social_graph.h"
#include "partition/hash_partitioner.h"
#include "partition/metrics.h"
#include "storage/wal.h"
#include "workload/driver.h"
#include "workload/trace.h"

namespace hermes {
namespace {

std::string FreshDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Graph SmallSocial(std::uint64_t seed = 5) {
  SocialGraphOptions opt;
  opt.num_vertices = 600;
  opt.seed = seed;
  return GenerateSocialGraph(opt);
}

TEST(ClusterRecoveryTest, RecoverEmptyDirectoryYieldsEmptyCluster) {
  HermesCluster::Options opt;
  opt.durability_dir = FreshDir("hermes_cluster_empty");
  auto cluster = HermesCluster::Recover(4, opt);
  ASSERT_OK(cluster);
  EXPECT_EQ((*cluster)->graph().NumVertices(), 0u);
  EXPECT_EQ((*cluster)->num_servers(), 4u);
}

TEST(ClusterRecoveryTest, CrashAfterLoadRecoversEverything) {
  const std::string dir = FreshDir("hermes_cluster_load");
  Graph g = SmallSocial();
  const Graph original = g;
  const auto asg = HashPartitioner(1).Partition(g, 4);
  {
    HermesCluster::Options opt;
    opt.durability_dir = dir;
    HermesCluster cluster(std::move(g), asg, opt);
    ASSERT_TRUE(cluster.Validate(100));
    // No checkpoint, no shutdown: recovery comes from the WAL alone.
  }
  HermesCluster::Options opt;
  opt.durability_dir = dir;
  auto recovered = HermesCluster::Recover(4, opt);
  ASSERT_OK(recovered);
  EXPECT_EQ((*recovered)->graph().NumVertices(), original.NumVertices());
  EXPECT_EQ((*recovered)->graph().NumEdges(), original.NumEdges());
  EXPECT_TRUE((*recovered)->assignment() == asg);
  EXPECT_TRUE((*recovered)->Validate());
}

TEST(ClusterRecoveryTest, WritesAndWeightsSurviveCrash) {
  const std::string dir = FreshDir("hermes_cluster_writes");
  Graph g = SmallSocial(7);
  const auto asg = HashPartitioner(1).Partition(g, 4);
  std::size_t edges_after_workload = 0;
  double weight_of_zero = 0.0;
  {
    HermesCluster::Options opt;
    opt.durability_dir = dir;
    HermesCluster cluster(std::move(g), asg, opt);
    ASSERT_OK(cluster.Checkpoint());  // snapshot the loaded state

    TraceOptions topt;
    topt.num_requests = 400;
    topt.write_fraction = 0.4;
    const auto trace =
        GenerateTrace(cluster.graph(), cluster.assignment(), topt);
    RunWorkload(&cluster, trace);
    // Read counts are soft state until a fold; the checkpoint folds them
    // into the weights it snapshots.
    ASSERT_OK(cluster.Checkpoint());
    edges_after_workload = cluster.graph().NumEdges();
    weight_of_zero = cluster.graph().VertexWeight(0);
    // Crash.
  }
  HermesCluster::Options opt;
  opt.durability_dir = dir;
  auto recovered = HermesCluster::Recover(4, opt);
  ASSERT_OK(recovered);
  EXPECT_EQ((*recovered)->graph().NumEdges(), edges_after_workload);
  EXPECT_DOUBLE_EQ((*recovered)->graph().VertexWeight(0), weight_of_zero);
  EXPECT_TRUE((*recovered)->Validate());
}

TEST(ClusterRecoveryTest, CrashBeforeFoldLosesOnlyUnfoldedReads) {
  const std::string dir = FreshDir("hermes_cluster_unfolded");
  Graph g = SmallSocial(3);
  const auto asg = HashPartitioner(1).Partition(g, 4);
  const double initial = g.VertexWeight(5);
  VertexId u = 0;
  VertexId w = 0;
  {
    HermesCluster::Options opt;
    opt.durability_dir = dir;
    HermesCluster cluster(std::move(g), asg, opt);
    for (int i = 0; i < 3; ++i) ASSERT_OK(cluster.ExecuteRead(5, 1));
    ASSERT_OK(cluster.FoldReadCounts());  // logged: survives the crash
    for (int i = 0; i < 2; ++i) ASSERT_OK(cluster.ExecuteRead(5, 1));
    // A write after the unfolded reads, which must survive them.
    while (cluster.graph().HasEdge(u, w) || u == w) ++w;
    ASSERT_OK(cluster.InsertEdge(u, w));
    // Crash with two reads counted and not folded.
  }
  HermesCluster::Options opt;
  opt.durability_dir = dir;
  auto recovered = HermesCluster::Recover(4, opt);
  ASSERT_OK(recovered);
  HermesCluster& cluster = **recovered;
  EXPECT_DOUBLE_EQ(cluster.graph().VertexWeight(5), initial + 3.0);
  EXPECT_DOUBLE_EQ(
      *cluster.store(cluster.assignment().PartitionOf(5))->NodeWeight(5),
      initial + 3.0);
  EXPECT_TRUE(cluster.graph().HasEdge(u, w));
  EXPECT_TRUE(cluster.Validate());
  // Nothing of the lost counts lingers: a fold now adds nothing.
  ASSERT_OK(cluster.FoldReadCounts());
  EXPECT_DOUBLE_EQ(cluster.graph().VertexWeight(5), initial + 3.0);
}

TEST(ClusterRecoveryTest, RepartitioningSurvivesCrash) {
  const std::string dir = FreshDir("hermes_cluster_repart");
  Graph g = SmallSocial(9);
  const auto initial = HashPartitioner(1).Partition(g, 4);
  // Hotspot, then repartition, then crash.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (initial.PartitionOf(v) == 0) g.AddVertexWeight(v, 2.0);
  }
  PartitionAssignment after_repartition(0, 1);
  {
    HermesCluster::Options opt;
    opt.durability_dir = dir;
    opt.repartitioner.k_fraction = 0.05;
    HermesCluster cluster(std::move(g), initial, opt);
    auto stats = cluster.RunLightweightRepartition();
    ASSERT_OK(stats);
    ASSERT_GT(stats->vertices_moved, 0u);
    after_repartition = cluster.assignment();
  }
  HermesCluster::Options opt;
  opt.durability_dir = dir;
  auto recovered = HermesCluster::Recover(4, opt);
  ASSERT_OK(recovered);
  // The directory is rebuilt from where records actually live, i.e. the
  // post-migration placement.
  EXPECT_TRUE((*recovered)->assignment() == after_repartition);
  EXPECT_TRUE((*recovered)->Validate());
}

TEST(ClusterRecoveryTest, CheckpointTruncatesAllLogs) {
  const std::string dir = FreshDir("hermes_cluster_ckpt");
  Graph g = SmallSocial(11);
  const auto asg = HashPartitioner(1).Partition(g, 2);
  HermesCluster::Options opt;
  opt.durability_dir = dir;
  HermesCluster cluster(std::move(g), asg, opt);
  ASSERT_OK(cluster.Checkpoint());
  for (PartitionId p = 0; p < 2; ++p) {
    auto tail = WriteAheadLog::ReadAll(
        dir + "/p" + std::to_string(p) + "/wal.log", true);
    ASSERT_OK(tail);
    EXPECT_TRUE(tail->empty()) << "partition " << p;
  }
}

// Checkpoint asks every server in one fan-out. A snapshot write that
// fails on one of them is the checkpoint's status; that server keeps its
// previous snapshot and its whole log, so recovery still sees every write.
TEST(ClusterRecoveryTest, FailedSnapshotOnOneServerFailsOnlyTheCheckpoint) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "needs a HERMES_FAILPOINTS build";
  }
  const std::string dir = FreshDir("hermes_cluster_ckpt_fail");
  Graph g = SmallSocial(13);
  const auto asg = HashPartitioner(1).Partition(g, 4);
  std::size_t edges = 0;
  {
    HermesCluster::Options opt;
    opt.durability_dir = dir;
    HermesCluster cluster(std::move(g), asg, opt);
    ASSERT_OK(cluster.Checkpoint());
    TraceOptions topt;
    topt.num_requests = 200;
    topt.write_fraction = 0.5;
    RunWorkload(&cluster,
                GenerateTrace(cluster.graph(), cluster.assignment(), topt));

    const char* site = "snapshot.write.io_error";
    FailpointRegistry& failpoints = FailpointRegistry::Global();
    FailpointConfig first_snapshot;  // fires on the first evaluation
    failpoints.Arm(site, first_snapshot);
    const std::uint64_t evaluated = failpoints.Evaluations(site);
    const std::uint64_t fired_before = failpoints.FiredCount(site);
    const Status st = cluster.Checkpoint();
    const std::uint64_t asked = failpoints.Evaluations(site) - evaluated;
    const std::uint64_t fired = failpoints.FiredCount(site) - fired_before;
    failpoints.Reset();
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    EXPECT_EQ(fired, 1u);
    EXPECT_EQ(asked, 4u);  // the servers after the failed one were asked
    edges = cluster.graph().NumEdges();
    ASSERT_TRUE(cluster.Validate());
    // Crash.
  }
  HermesCluster::Options opt;
  opt.durability_dir = dir;
  auto recovered = HermesCluster::Recover(4, opt);
  ASSERT_OK(recovered);
  EXPECT_EQ((*recovered)->graph().NumEdges(), edges);
  EXPECT_TRUE((*recovered)->Validate());
}

TEST(ClusterRecoveryTest, RemovedNodeRecoversAsTombstoneNotPhantom) {
  // Regression: an id below max_id whose node record was removed and
  // never re-created used to recover as a weight-1 "phantom" on
  // partition 0 (the directory default) that no store hosts — Validate()
  // failed forever and any mutation against the id diverged graph and
  // stores. Recover() now tombstones such ids.
  const std::string dir = FreshDir("hermes_cluster_phantom");
  {
    Graph g(5);
    ASSERT_OK(g.AddEdge(0, 1));
    ASSERT_OK(g.AddEdge(1, 3));
    ASSERT_OK(g.AddEdge(3, 4));
    PartitionAssignment asg(5, 2);
    asg.Assign(3, 1);
    asg.Assign(4, 1);
    HermesCluster::Options opt;
    opt.durability_dir = dir;
    HermesCluster cluster(std::move(g), asg, opt);
    // Drop the isolated vertex's record from its store, then checkpoint:
    // on disk, id 2 now exists nowhere while max_id is still 4.
    ASSERT_OK(cluster.store(0)->RemoveNode(2));
    ASSERT_OK(cluster.Checkpoint());
  }

  HermesCluster::Options opt;
  opt.durability_dir = dir;
  auto recovered = HermesCluster::Recover(2, opt);
  ASSERT_OK(recovered);
  HermesCluster& cluster = **recovered;
  EXPECT_TRUE(cluster.Validate());  // pre-fix: failed (phantom on p0)
  EXPECT_TRUE(cluster.IsTombstoned(2));
  EXPECT_DOUBLE_EQ(cluster.graph().VertexWeight(2), 0.0);
  // Every mutation/read path must reject the dead id...
  EXPECT_TRUE(cluster.InsertEdge(2, 0).IsNotFound());
  EXPECT_TRUE(cluster.ExecuteRead(2, 1).status().IsNotFound());
  // ...while the id space stays monotone: new vertices allocate past it
  // instead of resurrecting it.
  auto id = cluster.InsertVertex();
  ASSERT_OK(id);
  EXPECT_EQ(*id, 5u);
  EXPECT_FALSE(cluster.IsTombstoned(*id));
  EXPECT_TRUE(cluster.Validate());

  // The tombstone survives another checkpoint/recover cycle.
  ASSERT_OK(cluster.Checkpoint());
  auto again = HermesCluster::Recover(2, opt);
  ASSERT_OK(again);
  EXPECT_TRUE((*again)->IsTombstoned(2));
  EXPECT_TRUE((*again)->Validate());
}

TEST(ClusterRecoveryTest, NonDurableClusterRejectsCheckpoint) {
  Graph g(4);
  HermesCluster cluster(std::move(g), PartitionAssignment(4, 2));
  EXPECT_TRUE(cluster.Checkpoint().IsInvalidArgument());
  HermesCluster::Options opt;  // no durability_dir
  EXPECT_TRUE(HermesCluster::Recover(2, opt).status().IsInvalidArgument());
}

}  // namespace
}  // namespace hermes
