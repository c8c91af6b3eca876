// Regression tests for the two swallowed-status defects fixed by the
// error-propagation contract (DESIGN.md §10). Both drive a real WAL
// failure through a failpoint and fail against the pre-fix code:
//
//  1. ExecuteRead discarded the DoAddNodeWeight status, so a WAL append
//     failure left the in-memory popularity weight bumped while the
//     durable store missed it — recovery would rebuild a lower weight
//     and every repartition decision would run on phantom load. Reads
//     are now counted on the servers and reach the WAL only through a
//     fold, so the same failure is pinned at the fold.
//
//  2. A WAL append failure in the middle of a migration chunk's copy
//     step returned early with the vertex replicated on the target
//     while the directory still routed to the source — Validate()
//     stayed false forever.
//
// The chunked migration sends each step as one request per server, so
// two more pin what a failure partway through such a batch leaves:
//
//  3. A failed remove: the remove step flipped and removed one vertex
//     at a time and returned at the first failed remove, so every later
//     vertex of the chunk stayed unavailable at a source the directory
//     still routed to. The directory now flips for the whole chunk
//     first, and every chunk vertex stays readable.
//
//  4. A mark that fails partway through its source's batch: the unwind
//     re-marks exactly the applied prefix and removes the replicas, and
//     Validate() holds.
//
// Failpoints compile to no-ops under the default preset, so these skip
// there and run under asan-ubsan / tsan (HERMES_FAILPOINTS).

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "cluster/hermes_cluster.h"
#include "common/failpoint.h"
#include "gen/social_graph.h"
#include "graphdb/graph_store.h"
#include "partition/hash_partitioner.h"

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

class StatusDisciplineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kFailpointsEnabled) {
      GTEST_SKIP() << "HERMES_FAILPOINTS is off (default preset); run the "
                      "asan-ubsan or tsan preset for fault injection";
    }
    FailpointRegistry::Global().Reset();
  }
  void TearDown() override { FailpointRegistry::Global().Reset(); }
};

TEST_F(StatusDisciplineTest, ReadWeightBumpWalFailureSurfacesAndRollsBack) {
  Graph g = SmallSocial();
  const auto asg = HashPartitioner(1).Partition(g, 4);
  HermesCluster::Options opt;
  opt.durability_dir = FreshDir("status_discipline_read_bump");
  HermesCluster cluster(std::move(g), asg, opt);
  const double before = cluster.graph().VertexWeight(0);
  const PartitionId p = cluster.assignment().PartitionOf(0);

  // Every WAL append fails. A read appends nothing, so it succeeds; the
  // fold's weight update is the append that fails.
  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kEveryK;
  cfg.n = 1;
  FailpointRegistry::Global().Arm("wal.append.io_error", cfg);
  ASSERT_OK(cluster.ExecuteRead(0, 1));
  const Status folded = cluster.FoldReadCounts();
  FailpointRegistry::Global().Reset();

  // Pre-fix: the status was (void)-discarded and the in-memory weight
  // diverged from the durable store.
  EXPECT_TRUE(folded.IsIOError()) << folded.ToString();
  EXPECT_DOUBLE_EQ(cluster.graph().VertexWeight(0), before);
  EXPECT_DOUBLE_EQ(*cluster.store(p)->NodeWeight(0), before);

  // With the fault cleared the count, still pending, lands exactly once.
  ASSERT_OK(cluster.FoldReadCounts());
  EXPECT_DOUBLE_EQ(cluster.graph().VertexWeight(0), before + 1.0);
  EXPECT_DOUBLE_EQ(*cluster.store(p)->NodeWeight(0), before + 1.0);
  EXPECT_TRUE(cluster.Validate());
}

TEST_F(StatusDisciplineTest, MidChunkMigrationWalFailureUnwindsCleanly) {
  Graph g = SmallSocial(9);
  const auto initial = HashPartitioner(1).Partition(g, 4);
  // Hotspot partition 0 so the repartitioner has vertices to move.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (initial.PartitionOf(v) == 0) g.AddVertexWeight(v, 2.0);
  }
  HermesCluster::Options opt;
  opt.durability_dir = FreshDir("status_discipline_migration");
  opt.repartitioner.k_fraction = 0.05;
  HermesCluster cluster(std::move(g), initial, opt);

  // The copy step's appends are all target-side: node creates first,
  // then edges. n=2 lets the first replica land and then fails, so the
  // chunk is genuinely half-replicated when the error surfaces.
  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kNthHit;
  cfg.n = 2;
  FailpointRegistry::Global().Arm("wal.append.io_error", cfg);
  auto stats = cluster.RunLightweightRepartition();
  FailpointRegistry::Global().Reset();

  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsIOError()) << stats.status().ToString();
  // Pre-fix: the replica stayed on the target with the directory still
  // at the source, so Validate() was false — forever.
  EXPECT_TRUE(cluster.Validate());

  // The unwind restored the pre-chunk state, so a retry succeeds.
  auto retry = cluster.RunLightweightRepartition();
  ASSERT_OK(retry);
  EXPECT_GT(retry->vertices_moved, 0u);
  EXPECT_TRUE(cluster.Validate());
}

TEST_F(StatusDisciplineTest, FailedRemoveLeavesEveryChunkVertexReadable) {
  Graph g = SmallSocial(9);
  const auto initial = HashPartitioner(1).Partition(g, 4);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (initial.PartitionOf(v) == 0) g.AddVertexWeight(v, 2.0);
  }
  HermesCluster::Options opt;
  opt.durability_dir = FreshDir("status_discipline_failed_remove");
  opt.repartitioner.k_fraction = 0.05;
  // The remove step is the first thing after the barrier that appends:
  // armed there, the second remove of the first chunk fails.
  std::vector<VertexId> first_chunk;
  opt.migration_barrier_hook =
      [&first_chunk](const std::vector<VertexId>& chunk) {
    if (!first_chunk.empty()) return;
    first_chunk = chunk;
    FailpointConfig cfg;
    cfg.policy = FailpointConfig::Policy::kNthHit;
    cfg.n = 2;
    FailpointRegistry::Global().Arm("wal.append.io_error", cfg);
  };
  HermesCluster cluster(std::move(g), initial, opt);

  auto stats = cluster.RunLightweightRepartition();
  FailpointRegistry::Global().Reset();
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsIOError()) << stats.status().ToString();
  ASSERT_EQ(first_chunk.size(), opt.migration_chunk);

  // Pre-fix: 62 of the 64 answered Unavailable — still routed to a
  // source that had marked them unavailable and never removed them.
  std::size_t left_at_source = 0;
  for (VertexId v : first_chunk) {
    EXPECT_OK(cluster.ExecuteRead(v, 0)) << "vertex " << v;
    const PartitionId home = cluster.assignment().PartitionOf(v);
    EXPECT_TRUE(cluster.store(home)->HasNode(v)) << "vertex " << v;
    for (PartitionId p = 0; p < cluster.num_servers(); ++p) {
      if (p == home || !cluster.store(p)->NodeExists(v)) continue;
      // The one failed remove leaves its source copy, unavailable and
      // routed to by nothing (a Recover roll-forward case, ROADMAP).
      EXPECT_FALSE(cluster.store(p)->HasNode(v)) << "vertex " << v;
      ++left_at_source;
    }
  }
  EXPECT_EQ(left_at_source, 1u);
}

TEST_F(StatusDisciplineTest, MarkFailingPartwayUnwindsExactlyItsPrefix) {
  // Ten vertices of partition 0 move to partition 1 in one chunk, so the
  // copy step is one install and one mark batch of ten, and its WAL
  // appends come in a fixed order: the install's, then one per mark.
  const Graph g = SmallSocial(9);
  const auto initial = HashPartitioner(1).Partition(g, 2);
  PartitionAssignment target = initial;
  std::vector<VertexId> movers;
  for (VertexId v = 0; v < g.NumVertices() && movers.size() < 10; ++v) {
    if (initial.PartitionOf(v) != 0) continue;
    target.Assign(v, 1);
    movers.push_back(v);
  }
  auto appends = [] {
    return FailpointRegistry::Global().Evaluations("wal.append.io_error");
  };

  // A clean run on a twin cluster counts the install's appends.
  std::uint64_t install_appends = 0;
  {
    HermesCluster::Options opt;
    opt.durability_dir = FreshDir("status_discipline_mark_probe");
    std::uint64_t at_barrier = 0;
    opt.migration_barrier_hook = [&](const std::vector<VertexId>&) {
      at_barrier = appends();
    };
    HermesCluster twin(g, initial, opt);
    const std::uint64_t before = appends();
    ASSERT_OK(twin.MigrateToAssignment(target));
    install_appends = at_barrier - before - movers.size();
  }

  HermesCluster::Options opt;
  opt.durability_dir = FreshDir("status_discipline_mark_partway");
  HermesCluster cluster(g, initial, opt);
  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kNthHit;
  cfg.n = install_appends + 4;  // the fourth mark fails
  const std::uint64_t before = appends();
  FailpointRegistry::Global().Arm("wal.append.io_error", cfg);
  auto stats = cluster.MigrateToAssignment(target);
  FailpointRegistry::Global().Reset();
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsIOError()) << stats.status().ToString();
  // The install, three marks and the failed fourth, then the unwind:
  // three re-marks (the applied prefix, not the batch) and one remove
  // per replica.
  EXPECT_EQ(appends() - before, install_appends + 4 + 3 + movers.size());
  EXPECT_TRUE(cluster.Validate());
  for (VertexId v : movers) {
    EXPECT_EQ(cluster.assignment().PartitionOf(v), 0u);
    EXPECT_OK(cluster.ExecuteRead(v, 0)) << "vertex " << v;
  }

  // The unwind restored the pre-chunk state, so a retry succeeds.
  ASSERT_OK(cluster.MigrateToAssignment(target));
  EXPECT_TRUE(cluster.Validate());
}

}  // namespace
}  // namespace hermes
