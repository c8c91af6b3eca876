#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "common/failpoint.h"
#include "common/metrics.h"
#include "cluster/hermes_cluster.h"
#include "graphdb/graph_store.h"
#include "gen/social_graph.h"
#include "partition/hash_partitioner.h"
#include "partition/metrics.h"
#include "partition/multilevel.h"

namespace hermes {
namespace {

Graph TwoCommunities() {
  // Communities {0..4} and {5..9}, near-cliques, one bridge 4-5.
  Graph g(10);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) {
      EXPECT_OK(g.AddEdge(u, v));
      EXPECT_OK(g.AddEdge(5 + u, 5 + v));
    }
  }
  EXPECT_OK(g.AddEdge(4, 5));
  return g;
}

PartitionAssignment GoodSplit() {
  PartitionAssignment asg(10, 2);
  for (VertexId v = 5; v < 10; ++v) asg.Assign(v, 1);
  return asg;
}

TEST(HermesClusterTest, LoadsStoresConsistently) {
  HermesCluster cluster(TwoCommunities(), GoodSplit());
  EXPECT_EQ(cluster.num_servers(), 2u);
  EXPECT_EQ(cluster.store(0)->NumNodes(), 5u);
  EXPECT_EQ(cluster.store(1)->NumNodes(), 5u);
  EXPECT_TRUE(cluster.Validate());
  // One cross-partition edge -> one ghost copy somewhere.
  EXPECT_EQ(cluster.store(0)->NumGhostRelationships() +
                cluster.store(1)->NumGhostRelationships(),
            1u);
}

TEST(HermesClusterTest, OneHopTraversalLocalWhenCommunityIntact) {
  HermesCluster cluster(TwoCommunities(), GoodSplit());
  auto run = cluster.ExecuteRead(0, 1);
  ASSERT_OK(run);
  EXPECT_EQ(run->vertices_processed, 5u);  // start + 4 neighbors
  EXPECT_EQ(run->unique_vertices, 5u);
  EXPECT_EQ(run->remote_hops, 0u);
  ASSERT_EQ(run->segments.size(), 1u);
  EXPECT_EQ(run->segments[0].first, 0u);
}

TEST(HermesClusterTest, BorderVertexIncursRemoteHop) {
  HermesCluster cluster(TwoCommunities(), GoodSplit());
  auto run = cluster.ExecuteRead(4, 1);  // neighbor 5 is remote
  ASSERT_OK(run);
  EXPECT_EQ(run->vertices_processed, 6u);
  EXPECT_GE(run->remote_hops, 1u);
}

TEST(HermesClusterTest, TwoHopRevisitsVertices) {
  HermesCluster cluster(TwoCommunities(), GoodSplit());
  auto run = cluster.ExecuteRead(0, 2);
  ASSERT_OK(run);
  // Dense community: 2-hop reprocesses many vertices; response holds each
  // once (Section 5.3.2's response/processed ratio < 1).
  EXPECT_GT(run->vertices_processed, run->unique_vertices);
}

TEST(HermesClusterTest, ReadsBumpStartVertexWeight) {
  HermesCluster cluster(TwoCommunities(), GoodSplit());
  const double before = cluster.graph().VertexWeight(0);
  ASSERT_OK(cluster.ExecuteRead(0, 1));
  ASSERT_OK(cluster.ExecuteRead(0, 1));
  ASSERT_OK(cluster.FoldReadCounts());
  EXPECT_DOUBLE_EQ(cluster.graph().VertexWeight(0), before + 2.0);
  EXPECT_DOUBLE_EQ(*cluster.store(0)->NodeWeight(0), before + 2.0);
  EXPECT_DOUBLE_EQ(cluster.aux().PartitionWeight(0), 7.0);
}

std::uint64_t CounterValue(const std::string& name) {
  const auto snap = MetricsRegistry::Global().Snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(HermesClusterTest, WeightCountingCanBeDisabled) {
  HermesCluster::Options options;
  options.count_reads_in_weights = false;
  HermesCluster cluster(TwoCommunities(), GoodSplit(), options);
  ASSERT_OK(cluster.ExecuteRead(0, 1));
  // Counting off means no fold: not a single bus call goes out.
  const std::uint64_t calls_before = CounterValue("msg.calls");
  ASSERT_OK(cluster.FoldReadCounts());
  EXPECT_EQ(CounterValue("msg.calls"), calls_before);
  EXPECT_DOUBLE_EQ(cluster.graph().VertexWeight(0), 1.0);
  EXPECT_DOUBLE_EQ(*cluster.store(0)->NodeWeight(0), 1.0);
}

TEST(HermesClusterTest, ZeroHopReadOfUnavailableStartIsUnavailable) {
  HermesCluster cluster(TwoCommunities(), GoodSplit());
  ASSERT_OK(cluster.store(0)->SetNodeState(3, NodeState::kUnavailable));
  for (int hops : {0, 1}) {
    const auto run = cluster.ExecuteRead(3, hops);
    EXPECT_TRUE(run.status().IsUnavailable())
        << "hops=" << hops << ": " << run.status().ToString();
  }
  ASSERT_OK(cluster.store(0)->SetNodeState(3, NodeState::kAvailable));
  // A refused read is not counted.
  ASSERT_OK(cluster.FoldReadCounts());
  EXPECT_DOUBLE_EQ(cluster.graph().VertexWeight(3), 1.0);
  EXPECT_DOUBLE_EQ(*cluster.store(0)->NodeWeight(3), 1.0);
}

TEST(HermesClusterTest, ZeroHopReadIsCounted) {
  HermesCluster cluster(TwoCommunities(), GoodSplit());
  auto run = cluster.ExecuteRead(7, 0);
  ASSERT_OK(run);
  EXPECT_EQ(run->vertices_processed, 1u);
  EXPECT_EQ(run->unique_vertices, 1u);
  EXPECT_EQ(run->remote_hops, 0u);
  EXPECT_EQ(run->segments,
            (std::vector<std::pair<PartitionId, std::uint32_t>>{{1, 1}}));
  ASSERT_OK(cluster.ExecuteRead(7, 0));
  ASSERT_OK(cluster.FoldReadCounts());
  EXPECT_DOUBLE_EQ(cluster.graph().VertexWeight(7), 3.0);
  EXPECT_DOUBLE_EQ(*cluster.store(1)->NodeWeight(7), 3.0);
  EXPECT_DOUBLE_EQ(cluster.aux().PartitionWeight(1), 7.0);
}

/// The traversal shape the paper-figure benches replay, computed from
/// the logical graph and directory alone: a start segment, each level's
/// local visits merged into the current segment, then one segment per
/// remote server in ascending id.
HermesCluster::TraversalRun ReferenceRun(const Graph& g,
                                         const PartitionAssignment& asg,
                                         VertexId start, int hops) {
  HermesCluster::TraversalRun run;
  run.segments.emplace_back(asg.PartitionOf(start), 1);
  run.vertices_processed = 1;
  run.unique_vertices = 1;
  std::set<VertexId> seen{start};
  std::vector<VertexId> level{start};
  PartitionId position = asg.PartitionOf(start);
  for (int depth = 0; depth < hops; ++depth) {
    std::map<PartitionId, std::uint32_t> visits;
    std::vector<VertexId> next;
    for (VertexId v : level) {
      for (VertexId w : g.Neighbors(v)) {
        ++visits[asg.PartitionOf(w)];
        ++run.vertices_processed;
        if (seen.insert(w).second) {
          ++run.unique_vertices;
          next.push_back(w);
        }
      }
    }
    if (auto it = visits.find(position); it != visits.end()) {
      run.segments.back().second += it->second;
      visits.erase(it);
    }
    for (const auto& [server, count] : visits) {
      ++run.remote_hops;
      run.segments.emplace_back(server, count);
      position = server;
    }
    level = std::move(next);
  }
  return run;
}

TEST(HermesClusterTest, TraversalShapeMatchesReferenceForEveryStart) {
  SocialGraphOptions gopt;
  gopt.num_vertices = 300;
  gopt.seed = 17;
  Graph g = GenerateSocialGraph(gopt);
  const auto asg = HashPartitioner(5).Partition(g, 4);
  HermesCluster cluster(std::move(g), asg);
  for (int hops : {1, 2}) {
    for (VertexId v = 0; v < cluster.graph().NumVertices(); ++v) {
      const auto run = cluster.ExecuteRead(v, hops);
      ASSERT_OK(run) << "start " << v << " hops " << hops;
      const auto expected =
          ReferenceRun(cluster.graph(), cluster.assignment(), v, hops);
      EXPECT_EQ(run->segments, expected.segments)
          << "start " << v << " hops " << hops;
      EXPECT_EQ(run->remote_hops, expected.remote_hops) << "start " << v;
      EXPECT_EQ(run->vertices_processed, expected.vertices_processed)
          << "start " << v;
      EXPECT_EQ(run->unique_vertices, expected.unique_vertices)
          << "start " << v;
    }
  }
}

// --- Read-weight contract (DESIGN.md §12) ----------------------------------

/// Every view of `v`'s weight — graph(), the hosting store, and the
/// partition totals in aux() — agrees with `expected`.
void ExpectWeightEverywhere(const HermesCluster& cluster, VertexId v,
                            double expected) {
  const PartitionId p = cluster.assignment().PartitionOf(v);
  EXPECT_DOUBLE_EQ(cluster.graph().VertexWeight(v), expected) << "graph";
  const auto stored = cluster.store(p)->NodeWeight(v);
  ASSERT_OK(stored);
  EXPECT_DOUBLE_EQ(*stored, expected) << "store " << p;
  for (PartitionId q = 0; q < cluster.num_servers(); ++q) {
    double sum = 0.0;
    for (VertexId u = 0; u < cluster.graph().NumVertices(); ++u) {
      if (cluster.assignment().PartitionOf(u) == q) {
        sum += cluster.graph().VertexWeight(u);
      }
    }
    EXPECT_DOUBLE_EQ(cluster.aux().PartitionWeight(q), sum) << "aux " << q;
  }
}

TEST(HermesClusterTest, CountedReadsReachEveryViewAtTheFold) {
  HermesCluster cluster(TwoCommunities(), GoodSplit());
  constexpr int kReads = 5;
  for (int i = 0; i < kReads; ++i) {
    ASSERT_OK(cluster.ExecuteRead(6, i % 3));
  }
  // Soft state until the fold: no view has moved yet.
  ExpectWeightEverywhere(cluster, 6, 1.0);
  ASSERT_OK(cluster.FoldReadCounts());
  ExpectWeightEverywhere(cluster, 6, 1.0 + kReads);
  // A second fold right away finds nothing to add.
  ASSERT_OK(cluster.FoldReadCounts());
  ExpectWeightEverywhere(cluster, 6, 1.0 + kReads);
  EXPECT_TRUE(cluster.Validate());
}

TEST(HermesClusterTest, MigratingVertexCarriesItsUnfoldedReads) {
  // Chunks {1}, {2}, {3} migrate to partition 1 one at a time. Reads of
  // 2 and 3 land in chunk {1}'s barrier, after the migration's own fold:
  // 2 carries its count in the extracted weight with no fold in between;
  // 3 is also folded inside its own barrier (the record is unavailable
  // but still on the source), which must not count it twice.
  HermesCluster::Options options;
  options.migration_chunk = 1;
  HermesCluster* live = nullptr;
  Status hook_status;
  options.migration_barrier_hook = [&](const std::vector<VertexId>& chunk) {
    Status st;
    if (chunk.front() == 1) {
      for (int i = 0; i < 3 && st.ok(); ++i) {
        st = live->ExecuteRead(2, 1).status();
      }
      for (int i = 0; i < 2 && st.ok(); ++i) {
        st = live->ExecuteRead(3, 1).status();
      }
    } else if (chunk.front() == 3) {
      st = live->FoldReadCounts();
    }
    if (hook_status.ok()) hook_status = st;
  };
  HermesCluster cluster(TwoCommunities(), GoodSplit(), options);
  live = &cluster;
  ASSERT_OK(cluster.ExecuteRead(1, 1));  // folded by the migration itself
  PartitionAssignment target = GoodSplit();
  for (VertexId v : {1u, 2u, 3u}) target.Assign(v, 1);
  ASSERT_OK(cluster.MigrateToAssignment(target));
  ASSERT_OK(hook_status);
  ASSERT_OK(cluster.FoldReadCounts());
  ExpectWeightEverywhere(cluster, 1, 2.0);
  ExpectWeightEverywhere(cluster, 2, 4.0);
  ExpectWeightEverywhere(cluster, 3, 3.0);
  EXPECT_TRUE(cluster.Validate());
}

TEST(HermesClusterTest, CountedReadWhoseReplyIsLostCountsOnce) {
  // Loading two partitions takes four InstallChunk calls, so the reply to
  // the read is the 5th frame to reach the bus endpoint, and every 5th is
  // dropped. The resend re-executes the read under the same token; the
  // server serves it again but counts it once.
  HermesCluster::Options options;
  options.transport.drop_every_n = 5;
  options.transport.drop_dst = 2;  // the client bus endpoint
  options.bus.call_timeout_us = 50'000;
  options.bus.retry_backoff_us = 500;
  HermesCluster cluster(TwoCommunities(), GoodSplit(), options);
  const std::uint64_t dropped_before = CounterValue("msg.dropped");
  ASSERT_OK(cluster.ExecuteRead(3, 1));
  EXPECT_EQ(CounterValue("msg.dropped"), dropped_before + 1);
  ASSERT_OK(cluster.FoldReadCounts());
  ExpectWeightEverywhere(cluster, 3, 2.0);
}

TEST(HermesClusterTest, FoldWhoseReplyIsLostIsReplayedNotRepeated) {
  // Loading two partitions takes four InstallChunk calls, then come four
  // one-call reads: the fold's replies are the 9th and 10th frames to
  // reach the bus endpoint, and every 9th is dropped. The server that
  // lost its reply answers the same-token resend from its dedup cache.
  HermesCluster::Options options;
  options.transport.drop_every_n = 9;
  options.transport.drop_dst = 2;  // the client bus endpoint
  options.bus.call_timeout_us = 50'000;
  options.bus.retry_backoff_us = 500;
  HermesCluster cluster(TwoCommunities(), GoodSplit(), options);
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK(cluster.ExecuteRead(2, 1));
    ASSERT_OK(cluster.ExecuteRead(8, 1));
  }
  const std::uint64_t dropped_before = CounterValue("msg.dropped");
  const std::uint64_t dedup_before = CounterValue("msg.dedup_hits");
  ASSERT_OK(cluster.FoldReadCounts());
  EXPECT_EQ(CounterValue("msg.dropped"), dropped_before + 1);
  EXPECT_EQ(CounterValue("msg.dedup_hits"), dedup_before + 1);
  ExpectWeightEverywhere(cluster, 2, 3.0);
  ExpectWeightEverywhere(cluster, 8, 3.0);
}

TEST(HermesClusterTest, InsertVertexPlacesByHash) {
  HermesCluster cluster(TwoCommunities(), GoodSplit());
  auto id = cluster.InsertVertex(2.0);
  ASSERT_OK(id);
  EXPECT_EQ(*id, 10u);
  const PartitionId p = cluster.assignment().PartitionOf(*id);
  EXPECT_TRUE(cluster.store(p)->HasNode(*id));
  EXPECT_EQ(cluster.graph().NumVertices(), 11u);
  EXPECT_TRUE(cluster.Validate());
}

TEST(HermesClusterTest, InsertEdgeSamePartition) {
  Graph g(4);
  ASSERT_OK(g.AddEdge(0, 1));
  PartitionAssignment asg(4, 2);
  asg.Assign(2, 1);
  asg.Assign(3, 1);
  HermesCluster cluster(std::move(g), asg);
  ASSERT_OK(cluster.InsertEdge(2, 3));
  EXPECT_TRUE(cluster.graph().HasEdge(2, 3));
  EXPECT_FALSE(*cluster.store(1)->EdgeIsGhost(2, 3));
  EXPECT_TRUE(cluster.Validate());
}

TEST(HermesClusterTest, InsertEdgeAcrossPartitionsCreatesGhost) {
  Graph g(4);
  PartitionAssignment asg(4, 2);
  asg.Assign(2, 1);
  asg.Assign(3, 1);
  HermesCluster cluster(std::move(g), asg);
  ASSERT_OK(cluster.InsertEdge(0, 3));
  EXPECT_TRUE(cluster.graph().HasEdge(0, 3));
  // Real copy follows lower id (0): store 0 real, store 1 ghost.
  EXPECT_FALSE(*cluster.store(0)->EdgeIsGhost(0, 3));
  EXPECT_TRUE(*cluster.store(1)->EdgeIsGhost(3, 0));
  EXPECT_TRUE(cluster.Validate());
}

TEST(HermesClusterTest, InsertEdgeRollsBackGraphWhenSecondStoreFails) {
  // Regression: a cross-partition InsertEdge used to commit the edge to
  // the in-memory topology before talking to the stores; when the second
  // store's WAL append failed, the graph kept an edge no store hosts and
  // Validate() failed forever. The fix rolls the graph edge back (and
  // removes the first store's half) before surfacing the error.
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "needs HERMES_FAILPOINTS (asan-ubsan / tsan presets)";
  }
  const std::string dir =
      ::testing::TempDir() + "/hermes_insert_rollback";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Graph g(4);
  PartitionAssignment asg(4, 2);
  asg.Assign(2, 1);
  asg.Assign(3, 1);
  HermesCluster::Options opt;
  opt.durability_dir = dir;
  HermesCluster cluster(std::move(g), asg, opt);

  // Cross-partition insert = two WAL appends (one per endpoint store);
  // fail the second one, after the first store already took its half.
  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kNthHit;
  cfg.n = 2;
  FailpointRegistry::Global().Arm("wal.append.io_error", cfg);
  const Status st = cluster.InsertEdge(0, 3);
  FailpointRegistry::Global().Reset();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  // Pre-fix: HasEdge was true here and Validate() reported divergence.
  EXPECT_FALSE(cluster.graph().HasEdge(0, 3));
  EXPECT_TRUE(cluster.Validate());

  // The failure was transient; the same insert must succeed afterwards.
  ASSERT_OK(cluster.InsertEdge(0, 3));
  EXPECT_TRUE(cluster.graph().HasEdge(0, 3));
  EXPECT_FALSE(*cluster.store(0)->EdgeIsGhost(0, 3));
  EXPECT_TRUE(*cluster.store(1)->EdgeIsGhost(3, 0));
  EXPECT_TRUE(cluster.Validate());
}

TEST(HermesClusterTest, DuplicateInsertEdgeFails) {
  HermesCluster cluster(TwoCommunities(), GoodSplit());
  EXPECT_TRUE(cluster.InsertEdge(0, 1).IsAlreadyExists());
  EXPECT_TRUE(cluster.Validate());
}

TEST(HermesClusterTest, RepartitionMovesHotLoadAndKeepsStoresValid) {
  Graph g = TwoCommunities();
  // Hotspot on partition 0.
  for (VertexId v = 0; v < 5; ++v) g.SetVertexWeight(v, 3.0);
  HermesCluster::Options options;
  options.repartitioner.beta = 1.1;
  options.repartitioner.k = 1;
  HermesCluster cluster(std::move(g), GoodSplit(), options);

  auto stats = cluster.RunLightweightRepartition();
  ASSERT_OK(stats);
  EXPECT_TRUE(stats->repartitioner_converged);
  EXPECT_GT(stats->vertices_moved, 0u);
  EXPECT_LT(stats->imbalance_after, stats->imbalance_before);
  EXPECT_TRUE(cluster.Validate());
  EXPECT_TRUE(cluster.store(0)->CheckLinks());
  EXPECT_TRUE(cluster.store(1)->CheckLinks());
}

TEST(HermesClusterTest, MigrateToAssignmentAppliesOfflinePartitioning) {
  SocialGraphOptions gopt;
  gopt.num_vertices = 500;
  gopt.seed = 3;
  Graph g = GenerateSocialGraph(gopt);
  const auto initial = HashPartitioner(1).Partition(g, 4);
  const auto target = MatchLabels(
      initial, MultilevelPartitioner().Partition(g, 4));
  const double target_cut = EdgeCutFraction(g, target);

  HermesCluster cluster(std::move(g), initial);
  auto stats = cluster.MigrateToAssignment(target);
  ASSERT_OK(stats);
  EXPECT_GT(stats->vertices_moved, 0u);
  EXPECT_GT(stats->bytes_copied, 0u);
  EXPECT_GT(stats->total_time_us, stats->copy_time_us);
  EXPECT_NEAR(stats->edge_cut_fraction_after, target_cut, 1e-12);
  EXPECT_TRUE(cluster.assignment() == target);
  EXPECT_TRUE(cluster.Validate());
}

TEST(HermesClusterTest, ReadsDuringMigrationSeeConsistentPlacement) {
  // Chunked migration exposes a barrier window between a chunk's copy
  // phase and its commit phase, with no cluster locks held. Inside that
  // window: vertices of the in-flight chunk are Unavailable; every other
  // vertex stays readable; and placement is consistent — a chunk is
  // either entirely pre-move or entirely post-move, never split.
  HermesCluster::Options options;
  options.migration_chunk = 2;
  HermesCluster* live = nullptr;  // set after construction, used in hook

  struct Window {
    std::vector<VertexId> chunk;
    Status chunk_read;         // read starting at a chunk vertex
    Status other_read;         // read starting far from the chunk
    Status chunk_write;        // insert touching a chunk vertex
    Status other_write;        // insert touching no chunk vertex
    PartitionId p1_placement;  // directory placement of vertex 1
  };
  std::vector<Window> windows;
  options.migration_barrier_hook = [&](const std::vector<VertexId>& chunk) {
    Window w;
    w.chunk = chunk;
    const bool first_window = chunk.front() < 5;
    w.chunk_read = live->ExecuteRead(chunk.front(), 1).status();
    w.other_read = live->ExecuteRead(first_window ? 9 : 0, 1).status();
    // Writes observe the same unavailable-record semantics as reads: an
    // edge accepted here would land on the chunk's already-snapshotted
    // source records and be destroyed by the commit step (regression:
    // GraphStore::AddEdge used to admit unavailable endpoints).
    w.chunk_write = live->InsertEdge(first_window ? 1 : 7,  // in chunk
                                     first_window ? 9 : 0);
    w.other_write = first_window ? live->InsertEdge(0, 9)
                                 : live->InsertEdge(3, 9);
    w.p1_placement = live->assignment().PartitionOf(1);
    windows.push_back(std::move(w));
  };

  HermesCluster cluster(TwoCommunities(), GoodSplit(), options);
  live = &cluster;
  // Move 1, 2 to partition 1 and 7 to partition 0: chunk size 2 splits
  // this into chunks {1, 2} and {7}, so the second window observes the
  // first chunk's already-committed placement.
  PartitionAssignment target = GoodSplit();
  target.Assign(1, 1);
  target.Assign(2, 1);
  target.Assign(7, 0);
  auto stats = cluster.MigrateToAssignment(target);
  ASSERT_OK(stats);
  EXPECT_EQ(stats->chunks, 2u);

  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].chunk, (std::vector<VertexId>{1, 2}));
  EXPECT_TRUE(windows[0].chunk_read.IsUnavailable())
      << windows[0].chunk_read.ToString();
  EXPECT_OK(windows[0].other_read)
      << windows[0].other_read.ToString();
  EXPECT_EQ(windows[0].p1_placement, 0u);  // chunk 1 not yet committed

  for (const Window& w : windows) {
    EXPECT_TRUE(w.chunk_write.IsUnavailable()) << w.chunk_write.ToString();
    EXPECT_OK(w.other_write);
  }
  // The rejected writes left no trace; the accepted ones survived the
  // rest of the migration.
  EXPECT_FALSE(cluster.graph().HasEdge(1, 9));
  EXPECT_FALSE(cluster.graph().HasEdge(7, 0));
  EXPECT_TRUE(cluster.graph().HasEdge(0, 9));
  EXPECT_TRUE(cluster.graph().HasEdge(3, 9));
  // Once the chunk commits, the previously rejected edge is accepted.
  EXPECT_OK(cluster.InsertEdge(1, 9));

  EXPECT_EQ(windows[1].chunk, (std::vector<VertexId>{7}));
  EXPECT_TRUE(windows[1].chunk_read.IsUnavailable())
      << windows[1].chunk_read.ToString();
  EXPECT_OK(windows[1].other_read)
      << windows[1].other_read.ToString();
  EXPECT_EQ(windows[1].p1_placement, 1u);  // chunk 1 fully committed

  // After the last chunk commits there is no residual unavailability.
  for (VertexId v : {1u, 2u, 7u}) {
    EXPECT_OK(cluster.ExecuteRead(v, 1)) << "vertex " << v;
  }
  EXPECT_TRUE(cluster.assignment() == target);
  EXPECT_TRUE(cluster.Validate());
}

TEST(HermesClusterTest, MigrationPreservesProperties) {
  Graph g(3);
  ASSERT_OK(g.AddEdge(0, 1));
  ASSERT_OK(g.AddEdge(1, 2));
  PartitionAssignment asg(3, 2);
  HermesCluster cluster(std::move(g), asg);
  ASSERT_OK(cluster.store(0)->SetNodeProperty(1, 0, "profile-blob"));

  PartitionAssignment target(3, 2);
  target.Assign(1, 1);
  ASSERT_OK(cluster.MigrateToAssignment(target));
  EXPECT_EQ(*cluster.store(1)->GetNodeProperty(1, 0), "profile-blob");
  EXPECT_FALSE(cluster.store(0)->NodeExists(1));
  EXPECT_TRUE(cluster.Validate());
}

TEST(HermesClusterTest, MigrationShapeMismatchRejected) {
  HermesCluster cluster(TwoCommunities(), GoodSplit());
  PartitionAssignment wrong(10, 4);
  EXPECT_TRUE(
      cluster.MigrateToAssignment(wrong).status().IsInvalidArgument());
}

TEST(HermesClusterTest, RepeatedRepartitionIsStable) {
  Graph g = TwoCommunities();
  for (VertexId v = 0; v < 5; ++v) g.SetVertexWeight(v, 3.0);
  HermesCluster::Options options;
  options.repartitioner.k = 1;
  HermesCluster cluster(std::move(g), GoodSplit(), options);
  ASSERT_OK(cluster.RunLightweightRepartition());
  auto second = cluster.RunLightweightRepartition();
  ASSERT_OK(second);
  EXPECT_EQ(second->vertices_moved, 0u);  // already converged
  EXPECT_TRUE(cluster.Validate());
}

TEST(HermesClusterTest, ValidateDetectsNothingOnLargerGraph) {
  SocialGraphOptions gopt;
  gopt.num_vertices = 1000;
  gopt.seed = 9;
  Graph g = GenerateSocialGraph(gopt);
  const auto asg = HashPartitioner(3).Partition(g, 8);
  HermesCluster cluster(std::move(g), asg);
  EXPECT_TRUE(cluster.Validate(200));
  EXPECT_GT(cluster.TotalStoreBytes(), 0u);
}

}  // namespace
}  // namespace hermes
