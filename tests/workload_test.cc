#include <cmath>
#include <utility>

#include <gtest/gtest.h>

#include "test_util.h"

#include "cluster/hermes_cluster.h"
#include "gen/social_graph.h"
#include "partition/hash_partitioner.h"
#include "partition/multilevel.h"
#include "workload/driver.h"
#include "workload/trace.h"

namespace hermes {
namespace {

Graph SmallSocial(std::uint64_t seed = 1, std::size_t n = 1500) {
  SocialGraphOptions opt;
  opt.num_vertices = n;
  opt.community_mixing = 0.1;
  opt.seed = seed;
  return GenerateSocialGraph(opt);
}

TEST(TraceTest, GeneratesRequestedCount) {
  Graph g = SmallSocial();
  const auto asg = HashPartitioner(1).Partition(g, 4);
  TraceOptions opt;
  opt.num_requests = 500;
  const auto trace = GenerateTrace(g, asg, opt);
  EXPECT_EQ(trace.size(), 500u);
  for (const Operation& op : trace) {
    EXPECT_EQ(op.type, Operation::Type::kRead);
    EXPECT_LT(op.start, g.NumVertices());
    EXPECT_EQ(op.hops, 1);
  }
}

TEST(TraceTest, DeterministicBySeed) {
  Graph g = SmallSocial();
  const auto asg = HashPartitioner(1).Partition(g, 4);
  TraceOptions opt;
  opt.num_requests = 200;
  const auto a = GenerateTrace(g, asg, opt);
  const auto b = GenerateTrace(g, asg, opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(static_cast<int>(a[i].type), static_cast<int>(b[i].type));
  }
}

TEST(TraceTest, SkewDoublesHotPartitionSelection) {
  Graph g = SmallSocial();
  const auto asg = HashPartitioner(1).Partition(g, 4);
  TraceOptions opt;
  opt.num_requests = 40000;
  opt.hot_partition = 0;
  opt.skew_factor = 2.0;
  const auto trace = GenerateTrace(g, asg, opt);

  std::size_t hot = 0;
  for (const Operation& op : trace) {
    if (asg.PartitionOf(op.start) == 0) ++hot;
  }
  // Hot partition holds ~1/4 of vertices with double weight: expected
  // share 2/(2+3) = 0.4.
  const double share = static_cast<double>(hot) / trace.size();
  EXPECT_NEAR(share, 0.4, 0.04);
}

TEST(TraceTest, WriteMixProportions) {
  Graph g = SmallSocial();
  const auto asg = HashPartitioner(1).Partition(g, 4);
  TraceOptions opt;
  opt.num_requests = 20000;
  opt.write_fraction = 0.3;
  const auto trace = GenerateTrace(g, asg, opt);
  std::size_t writes = 0;
  for (const Operation& op : trace) {
    if (op.type != Operation::Type::kRead) ++writes;
  }
  EXPECT_NEAR(static_cast<double>(writes) / trace.size(), 0.3, 0.02);
}

TEST(DriverTest, CompletesAllReads) {
  Graph g = SmallSocial();
  const auto asg = HashPartitioner(1).Partition(g, 4);
  HermesCluster cluster(std::move(g), asg);
  TraceOptions topt;
  topt.num_requests = 300;
  const auto trace = GenerateTrace(cluster.graph(), cluster.assignment(), topt);
  const ThroughputReport report = RunWorkload(&cluster, trace);
  EXPECT_EQ(report.reads_completed + report.failed_ops, 300u);
  EXPECT_GT(report.vertices_processed, 300u);
  EXPECT_GT(report.duration_us, 0.0);
  EXPECT_GT(report.VerticesPerSecond(), 0.0);
}

TEST(DriverTest, OneHopResponseProcessedRatioIsOne) {
  Graph g = SmallSocial();
  const auto asg = HashPartitioner(1).Partition(g, 4);
  HermesCluster cluster(std::move(g), asg);
  TraceOptions topt;
  topt.num_requests = 200;
  topt.hops = 1;
  const auto trace = GenerateTrace(cluster.graph(), cluster.assignment(), topt);
  const ThroughputReport report = RunWorkload(&cluster, trace);
  // 1-hop: neighbors are distinct, so response == processed
  // (Section 5.3.2 reports ratio 1 for 1-hop).
  EXPECT_DOUBLE_EQ(report.ResponseProcessedRatio(), 1.0);
}

TEST(DriverTest, TwoHopRatioBelowOne) {
  Graph g = SmallSocial();
  const auto asg = HashPartitioner(1).Partition(g, 4);
  HermesCluster cluster(std::move(g), asg);
  TraceOptions topt;
  topt.num_requests = 200;
  topt.hops = 2;
  const auto trace = GenerateTrace(cluster.graph(), cluster.assignment(), topt);
  const ThroughputReport report = RunWorkload(&cluster, trace);
  EXPECT_LT(report.ResponseProcessedRatio(), 0.9);
}

TEST(DriverTest, BetterPartitioningYieldsHigherThroughput) {
  // The paper's central claim at miniature scale: Metis-quality placement
  // beats random hashing on 1-hop traversals.
  Graph g = SmallSocial(7, 2000);
  const auto random_asg = HashPartitioner(1).Partition(g, 8);
  const auto metis_asg = MultilevelPartitioner().Partition(g, 8);

  TraceOptions topt;
  topt.num_requests = 1500;

  Graph g1 = g;
  HermesCluster random_cluster(std::move(g1), random_asg);
  const auto trace1 = GenerateTrace(random_cluster.graph(),
                                    random_cluster.assignment(), topt);
  const ThroughputReport random_report =
      RunWorkload(&random_cluster, trace1);

  HermesCluster metis_cluster(std::move(g), metis_asg);
  const auto trace2 = GenerateTrace(metis_cluster.graph(),
                                    metis_cluster.assignment(), topt);
  const ThroughputReport metis_report = RunWorkload(&metis_cluster, trace2);

  EXPECT_LT(metis_report.remote_hops, random_report.remote_hops / 2);
  EXPECT_GT(metis_report.VerticesPerSecond(),
            1.3 * random_report.VerticesPerSecond());
}

TEST(DriverTest, WritesExecuteAndGrowTheGraph) {
  Graph g = SmallSocial();
  const std::size_t n_before = g.NumVertices();
  const std::size_t m_before = g.NumEdges();
  const auto asg = HashPartitioner(1).Partition(g, 4);
  HermesCluster cluster(std::move(g), asg);
  TraceOptions topt;
  topt.num_requests = 500;
  topt.write_fraction = 0.5;
  const auto trace = GenerateTrace(cluster.graph(), cluster.assignment(), topt);
  const ThroughputReport report = RunWorkload(&cluster, trace);
  EXPECT_GT(report.writes_completed, 100u);
  EXPECT_GE(cluster.graph().NumVertices(), n_before);
  EXPECT_GT(cluster.graph().NumEdges(), m_before);
  EXPECT_TRUE(cluster.Validate(200));
}

TEST(DriverTest, DeterministicSimulation) {
  auto run_once = [] {
    Graph g = SmallSocial(3, 800);
    const auto asg = HashPartitioner(1).Partition(g, 4);
    HermesCluster cluster(std::move(g), asg);
    TraceOptions topt;
    topt.num_requests = 400;
    topt.write_fraction = 0.2;
    const auto trace =
        GenerateTrace(cluster.graph(), cluster.assignment(), topt);
    return RunWorkload(&cluster, trace);
  };
  const ThroughputReport a = run_once();
  const ThroughputReport b = run_once();
  EXPECT_DOUBLE_EQ(a.duration_us, b.duration_us);
  EXPECT_EQ(a.vertices_processed, b.vertices_processed);
  EXPECT_EQ(a.writes_completed, b.writes_completed);
}

TEST(DriverTest, EmptyTraceYieldsFiniteZeroReport) {
  // Edge case: zero requests means duration 0; the derived rates must
  // come out 0, never inf or NaN.
  Graph g = SmallSocial(5, 300);
  const auto asg = HashPartitioner(1).Partition(g, 4);
  HermesCluster cluster(std::move(g), asg);
  const ThroughputReport report = RunWorkload(&cluster, {});
  EXPECT_DOUBLE_EQ(report.duration_us, 0.0);
  EXPECT_EQ(report.vertices_processed, 0u);
  EXPECT_DOUBLE_EQ(report.VerticesPerSecond(), 0.0);
  EXPECT_DOUBLE_EQ(report.MeanUtilization(), 0.0);
  EXPECT_DOUBLE_EQ(report.ResponseProcessedRatio(), 0.0);
  EXPECT_TRUE(std::isfinite(report.VerticesPerSecond()));
  EXPECT_TRUE(std::isfinite(report.MeanUtilization()));
}

TEST(DriverTest, UtilizationAndQueueStatsPopulated) {
  Graph g = SmallSocial(9, 1000);
  const auto asg = HashPartitioner(1).Partition(g, 4);
  HermesCluster cluster(std::move(g), asg);
  TraceOptions topt;
  topt.num_requests = 800;
  const auto trace = GenerateTrace(cluster.graph(), cluster.assignment(), topt);
  const ThroughputReport report = RunWorkload(&cluster, trace);
  ASSERT_EQ(report.server_busy_us.size(), cluster.num_servers());
  const double util = report.MeanUtilization();
  EXPECT_GT(util, 0.0);
  EXPECT_LE(util, 1.0);
  for (SimTime busy : report.server_busy_us) {
    EXPECT_GE(busy, 0.0);
    EXPECT_LE(busy, report.duration_us);
  }
  EXPECT_GE(report.max_queue_delay_us, 0.0);
  EXPECT_GT(report.peak_pending_events, 0u);
}

TEST(DriverTest, MoreClientsFinishSoonerUnderLightLoad) {
  Graph g = SmallSocial(11, 1000);
  const auto asg = HashPartitioner(1).Partition(g, 8);
  TraceOptions topt;
  topt.num_requests = 600;

  Graph g1 = g;
  HermesCluster c1(std::move(g1), asg);
  const auto trace1 = GenerateTrace(c1.graph(), c1.assignment(), topt);
  DriverOptions one_client;
  one_client.num_clients = 1;
  const auto serial = RunWorkload(&c1, trace1, one_client);

  HermesCluster c2(std::move(g), asg);
  const auto trace2 = GenerateTrace(c2.graph(), c2.assignment(), topt);
  DriverOptions many;
  many.num_clients = 32;
  const auto parallel = RunWorkload(&c2, trace2, many);

  EXPECT_LT(parallel.duration_us, serial.duration_us);
}

}  // namespace
}  // namespace hermes
