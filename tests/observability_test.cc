#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "cluster/hermes_cluster.h"
#include "common/metrics.h"
#include "gen/social_graph.h"
#include "partition/hash_partitioner.h"
#include "workload/driver.h"
#include "workload/trace.h"

namespace hermes {
namespace {

/// Each test works on its own metric names; the registry is process-global
/// and other tests in the binary may have incremented shared counters.
TEST(MetricsRegistryTest, CounterPointerIsStableAndAccumulates) {
  auto& registry = MetricsRegistry::Global();
  Counter* c = registry.GetCounter("obs_test.counter");
  EXPECT_EQ(c, registry.GetCounter("obs_test.counter"));
  c->Reset();
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
  EXPECT_EQ(registry.Snapshot().counters.at("obs_test.counter"), 42u);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  auto& registry = MetricsRegistry::Global();
  Gauge* g = registry.GetGauge("obs_test.gauge");
  g->Set(2.5);
  g->Add(-1.0);
  EXPECT_DOUBLE_EQ(g->Value(), 1.5);
  EXPECT_DOUBLE_EQ(registry.Snapshot().gauges.at("obs_test.gauge"), 1.5);
}

TEST(MetricsRegistryTest, HistogramSummaryQuantiles) {
  auto& registry = MetricsRegistry::Global();
  Histogram* hist = registry.GetHistogram("obs_test.hist");
  for (std::uint64_t i = 1; i <= 100; ++i) hist->Record(i);
  const auto snap = registry.Snapshot();
  const auto& h = snap.histograms.at("obs_test.hist");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.sum, 5050.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_NEAR(h.mean, 50.5, 1e-9);
  // p50 lands on the upper edge of the sub-bucket holding the 50th
  // sample ([48, 55]); p99's sub-bucket ([96, 111]) is clamped to max.
  EXPECT_DOUBLE_EQ(h.p50, 55.0);
  EXPECT_DOUBLE_EQ(h.p99, 100.0);
}

TEST(MetricsRegistryTest, ResetAllKeepsRegisteredPointersValid) {
  auto& registry = MetricsRegistry::Global();
  Counter* c = registry.GetCounter("obs_test.reset_counter");
  Gauge* g = registry.GetGauge("obs_test.reset_gauge");
  c->Increment(7);
  g->Set(3.0);
  registry.ResetAll();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
  // The names stay registered; the cached pointers keep working.
  c->Increment();
  EXPECT_EQ(registry.Snapshot().counters.at("obs_test.reset_counter"), 1u);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsDoNotLoseCounts) {
  auto& registry = MetricsRegistry::Global();
  Counter* c = registry.GetCounter("obs_test.mt_counter");
  c->Reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      Counter* mine = registry.GetCounter("obs_test.mt_counter");
      for (int i = 0; i < kPerThread; ++i) mine->Increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c->Value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ClusterMetricsTest, SnapshotExposesClusterCountersAndGauges) {
  MetricsRegistry::Global().ResetAll();
  SocialGraphOptions gopt;
  gopt.num_vertices = 800;
  gopt.seed = 13;
  Graph g = GenerateSocialGraph(gopt);
  const auto asg = HashPartitioner(1).Partition(g, 4);
  HermesCluster cluster(std::move(g), asg);

  TraceOptions topt;
  topt.num_requests = 300;
  topt.write_fraction = 0.2;
  const auto trace = GenerateTrace(cluster.graph(), cluster.assignment(), topt);
  (void)RunWorkload(&cluster, trace);

  const MetricsSnapshot snap = cluster.MetricsSnapshot();
  EXPECT_GT(snap.counters.at("cluster.reads"), 0u);
  EXPECT_GT(snap.counters.at("cluster.writes"), 0u);
  EXPECT_GT(snap.counters.at("driver.ops_completed"), 0u);
  EXPECT_GT(snap.gauges.at("cluster.num_vertices"), 0.0);
  EXPECT_GT(snap.gauges.at("cluster.num_edges"), 0.0);
  EXPECT_GT(snap.gauges.at("cluster.store_bytes"), 0.0);
  EXPECT_GE(snap.gauges.at("cluster.imbalance"), 1.0);
  // The gauges mirror the quiesced accessors exactly.
  EXPECT_DOUBLE_EQ(snap.gauges.at("cluster.num_vertices"),
                   static_cast<double>(cluster.graph().NumVertices()));
}

TEST(ClusterMetricsTest, RepartitionRecordsMigrationMetrics) {
  MetricsRegistry::Global().ResetAll();
  SocialGraphOptions gopt;
  gopt.num_vertices = 1500;
  gopt.community_mixing = 0.1;
  gopt.seed = 19;
  Graph g = GenerateSocialGraph(gopt);
  const auto asg = HashPartitioner(1).Partition(g, 4);
  HermesCluster cluster(std::move(g), asg);

  // Skewed reads drive up partition 0's weight so the repartitioner has
  // real work to do, then migration metrics must reflect the diff.
  TraceOptions topt;
  topt.num_requests = 2000;
  topt.hot_partition = 0;
  topt.skew_factor = 3.0;
  const auto trace = GenerateTrace(cluster.graph(), cluster.assignment(), topt);
  (void)RunWorkload(&cluster, trace);
  const auto stats = cluster.RunLightweightRepartition();
  ASSERT_OK(stats);

  const MetricsSnapshot snap = cluster.MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("cluster.migrations"), 1u);
  EXPECT_EQ(snap.counters.at("cluster.vertices_migrated"),
            stats->vertices_moved);
  EXPECT_EQ(snap.counters.at("cluster.migration_bytes_copied"),
            stats->bytes_copied);
  EXPECT_GT(snap.counters.at("repartitioner.iterations"), 0u);
  // The repartition and its migration steps were timed.
  EXPECT_EQ(snap.histograms.at("cluster.repartition").count, 1u);
  ASSERT_GT(stats->vertices_moved, 0u);
  EXPECT_GE(snap.histograms.at("cluster.migration.copy").count, 1u);
  EXPECT_GE(snap.histograms.at("cluster.migration.remove").count, 1u);
}

}  // namespace
}  // namespace hermes
