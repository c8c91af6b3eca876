// social_cluster: a full distributed deployment in miniature.
//
// Builds a Twitter-like synthetic social network, shards it across 8
// Hermes servers (Neo4j-style stores with ghost relationships), serves a
// skewed 1-hop traversal workload from 32 closed-loop clients on the
// discrete-event cluster simulator, then repartitions on-the-fly and
// shows the throughput recovery — the Section 5.3.1 experiment end to end.
//
// Run: ./build/examples/social_cluster [--scale=0.05] [--alpha=8]

#include <cstdio>
#include <cstring>

#include "cluster/hermes_cluster.h"
#include "graphdb/graph_store.h"
#include "common/logging.h"
#include "gen/profiles.h"
#include "partition/metrics.h"
#include "partition/multilevel.h"
#include "workload/driver.h"
#include "workload/trace.h"

using namespace hermes;

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  double scale = 0.05;
  PartitionId alpha = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) scale = atof(argv[i] + 8);
    if (std::strncmp(argv[i], "--alpha=", 8) == 0) {
      alpha = static_cast<PartitionId>(atoi(argv[i] + 8));
    }
  }

  std::printf("Generating a Twitter-like graph (scale %.2f)...\n", scale);
  const DatasetProfile profile = TwitterProfile(scale);
  Graph g = GenerateDataset(profile);
  std::printf("  %zu vertices, %zu edges\n", g.NumVertices(), g.NumEdges());

  std::printf("Partitioning across %u servers (multilevel)...\n", alpha);
  const PartitionAssignment initial =
      MultilevelPartitioner().Partition(g, alpha);

  HermesCluster::Options options;
  options.repartitioner.beta = 1.1;
  options.repartitioner.k_fraction = 0.01;
  HermesCluster cluster(std::move(g), initial, options);
  std::printf("  initial edge-cut: %.1f%%, ghosts: ",
              100.0 * EdgeCutFraction(cluster.graph(), cluster.assignment()));
  std::size_t ghosts = 0;
  for (PartitionId p = 0; p < alpha; ++p) {
    ghosts += cluster.store(p)->NumGhostRelationships();
  }
  std::printf("%zu\n", ghosts);

  // Skewed workload: users on server 0 become twice as popular.
  TraceOptions topt;
  topt.num_requests = 4000;
  topt.hops = 1;
  topt.hot_partition = 0;
  topt.skew_factor = 2.0;
  const auto trace =
      GenerateTrace(cluster.graph(), cluster.assignment(), topt);

  std::printf("\nServing %zu skewed 1-hop traversals (32 clients)...\n",
              trace.size());
  const ThroughputReport before = RunWorkload(&cluster, trace);
  std::printf("  throughput: %.0f vertices/s, remote hops: %llu\n",
              before.VerticesPerSecond(),
              static_cast<unsigned long long>(before.remote_hops));
  // The servers counted the reads; fold the counts into the weights.
  if (const Status folded = cluster.FoldReadCounts(); !folded.ok()) {
    std::printf("  folding read counts failed: %s\n",
                folded.ToString().c_str());
    return 1;
  }
  std::printf("  imbalance factor now: %.3f (reads bumped hot weights)\n",
              ImbalanceFactor(cluster.graph(), cluster.assignment()));

  std::printf("\nRunning the lightweight repartitioner...\n");
  auto stats = cluster.RunLightweightRepartition();
  if (!stats.ok()) {
    std::printf("  repartitioning failed: %s\n",
                stats.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "  %zu iterations, %zu vertices moved, %zu relationship records "
      "touched\n",
      stats->repartitioner_iterations, stats->vertices_moved,
      stats->relationships_touched);
  std::printf("  imbalance %.3f -> %.3f, edge-cut %.1f%% -> %.1f%%\n",
              stats->imbalance_before, stats->imbalance_after,
              100.0 * stats->edge_cut_fraction_before,
              100.0 * stats->edge_cut_fraction_after);
  std::printf("  migration: %zu bytes copied, %.1f ms simulated\n",
              stats->bytes_copied, stats->total_time_us / 1000.0);
  std::printf("  store consistency check: %s\n",
              cluster.Validate(500) ? "OK" : "FAILED");

  std::printf("\nReplaying the same workload after repartitioning...\n");
  const ThroughputReport after = RunWorkload(&cluster, trace);
  std::printf("  throughput: %.0f vertices/s (%+.1f%%), remote hops: %llu\n",
              after.VerticesPerSecond(),
              100.0 * (after.VerticesPerSecond() /
                           before.VerticesPerSecond() -
                       1.0),
              static_cast<unsigned long long>(after.remote_hops));
  return 0;
}
