// hermes_shell: an interactive (or scripted) console against a live
// Hermes cluster — the closest thing to a psql/cypher-shell for this
// repo. Commands cover the whole public surface: dataset loading,
// queries, writes, repartitioning, migration stats, and durability.
//
//   ./build/examples/hermes_shell                 # interactive
//   echo "load dblp 0.05 4\nstats\nrepartition" | ./build/examples/hermes_shell
//
// Commands:
//   load <twitter|orkut|dblp> [scale] [alpha]   generate + shard a dataset
//   open <edge-list-path> [alpha]               load a SNAP edge list
//   stats                                        cluster-wide statistics
//   neighbors <v>                                adjacency of a vertex
//   traverse <v> <hops>                          k-hop traversal + timing model
//   read <v> <hops> <count>                      run a mini workload
//   skew <partition> <factor> <requests>         skewed trace (heats weights)
//   addedge <u> <v>                              insert a friendship
//   addvertex                                    insert a user
//   repartition                                  run the lightweight repartitioner
//   validate                                     store consistency check
//   help / quit

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "cluster/hermes_cluster.h"
#include "graphdb/graph_store.h"
#include "common/logging.h"
#include "gen/edge_list_io.h"
#include "gen/profiles.h"
#include "partition/metrics.h"
#include "partition/multilevel.h"
#include "workload/driver.h"
#include "workload/trace.h"

using namespace hermes;

namespace {

std::unique_ptr<HermesCluster> g_cluster;

void RequireCluster() {
  if (!g_cluster) std::printf("no cluster loaded — use 'load' or 'open'\n");
}

void MakeCluster(Graph g, PartitionId alpha) {
  const auto asg = MultilevelPartitioner().Partition(g, alpha);
  HermesCluster::Options options;
  options.repartitioner.beta = 1.1;
  options.repartitioner.k_fraction = 0.01;
  g_cluster = std::make_unique<HermesCluster>(std::move(g), asg, options);
  std::printf("cluster up: %zu vertices, %zu edges, %u servers, "
              "edge-cut %.1f%%\n",
              g_cluster->graph().NumVertices(),
              g_cluster->graph().NumEdges(), g_cluster->num_servers(),
              100.0 * EdgeCutFraction(g_cluster->graph(),
                                      g_cluster->assignment()));
}

void CmdStats() {
  RequireCluster();
  if (!g_cluster) return;
  // Weights include the reads the servers counted since the last fold.
  if (const Status folded = g_cluster->FoldReadCounts(); !folded.ok()) {
    std::printf("error: %s\n", folded.ToString().c_str());
    return;
  }
  const auto& g = g_cluster->graph();
  const auto& asg = g_cluster->assignment();
  std::printf("vertices=%zu edges=%zu servers=%u\n", g.NumVertices(),
              g.NumEdges(), g_cluster->num_servers());
  std::printf("edge-cut=%.1f%% imbalance=%.3f store-bytes=%zu\n",
              100.0 * EdgeCutFraction(g, asg), ImbalanceFactor(g, asg),
              g_cluster->TotalStoreBytes());
  const auto weights = PartitionWeights(g, asg);
  for (PartitionId p = 0; p < weights.size(); ++p) {
    std::printf("  server %-3u weight=%-10.0f nodes=%-8zu ghosts=%zu\n", p,
                weights[p], g_cluster->store(p)->NumNodes(),
                g_cluster->store(p)->NumGhostRelationships());
  }
}

void CmdTraverse(VertexId v, int hops) {
  RequireCluster();
  if (!g_cluster) return;
  auto run = g_cluster->ExecuteRead(v, hops);
  if (!run.ok()) {
    std::printf("error: %s\n", run.status().ToString().c_str());
    return;
  }
  std::printf("processed=%llu unique=%llu remote-hops=%llu segments:",
              static_cast<unsigned long long>(run->vertices_processed),
              static_cast<unsigned long long>(run->unique_vertices),
              static_cast<unsigned long long>(run->remote_hops));
  for (const auto& [server, visits] : run->segments) {
    std::printf(" s%u:%u", server, visits);
  }
  std::printf("\n");
}

void CmdWorkload(const TraceOptions& topt) {
  const auto trace =
      GenerateTrace(g_cluster->graph(), g_cluster->assignment(), topt);
  const ThroughputReport report = RunWorkload(g_cluster.get(), trace);
  std::printf("reads=%llu writes=%llu failed=%llu throughput=%.0f v/s "
              "remote-hops=%llu\n",
              static_cast<unsigned long long>(report.reads_completed),
              static_cast<unsigned long long>(report.writes_completed),
              static_cast<unsigned long long>(report.failed_ops),
              report.VerticesPerSecond(),
              static_cast<unsigned long long>(report.remote_hops));
  if (const Status folded = g_cluster->FoldReadCounts(); !folded.ok()) {
    std::printf("error: %s\n", folded.ToString().c_str());
    return;
  }
  std::printf("imbalance now: %.3f\n",
              ImbalanceFactor(g_cluster->graph(), g_cluster->assignment()));
}

void CmdRepartition() {
  RequireCluster();
  if (!g_cluster) return;
  auto stats = g_cluster->RunLightweightRepartition();
  if (!stats.ok()) {
    std::printf("error: %s\n", stats.status().ToString().c_str());
    return;
  }
  std::printf("iterations=%zu converged=%s moved=%zu rels-touched=%zu\n",
              stats->repartitioner_iterations,
              stats->repartitioner_converged ? "yes" : "no",
              stats->vertices_moved, stats->relationships_touched);
  std::printf("imbalance %.3f -> %.3f, edge-cut %.1f%% -> %.1f%%\n",
              stats->imbalance_before, stats->imbalance_after,
              100.0 * stats->edge_cut_fraction_before,
              100.0 * stats->edge_cut_fraction_after);
  std::printf("aux traffic %zu B, migrated %zu B in %.1f ms (simulated)\n",
              stats->aux_bytes_exchanged, stats->bytes_copied,
              stats->total_time_us / 1000.0);
}

void PrintHelp() {
  std::printf(
      "commands: load <dataset> [scale] [alpha] | open <path> [alpha] |\n"
      "  stats | neighbors <v> | traverse <v> <hops> |\n"
      "  read <v> <hops> <count> | skew <partition> <factor> <requests> |\n"
      "  addedge <u> <v> | addvertex | repartition | validate | quit\n");
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarning);
  std::printf("hermes shell — 'help' for commands\n");
  std::string line;
  while (std::printf("hermes> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream ss(line);
    std::string cmd;
    if (!(ss >> cmd)) continue;

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      PrintHelp();
    } else if (cmd == "load") {
      std::string name;
      double scale = 0.05;
      unsigned alpha = 8;
      ss >> name >> scale >> alpha;
      auto profile = ProfileByName(name, scale);
      if (!profile.ok()) {
        std::printf("error: %s\n", profile.status().ToString().c_str());
        continue;
      }
      MakeCluster(GenerateDataset(*profile),
                  static_cast<PartitionId>(alpha));
    } else if (cmd == "open") {
      std::string path;
      unsigned alpha = 8;
      ss >> path >> alpha;
      auto g = LoadEdgeList(path);
      if (!g.ok()) {
        std::printf("error: %s\n", g.status().ToString().c_str());
        continue;
      }
      MakeCluster(std::move(*g), static_cast<PartitionId>(alpha));
    } else if (cmd == "stats") {
      CmdStats();
    } else if (cmd == "neighbors") {
      RequireCluster();
      if (!g_cluster) continue;
      VertexId v = 0;
      ss >> v;
      const PartitionId p = v < g_cluster->assignment().size()
                                ? g_cluster->assignment().PartitionOf(v)
                                : kInvalidPartition;
      if (p == kInvalidPartition) {
        std::printf("no such vertex\n");
        continue;
      }
      auto neigh = g_cluster->store(p)->Neighbors(v);
      if (!neigh.ok()) {
        std::printf("error: %s\n", neigh.status().ToString().c_str());
        continue;
      }
      std::printf("server %u, %zu neighbors:", p, neigh->size());
      for (std::size_t i = 0; i < neigh->size() && i < 20; ++i) {
        std::printf(" %llu", static_cast<unsigned long long>((*neigh)[i]));
      }
      std::printf(neigh->size() > 20 ? " ...\n" : "\n");
    } else if (cmd == "traverse") {
      VertexId v = 0;
      int hops = 1;
      ss >> v >> hops;
      CmdTraverse(v, hops);
    } else if (cmd == "read") {
      RequireCluster();
      if (!g_cluster) continue;
      VertexId v = 0;
      int hops = 1;
      std::size_t count = 100;
      ss >> v >> hops >> count;
      TraceOptions topt;
      topt.num_requests = count;
      topt.hops = hops;
      CmdWorkload(topt);
    } else if (cmd == "skew") {
      RequireCluster();
      if (!g_cluster) continue;
      unsigned partition = 0;
      double factor = 2.0;
      std::size_t requests = 1000;
      ss >> partition >> factor >> requests;
      TraceOptions topt;
      topt.num_requests = requests;
      topt.hot_partition = static_cast<PartitionId>(partition);
      topt.skew_factor = factor;
      CmdWorkload(topt);
    } else if (cmd == "addedge") {
      RequireCluster();
      if (!g_cluster) continue;
      VertexId u = 0;
      VertexId v = 0;
      ss >> u >> v;
      // audit:allow(status, the shell reports the outcome to the user)
      const Status st = g_cluster->InsertEdge(u, v);
      std::printf("%s\n", st.ToString().c_str());
    } else if (cmd == "addvertex") {
      RequireCluster();
      if (!g_cluster) continue;
      auto id = g_cluster->InsertVertex();
      if (id.ok()) {
        std::printf("created vertex %llu on server %u\n",
                    static_cast<unsigned long long>(*id),
                    g_cluster->assignment().PartitionOf(*id));
      } else {
        std::printf("error: %s\n", id.status().ToString().c_str());
      }
    } else if (cmd == "repartition") {
      CmdRepartition();
    } else if (cmd == "validate") {
      RequireCluster();
      if (!g_cluster) continue;
      std::printf("%s\n", g_cluster->Validate(1000) ? "OK" : "INCONSISTENT");
    } else {
      std::printf("unknown command '%s' — 'help' for usage\n", cmd.c_str());
    }
  }
  std::printf("\nbye\n");
  return 0;
}
