// Figure 10: throughput while varying the write rate (0/10/20/30%).
// Shape to check: small, graceful degradation (paper: ~3%/5%/7% at
// 10/20/30% writes) thanks to the monotonically increasing ID generator —
// B+Tree inserts always append to the rightmost leaf. Afterwards, a 100%
// read run on the repartitioned graph stays within a few percent of a
// fresh Metis placement (Section 5.3.3).

#include <cstdio>

#include "bench/bench_common.h"
#include "cluster/hermes_cluster.h"
#include "common/logging.h"
#include "partition/metrics.h"
#include "workload/driver.h"
#include "workload/trace.h"

int main(int argc, char** argv) {
  using namespace hermes;
  using namespace hermes::bench;
  SetLogLevel(LogLevel::kWarning);
  const double scale = FlagDouble(argc, argv, "scale", 0.1);
  const auto alpha = static_cast<PartitionId>(FlagInt(argc, argv, "alpha", 16));
  const auto requests =
      static_cast<std::size_t>(FlagInt(argc, argv, "requests", 4000));

  BenchReport bench_report("fig10_write_mix");
  bench_report.SetParam("scale", scale);
  bench_report.SetParam("alpha", alpha);
  bench_report.SetParam("requests", static_cast<double>(requests));

  PrintHeader("Throughput vs write rate", "Figure 10");
  std::printf("alpha=%u servers, %zu requests, scale=%.2f\n\n", alpha,
              requests, scale);
  std::printf("%-10s %12s %12s %12s %12s %14s\n", "dataset", "0%", "10%",
              "20%", "30%", "post vs Metis");

  for (const char* name : {"orkut", "dblp", "twitter"}) {
    const DatasetProfile profile = *ProfileByName(name, scale);
    std::printf("%-10s", name);

    double baseline = 0.0;
    double last_vps = 0.0;
    for (int write_pct : {0, 10, 20, 30}) {
      Graph g = GenerateDataset(profile);
      MultilevelOptions mopt;
      mopt.seed = 42;
      const auto initial = MultilevelPartitioner(mopt).Partition(g, alpha);
      HermesCluster::Options copt;
      copt.repartitioner.beta = 1.1;
      copt.repartitioner.k_fraction = 0.01;
      HermesCluster cluster(std::move(g), initial, copt);

      TraceOptions topt;
      topt.num_requests = requests;
      topt.write_fraction = write_pct / 100.0;
      topt.seed = 99;
      const auto trace =
          GenerateTrace(cluster.graph(), cluster.assignment(), topt);
      const ThroughputReport report = RunWorkload(&cluster, trace);
      const double vps = report.VerticesPerSecond();
      if (write_pct == 0) baseline = vps;
      last_vps = vps;
      std::printf(" %12.0f", vps);
      bench_report.AddResult(std::string(name) + ".writes" +
                                 std::to_string(write_pct) + "_vps",
                             vps, "v/s");
      bench_report.AddSimTime(report.duration_us);

      if (write_pct == 30) {
        // After the inserts, repartition and compare a pure-read run
        // against a fresh Metis placement of the evolved graph.
        // A failed repartition would silently invalidate the whole
        // "after repartition" column — abort loudly instead.
        HERMES_CHECK_OK(cluster.RunLightweightRepartition().status());
        TraceOptions reads;
        reads.num_requests = requests / 2;
        reads.seed = 7;
        const auto read_trace =
            GenerateTrace(cluster.graph(), cluster.assignment(), reads);
        const double hermes_vps =
            RunWorkload(&cluster, read_trace).VerticesPerSecond();
        // The Metis rerun partitions by the weights these reads counted.
        HERMES_CHECK_OK(cluster.FoldReadCounts());

        const auto metis_asg = MatchLabels(
            cluster.assignment(),
            MultilevelPartitioner(mopt).Partition(cluster.graph(), alpha));
        Graph copy = cluster.graph();
        HermesCluster::Options ropts;
        ropts.count_reads_in_weights = false;
        HermesCluster metis_cluster(std::move(copy), metis_asg, ropts);
        const double metis_vps =
            RunWorkload(&metis_cluster, read_trace).VerticesPerSecond();
        std::printf(" %+13.1f%%",
                    100.0 * (hermes_vps - metis_vps) / metis_vps);
        bench_report.AddResult(std::string(name) + ".post_hermes_vps",
                               hermes_vps, "v/s");
        bench_report.AddResult(std::string(name) + ".post_metis_vps",
                               metis_vps, "v/s");
      }
    }
    std::printf("   (30%% vs 0%%: %+.1f%%)\n",
                100.0 * (last_vps - baseline) / baseline);
  }
  std::printf(
      "\nShape check: single-digit %% degradation as the write share rises;\n"
      "post-insert repartitioned quality within a few %% of Metis.\n");
  bench_report.Write();
  return 0;
}
