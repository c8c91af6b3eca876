// Parameterized invariant sweeps for the lightweight repartitioner across
// (alpha, beta, k-fraction): for every configuration the run must
// converge, never worsen the edge-cut, respect the balance constraint
// whenever it is satisfiable, keep auxiliary data consistent, and be
// deterministic.

#include <tuple>

#include <gtest/gtest.h>

#include "gen/social_graph.h"
#include "partition/aux_data.h"
#include "partition/hash_partitioner.h"
#include "partition/lightweight.h"
#include "partition/metrics.h"

namespace hermes {
namespace {

using SweepParam = std::tuple<PartitionId, double, double>;

class LightweightSweepTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  Graph MakeGraph() const {
    SocialGraphOptions opt;
    opt.num_vertices = 2500;
    opt.community_mixing = 0.15;
    opt.seed = 97;
    return GenerateSocialGraph(opt);
  }
};

TEST_P(LightweightSweepTest, ConvergesWithInvariants) {
  const auto [alpha, beta, k_fraction] = GetParam();
  Graph g = MakeGraph();
  PartitionAssignment asg = HashPartitioner(3).Partition(g, alpha);
  AuxiliaryData aux(g, asg);

  RepartitionerOptions opt;
  opt.beta = beta;
  opt.k_fraction = k_fraction;
  const double cut_before = EdgeCutFraction(g, asg);
  const RepartitionResult result =
      LightweightRepartitioner(opt).Run(g, &asg, &aux);

  EXPECT_TRUE(result.converged);
  // Convergence must come from quiescence/zero-move detection, not from
  // slamming into the max_iterations safety bound. The tightest configs
  // (k_fraction 0.002 -> k = 5 on 2500 vertices) legitimately need most
  // of the budget: since candidate truncation became total-ordered
  // (gain desc, vertex id asc) the iteration count is identical across
  // standard libraries, so this bound no longer needs slack for
  // implementation-defined nth_element tie-breaks.
  EXPECT_LT(result.iterations, opt.max_iterations);
  // Edge-cut never ends worse than it started.
  EXPECT_LE(EdgeCutFraction(g, asg), cut_before + 1e-12);
  // Balance: hash starts balanced, so the constraint is satisfiable and
  // the final state must respect it.
  EXPECT_LE(ImbalanceFactor(g, asg), beta + 1e-9);
  // Bookkeeping invariants.
  EXPECT_EQ(result.net_moves.size(),
            VerticesMoved(HashPartitioner(3).Partition(g, alpha), asg));
  EXPECT_GT(result.aux_bytes_exchanged, 0u);
  // Auxiliary data still matches a rebuild.
  const AuxiliaryData rebuilt(g, asg);
  for (PartitionId p = 0; p < alpha; ++p) {
    ASSERT_NEAR(aux.PartitionWeight(p), rebuilt.PartitionWeight(p), 1e-6);
  }
}

TEST_P(LightweightSweepTest, DeterministicAcrossRuns) {
  const auto [alpha, beta, k_fraction] = GetParam();
  auto run_once = [&, alpha = alpha, beta = beta,
                   k_fraction = k_fraction] {
    Graph g = MakeGraph();
    PartitionAssignment asg = HashPartitioner(3).Partition(g, alpha);
    AuxiliaryData aux(g, asg);
    RepartitionerOptions opt;
    opt.beta = beta;
    opt.k_fraction = k_fraction;
    LightweightRepartitioner(opt).Run(g, &asg, &aux);
    return asg;
  };
  EXPECT_TRUE(run_once() == run_once());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LightweightSweepTest,
    ::testing::Combine(::testing::Values(2u, 4u, 8u, 16u),
                       ::testing::Values(1.05, 1.1, 1.3),
                       ::testing::Values(0.002, 0.01, 0.05)));

class HotspotSweepTest : public ::testing::TestWithParam<PartitionId> {};

TEST_P(HotspotSweepTest, RebalancesWhateverPartitionHeatsUp) {
  const PartitionId hot = GetParam();
  SocialGraphOptions gopt;
  gopt.num_vertices = 2000;
  gopt.seed = 55;
  Graph g = GenerateSocialGraph(gopt);
  PartitionAssignment asg = HashPartitioner(9).Partition(g, 4);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (asg.PartitionOf(v) == hot) g.AddVertexWeight(v, 1.5);
  }
  AuxiliaryData aux(g, asg);
  ASSERT_GT(aux.Imbalance(hot), 1.1);

  RepartitionerOptions opt;
  opt.beta = 1.1;
  opt.k_fraction = 0.02;
  const RepartitionResult result =
      LightweightRepartitioner(opt).Run(g, &asg, &aux);
  EXPECT_TRUE(result.converged) << "hot partition " << hot;
  EXPECT_LE(ImbalanceFactor(g, asg), 1.1 + 1e-9) << "hot partition " << hot;
}

// The direction rules are ID-based; rebalancing must work regardless of
// whether the hot partition has the lowest, middle, or highest ID.
INSTANTIATE_TEST_SUITE_P(HotPartitions, HotspotSweepTest,
                         ::testing::Values(0u, 1u, 2u, 3u));

}  // namespace
}  // namespace hermes
