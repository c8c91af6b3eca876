#include "partition/lightweight.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "common/logging.h"
#include "common/metrics.h"
#include "partition/metrics.h"

namespace hermes {

namespace {

double AuxImbalance(const AuxiliaryData& aux) {
  double max_w = 0.0;
  for (PartitionId p = 0; p < aux.num_partitions(); ++p) {
    max_w = std::max(max_w, aux.PartitionWeight(p));
  }
  const double avg = aux.AverageWeight();
  return avg <= 0.0 ? 1.0 : max_w / avg;
}

}  // namespace

LightweightRepartitioner::LightweightRepartitioner(
    RepartitionerOptions options)
    : options_(options) {
  HERMES_CHECK(options_.beta > 1.0 && options_.beta < 2.0);
}

std::size_t LightweightRepartitioner::EffectiveK(std::size_t n) const {
  if (options_.k > 0) return options_.k;
  const auto derived =
      static_cast<std::size_t>(options_.k_fraction * static_cast<double>(n));
  return std::max<std::size_t>(1, derived);
}

PartitionId LightweightRepartitioner::GetTargetPartition(
    const AuxiliaryData& aux, VertexId v, double vertex_weight,
    PartitionId source, int stage, long* gain) const {
  const double avg = aux.AverageWeight();
  if (avg <= 0.0) return kInvalidPartition;
  const double beta = options_.beta;

  // Rule: moving v must not underload the source partition
  // (Algorithm 1, line 2).
  if ((aux.PartitionWeight(source) - vertex_weight) / avg < 2.0 - beta) {
    return kInvalidPartition;
  }

  // Rule: either the source is overloaded, or a strictly positive gain is
  // required (Algorithm 1, lines 4-6). For an overloaded source the paper's
  // prose admits every vertex; the pseudocode's -1 sentinel admits only
  // gain >= 0 — both behaviours are supported via the option.
  long max_gain = 0;
  const bool overloaded = aux.PartitionWeight(source) / avg > beta;
  if (overloaded) {
    max_gain = options_.overloaded_admits_any_gain
                   ? std::numeric_limits<long>::min()
                   : -1;
  }

  const long d_source = static_cast<long>(aux.NeighborCount(v, source));
  PartitionId target = kInvalidPartition;
  for (PartitionId pt = 0; pt < aux.num_partitions(); ++pt) {
    if (pt == source) continue;
    if (options_.two_stage) {
      // One-way migration rule: stage 1 moves only to higher IDs, stage 2
      // only to lower IDs (oscillation prevention, Fig. 2).
      if (stage == 1 && pt <= source) continue;
      if (stage == 2 && pt >= source) continue;
    }
    const long g =
        static_cast<long>(aux.NeighborCount(v, pt)) - d_source;
    // Rule: the move must not overload the target (Algorithm 1, line 11).
    if ((aux.PartitionWeight(pt) + vertex_weight) / avg < beta &&
        g > max_gain) {
      target = pt;
      max_gain = g;
    }
  }
  if (target != kInvalidPartition && gain != nullptr) *gain = max_gain;
  return target;
}

std::size_t LightweightRepartitioner::RunStage(const Graph& g, int stage,
                                               PartitionAssignment* asg,
                                               AuxiliaryData* aux) const {
  const std::size_t n = g.NumVertices();
  const PartitionId alpha = asg->num_partitions();

  // Candidate selection runs against the stage-start auxiliary data: in the
  // real system each server evaluates its own vertices in parallel without
  // seeing the other servers' in-flight decisions. Collect first, apply
  // after (Algorithm 2, lines 4-9 then 10-11).
  struct Candidate {
    long gain;
    VertexId vertex;
    PartitionId target;
  };
  std::vector<std::vector<Candidate>> per_partition(alpha);
  for (VertexId v = 0; v < n; ++v) {
    const PartitionId source = asg->PartitionOf(v);
    long gain = 0;
    const PartitionId target = GetTargetPartition(
        *aux, v, g.VertexWeight(v), source, stage, &gain);
    if (target != kInvalidPartition) {
      per_partition[source].push_back(Candidate{gain, v, target});
    }
  }

  const std::size_t k = EffectiveK(n);
  std::size_t moves = 0;
  for (PartitionId p = 0; p < alpha; ++p) {
    auto& cands = per_partition[p];
    if (cands.size() > k) {
      // Keep the k candidates with the highest gains. Ties on gain are
      // broken by vertex id (ascending) to make the kept set — and the
      // order moves are applied in — a total order: nth_element with a
      // partial order would split a gain tie in an implementation-defined
      // way, so the final cuts could differ across standard libraries.
      const auto by_gain_then_id = [](const Candidate& a, const Candidate& b) {
        return a.gain != b.gain ? a.gain > b.gain : a.vertex < b.vertex;
      };
      std::nth_element(cands.begin(), cands.begin() + k, cands.end(),
                       by_gain_then_id);
      cands.resize(k);
      // Restore scan order within the kept set so the apply loop below
      // (whose balance re-check is order-sensitive) behaves identically
      // to the no-truncation path: selection is by gain, application is
      // by vertex id.
      std::sort(cands.begin(), cands.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.vertex < b.vertex;
                });
    }
    for (const Candidate& c : cands) {
      // Apply-time guard: candidates were selected against stage-start
      // weights, so simultaneous migrations from several partitions could
      // overshoot a target (the imbalance risk the paper bounds with k).
      // Re-checking against live weights makes the k cap a soft limit and
      // the balance constraint a hard one.
      if (options_.apply_time_balance_check) {
        const double avg = aux->AverageWeight();
        const double w = g.VertexWeight(c.vertex);
        if ((aux->PartitionWeight(c.target) + w) / avg >= options_.beta) {
          continue;
        }
        if ((aux->PartitionWeight(p) - w) / avg < 2.0 - options_.beta) {
          continue;
        }
      }
      // Logical migration: only auxiliary data and the directory move.
      aux->OnVertexMigrated(g, c.vertex, p, c.target);
      asg->Assign(c.vertex, c.target);
      ++moves;
    }
  }
  return moves;
}

std::size_t LightweightRepartitioner::RunIteration(const Graph& g,
                                                   PartitionAssignment* asg,
                                                   AuxiliaryData* aux) const {
  if (!options_.two_stage) {
    // Ablation: one bidirectional stage per iteration (stage index 0 means
    // no direction filter in GetTargetPartition).
    return RunStage(g, 0, asg, aux);
  }
  std::size_t moves = RunStage(g, 1, asg, aux);
  moves += RunStage(g, 2, asg, aux);
  return moves;
}

RepartitionResult LightweightRepartitioner::Run(const Graph& g,
                                                PartitionAssignment* asg,
                                                AuxiliaryData* aux) const {
  auto& registry = MetricsRegistry::Global();
  ScopedTimer timer(registry.GetHistogram("repartitioner.run"));
  Counter* const m_iterations =
      registry.GetCounter("repartitioner.iterations");
  Counter* const m_moves = registry.GetCounter("repartitioner.logical_moves");
  Counter* const m_aux_bytes =
      registry.GetCounter("repartitioner.aux_bytes_exchanged");
  Histogram* const m_iteration_moves =
      registry.GetHistogram("repartitioner.iteration_moves");

  RepartitionResult result;
  const PartitionAssignment initial = *asg;
  result.initial_edge_cut_fraction = EdgeCutFraction(g, *asg);
  result.initial_imbalance = AuxImbalance(*aux);

  std::size_t best_cut = EdgeCut(g, *asg);
  double best_imbalance = AuxImbalance(*aux);
  std::size_t stalled_iterations = 0;
  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    if (options_.iteration_hook_for_test) options_.iteration_hook_for_test();
    const std::size_t moves = RunIteration(g, asg, aux);
    ++result.iterations;
    result.total_logical_moves += moves;
    result.moves_per_iteration.push_back(moves);
    const std::size_t alpha = asg->num_partitions();
    // A zero-move iteration changes no partition weight, so nothing is
    // broadcast; the convergence-detecting final iteration costs no bytes.
    std::size_t iter_bytes =
        moves * (alpha * sizeof(std::uint32_t) + sizeof(double));
    if (moves > 0) iter_bytes += alpha * (alpha - 1) * sizeof(double);
    result.aux_bytes_exchanged += iter_bytes;
    m_iterations->Increment();
    m_moves->Increment(moves);
    m_aux_bytes->Increment(iter_bytes);
    m_iteration_moves->Record(moves);
    const std::size_t cut = EdgeCut(g, *asg);
    result.edge_cut_history.push_back(cut);
    if (moves == 0) {
      result.converged = true;
      break;
    }
    // Quiescence detection (see RepartitionerOptions::quiescence_window):
    // an iteration counts as progress when it improves either objective —
    // the imbalance factor or the edge-cut.
    bool improved = false;
    const double imbalance = AuxImbalance(*aux);
    if (imbalance < best_imbalance - 1e-12) {
      best_imbalance = imbalance;
      improved = true;
    }
    if (cut < best_cut) {
      best_cut = cut;
      improved = true;
    }
    if (options_.quiescence_window > 0) {
      if (improved) {
        stalled_iterations = 0;
      } else if (++stalled_iterations >= options_.quiescence_window) {
        result.converged = true;
        break;
      }
    }
  }

  result.final_edge_cut_fraction = EdgeCutFraction(g, *asg);
  result.final_imbalance = AuxImbalance(*aux);
  for (VertexId v = 0; v < asg->size(); ++v) {
    if (initial.PartitionOf(v) != asg->PartitionOf(v)) {
      result.net_moves.push_back(
          MigrationRecord{v, initial.PartitionOf(v), asg->PartitionOf(v)});
    }
  }
  return result;
}

}  // namespace hermes
