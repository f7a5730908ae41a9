#include "core/reference.h"

#include <algorithm>

#include "core/compute_load.h"
#include "core/normalize.h"
#include "core/prepared.h"
#include "util/check.h"

namespace nlarm::core::reference {

Candidate generate_candidate(std::size_t start, std::span<const double> cl,
                             const util::FlatMatrix& nl,
                             std::span<const int> pc, int nprocs,
                             const JobWeights& job) {
  job.validate();
  const std::size_t count = cl.size();
  NLARM_CHECK(start < count) << "start index out of range";
  NLARM_CHECK(nl.size() == count && pc.size() == count)
      << "cl/nl/pc size mismatch";

  // Addition costs A_v(u) of the other nodes; the start node is member 0
  // and the rest follow in (cost, index) order.
  std::vector<double> addition(count);
  for (std::size_t u = 0; u < count; ++u) {
    addition[u] = job.alpha * cl[u] + job.beta * nl[start][u];
  }

  std::vector<std::size_t> order{start};
  for (std::size_t u = 0; u < count; ++u) {
    if (u != start) order.push_back(u);
  }
  std::stable_sort(order.begin() + 1, order.end(),
                   [&addition](std::size_t a, std::size_t b) {
                     return addition[a] < addition[b];
                   });

  FillResult fill = fill_processes(order, pc, nprocs);
  Candidate candidate;
  candidate.start_index = start;
  candidate.members = std::move(fill.members);
  candidate.procs = std::move(fill.procs);
  candidate.total_procs = nprocs;
  return candidate;
}

std::vector<Candidate> generate_all_candidates(std::span<const double> cl,
                                               const util::FlatMatrix& nl,
                                               std::span<const int> pc,
                                               int nprocs,
                                               const JobWeights& job) {
  std::vector<Candidate> candidates;
  candidates.reserve(cl.size());
  for (std::size_t start = 0; start < cl.size(); ++start) {
    candidates.push_back(
        reference::generate_candidate(start, cl, nl, pc, nprocs, job));
  }
  return candidates;
}

SelectionResult select_best_candidate(std::vector<Candidate> candidates,
                                      std::span<const double> cl,
                                      const util::FlatMatrix& nl,
                                      const JobWeights& job) {
  job.validate();
  NLARM_CHECK(!candidates.empty()) << "no candidates to select from";

  SelectionResult result;
  result.scored.reserve(candidates.size());
  double compute_sum = 0.0;
  double network_sum = 0.0;
  for (Candidate& candidate : candidates) {
    ScoredCandidate scored;
    scored.candidate = std::move(candidate);
    const CandidateCosts costs =
        candidate_costs(scored.candidate.members, cl, nl);
    scored.compute_cost = costs.compute;
    scored.network_cost = costs.network;
    compute_sum += scored.compute_cost;
    network_sum += scored.network_cost;
    result.scored.push_back(std::move(scored));
  }

  double best = 0.0;
  bool have_best = false;
  for (std::size_t i = 0; i < result.scored.size(); ++i) {
    ScoredCandidate& scored = result.scored[i];
    const double c_norm =
        compute_sum > 0.0 ? scored.compute_cost / compute_sum : 0.0;
    const double n_norm =
        network_sum > 0.0 ? scored.network_cost / network_sum : 0.0;
    scored.total_cost = job.alpha * c_norm + job.beta * n_norm;
    if (!have_best || scored.total_cost < best) {
      best = scored.total_cost;
      result.best_index = i;
      have_best = true;
    }
  }
  return result;
}

Allocation allocate(const monitor::ClusterSnapshot& snapshot,
                    const AllocationRequest& request) {
  request.validate();
  const std::vector<cluster::NodeId> usable = snapshot.usable_nodes();
  NLARM_CHECK(!usable.empty()) << "no usable nodes in snapshot";

  const std::vector<double> cl = rescale_unit_mean(
      compute_loads(snapshot, usable, request.compute_weights));
  // Same canonical NL pipeline as the fast allocator and the epoch builder,
  // so the equivalence suite compares like with like bit for bit.
  util::FlatMatrix nl;
  prepared_network_loads(snapshot, usable, request.network_weights, nl);
  const std::vector<int> pc =
      effective_process_counts(snapshot, usable, request.ppn);

  std::vector<Candidate> candidates = reference::generate_all_candidates(
      cl, nl, pc, request.nprocs, request.job);
  const SelectionResult selection = reference::select_best_candidate(
      std::move(candidates), cl, nl, request.job);

  const ScoredCandidate& winner = selection.scored[selection.best_index];
  Allocation allocation;
  allocation.policy = "network-load-aware";
  allocation.total_procs = request.nprocs;
  allocation.total_cost = winner.total_cost;
  for (std::size_t i = 0; i < winner.candidate.members.size(); ++i) {
    allocation.nodes.push_back(usable[winner.candidate.members[i]]);
    allocation.procs_per_node.push_back(winner.candidate.procs[i]);
  }
  annotate_allocation(allocation, snapshot);
  return allocation;
}

}  // namespace nlarm::core::reference
