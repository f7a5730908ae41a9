#include "core/selection.h"

#include "util/check.h"

namespace nlarm::core {

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
    if (scored.candidate.has_costs) {
      scored.compute_cost = scored.candidate.compute_cost;
      scored.network_cost = scored.candidate.network_cost;
    } else {
      const CandidateCosts costs =
          candidate_costs(scored.candidate.members, cl, nl);
      scored.compute_cost = costs.compute;
      scored.network_cost = costs.network;
    }
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

}  // namespace nlarm::core
