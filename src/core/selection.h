// Algorithm 2: best-candidate selection.
//
// Each candidate's total compute cost C_Gv = Σ CL over members and total
// network cost N_Gv = Σ NL over sub-graph edges are normalized by their sums
// across all candidates; the candidate minimizing
// T_Gv = α·C_norm + β·N_norm wins.
//
// Raw costs are defined over the canonical ascending member order (see
// candidate_costs), so candidates with identical member sets always carry
// bit-identical raw costs. Scoring reuses the costs generation attaches and
// walks candidate_costs once for a candidate that arrives without them.
#pragma once

#include <span>
#include <vector>

#include "core/candidate.h"
#include "core/weights.h"
#include "util/flat_matrix.h"

namespace nlarm::core {

struct ScoredCandidate {
  Candidate candidate;
  double compute_cost = 0.0;  ///< C_Gv (raw)
  double network_cost = 0.0;  ///< N_Gv (raw)
  double total_cost = 0.0;    ///< T_Gv (after cross-candidate normalization)
};

/// Scores all candidates and returns them plus the index of the winner
/// (minimum T_Gv; ties broken by smaller start index). The scored list
/// keeps every input candidate (duplicates included) in input order.
struct SelectionResult {
  std::vector<ScoredCandidate> scored;
  std::size_t best_index = 0;
};
SelectionResult select_best_candidate(std::vector<Candidate> candidates,
                                      std::span<const double> cl,
                                      const util::FlatMatrix& nl,
                                      const JobWeights& job);

}  // namespace nlarm::core
