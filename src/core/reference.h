// Reference (pre-fast-path) implementations of Algorithms 1 + 2, retained
// verbatim in spirit for the golden-equivalence property test: the start
// node first and a stable_sort of the other |V|−1 nodes per start, a fresh
// O(k²) cost walk per candidate during selection, no parallelism, no
// memoization.
//
// The only machinery shared with the optimized path is candidate_costs(),
// which *defines* the raw cost of a member set (canonical ascending order);
// both paths must agree with it bit-for-bit, so it is the common ground
// truth rather than an optimization.
#pragma once

#include <span>
#include <vector>

#include "core/allocator.h"
#include "core/candidate.h"
#include "core/selection.h"
#include "core/weights.h"
#include "monitor/snapshot.h"
#include "util/flat_matrix.h"

namespace nlarm::core::reference {

/// Algorithm 1 for one start node: the start node first, then every other
/// node stable-sorted by addition cost, then the process fill. Never
/// attaches generation-time costs.
Candidate generate_candidate(std::size_t start, std::span<const double> cl,
                             const util::FlatMatrix& nl,
                             std::span<const int> pc, int nprocs,
                             const JobWeights& job);

/// All |V| candidates, strictly serial.
std::vector<Candidate> generate_all_candidates(std::span<const double> cl,
                                               const util::FlatMatrix& nl,
                                               std::span<const int> pc,
                                               int nprocs,
                                               const JobWeights& job);

/// Algorithm 2 with a full cost walk per candidate (no reuse of
/// generation-time costs).
SelectionResult select_best_candidate(std::vector<Candidate> candidates,
                                      std::span<const double> cl,
                                      const util::FlatMatrix& nl,
                                      const JobWeights& job);

/// The whole pipeline end to end with none of the fast paths: inputs are
/// prepared from scratch on every call.
Allocation allocate(const monitor::ClusterSnapshot& snapshot,
                    const AllocationRequest& request);

}  // namespace nlarm::core::reference
