// Algorithm 1: candidate sub-graph generation.
//
// For a start node v, every other node u is scored with the addition cost
// A_v(u) = α·CL(u) + β·NL(v,u); v is member 0 and the other nodes follow in
// (addition cost, index) order until the requested process count is
// covered, and any shortfall (cluster smaller than the request) is assigned
// round-robin.
//
// Fast path: the fill only reaches the cheapest nodes whose capacity covers
// the request, so generation sorts just those. A capacity-weighted bucket
// select maps each positive-capacity node to one of 256 buckets spanning
// the row's cost range, keeps the buckets up to the first whose running
// capacity covers the request (all of them when the cluster never does),
// and sorts the few survivors. The bucket map is monotone in the cost, so
// the survivors contain the whole covering prefix; the (cost, index) key is
// a strict total order, so their sort reproduces the full stable_sort
// prefix exactly. The select's three O(V) passes per start (cost range,
// bucket codes, survivor scan) are SIMD kernels with scalar references
// (core::simd in core/prepared.h); they compute integers and exact min/max
// values, so every kernel gives its reference's result.
#pragma once

#include <span>
#include <vector>

#include "core/weights.h"
#include "util/flat_matrix.h"
#include "util/thread_pool.h"

namespace nlarm::core {

/// A candidate sub-graph. All indices are positions in the working node set
/// the costs were computed over (not raw NodeIds).
struct Candidate {
  std::size_t start_index = 0;
  std::vector<std::size_t> members;  ///< in selection order, starts with start_index
  std::vector<int> procs;            ///< processes assigned per member; sums to n
  int total_procs = 0;

  // Raw Algorithm-2 costs, accumulated during generation over the canonical
  // (ascending-index) member order so identical member sets always produce
  // bit-identical values. Selection skips its own cost walk when
  // `has_costs` is set.
  double compute_cost = 0.0;  ///< C_Gv = Σ CL over members
  double network_cost = 0.0;  ///< N_Gv = Σ NL over sub-graph edges
  bool has_costs = false;
};

/// Raw candidate costs over the canonical ascending member order: members
/// are sorted by index, then each member's CL and its NL edges to the
/// already-added members are accumulated incrementally. One definition
/// shared by generation, selection and the retained reference path keeps
/// the three bit-identical.
struct CandidateCosts {
  double compute = 0.0;
  double network = 0.0;
};
CandidateCosts candidate_costs(std::span<const std::size_t> members,
                               std::span<const double> cl,
                               const util::FlatMatrix& nl);

/// Distributes `nprocs` over the prefix of `order` using per-node capacity
/// `pc` (Algorithm 1 lines 8–14): nodes are consumed in order until the
/// request is covered; if capacity runs out, the remainder is handed out
/// round-robin one process at a time. Zero-capacity nodes (batch admission
/// debits capacities down to 0) are skipped, never oversubscribed.
struct FillResult {
  std::vector<std::size_t> members;
  std::vector<int> procs;
};
FillResult fill_processes(std::span<const std::size_t> order,
                          std::span<const int> pc, int nprocs);

/// Generates the candidate sub-graph G_v for start index `start`.
/// `cl` is the CL vector, `nl` the NL matrix, `pc` the effective process
/// counts — all over the same working node set.
Candidate generate_candidate(std::size_t start, std::span<const double> cl,
                             const util::FlatMatrix& nl,
                             std::span<const int> pc, int nprocs,
                             const JobWeights& job);

/// Controls how generate_all_candidates fans out over start nodes.
struct GenerationOptions {
  /// Fan out across the thread pool when the working set has at least this
  /// many nodes; below it the per-request fork-join overhead outweighs the
  /// win. Negative disables parallelism entirely.
  int parallel_threshold = 192;
  /// Pool to fan out on; nullptr uses ThreadPool::shared(). Epoch decides
  /// pass the broker's refresh pool, and run serially when it has none
  /// (ResourceBroker::set_refresh_threads).
  util::ThreadPool* pool = nullptr;
};

/// One candidate per entry of `starts` (working-set positions, each with
/// pc > 0), in `starts` order; an empty `starts` means all |V| positions in
/// index order. Batch admission passes `starts` to only start from nodes
/// with remaining capacity. Results are bit-identical whether generated
/// serially or in parallel (each start node writes only its own slot).
std::vector<Candidate> generate_all_candidates(
    std::span<const double> cl, const util::FlatMatrix& nl,
    std::span<const int> pc, int nprocs, const JobWeights& job,
    std::span<const std::size_t> starts = {},
    const GenerationOptions& options = {});

}  // namespace nlarm::core
