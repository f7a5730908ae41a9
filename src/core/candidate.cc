#include "core/candidate.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "core/prepared.h"
#include "obs/catalog.h"
#include "util/check.h"
#include "util/logging.h"

namespace nlarm::core {

namespace {

/// Strict total order on (addition cost, index). Equivalent to the original
/// stable_sort with an index tie-break: indices are unique, so the key is a
/// total order and any correct sort produces the same permutation.
struct AdditionOrder {
  std::span<const double> addition;
  bool operator()(std::size_t a, std::size_t b) const {
    if (addition[a] != addition[b]) return addition[a] < addition[b];
    return a < b;
  }
};

}  // namespace

CandidateCosts candidate_costs(std::span<const std::size_t> members,
                               std::span<const double> cl,
                               const util::FlatMatrix& nl) {
  thread_local std::vector<std::size_t> sorted;
  sorted.assign(members.begin(), members.end());
  std::sort(sorted.begin(), sorted.end());
  CandidateCosts costs;
  for (std::size_t t = 0; t < sorted.size(); ++t) {
    const std::size_t m = sorted[t];
    NLARM_CHECK(m < cl.size()) << "member out of cl range";
    costs.compute += cl[m];
    const double* row = nl[m];  // NL is symmetric; one row walk per member
    for (std::size_t i = 0; i < t; ++i) {
      costs.network += row[sorted[i]];
    }
  }
  return costs;
}

FillResult fill_processes(std::span<const std::size_t> order,
                          std::span<const int> pc, int nprocs) {
  NLARM_CHECK(nprocs > 0) << "request must ask for at least one process";
  NLARM_CHECK(!order.empty()) << "no nodes to fill";
  FillResult result;
  int remaining = nprocs;
  for (std::size_t idx : order) {
    if (remaining <= 0) break;
    NLARM_CHECK(idx < pc.size()) << "order index out of pc range";
    NLARM_CHECK(pc[idx] >= 0) << "node with negative capacity " << pc[idx];
    if (pc[idx] == 0) continue;  // drained by a batch debit; never a member
    const int take = std::min(pc[idx], remaining);
    result.members.push_back(idx);
    result.procs.push_back(take);
    remaining -= take;
  }
  NLARM_CHECK(!result.members.empty())
      << "no node in the candidate prefix has capacity left";
  // Round-robin overflow (Algorithm 1 lines 12–13): the request exceeds the
  // cluster's effective capacity, so the rest is spread one process at a
  // time over the selected nodes.
  if (remaining > 0) {
    obs::metrics::alloc_fill_overflows().inc();
    NLARM_DEBUG << "candidate fill overflow: " << remaining << " of "
                << nprocs << " process(es) beyond capacity, oversubscribing "
                << result.members.size() << " node(s) round-robin";
  }
  std::size_t cursor = 0;
  while (remaining > 0) {
    result.procs[cursor] += 1;
    --remaining;
    cursor = (cursor + 1) % result.procs.size();
  }
  return result;
}

Candidate generate_candidate(std::size_t start, std::span<const double> cl,
                             const util::FlatMatrix& nl,
                             std::span<const int> pc, int nprocs,
                             const JobWeights& job) {
  job.validate();
  const std::size_t count = cl.size();
  NLARM_CHECK(start < count) << "start index out of range";
  NLARM_CHECK(nl.size() == count && pc.size() == count)
      << "cl/nl/pc size mismatch";
  NLARM_CHECK(nprocs > 0) << "request must ask for at least one process";
  NLARM_CHECK(pc[start] > 0) << "start node has no capacity left";

  // Scratch reused across start nodes and requests (one copy per thread, so
  // the parallel fan-out needs no coordination).
  thread_local std::vector<double> addition;
  thread_local std::vector<std::uint16_t> bucket;
  thread_local std::vector<std::size_t> order;

  // Addition costs A_v(u) = α·CL(u) + β·NL(v,u), vectorized over the
  // contiguous NL row (AVX2/NEON behind runtime dispatch, bit-identical to
  // the scalar loop — see core/prepared.h). The start node's own entry is
  // never read: it is member 0 by construction.
  addition.resize(count);
  simd::score_addition_row(job.alpha, cl, nl[start], job.beta, addition);

  // Cost range of the nodes the fill can take (u ≠ start, pc[u] > 0). The
  // kernel only flags a negative capacity; the rescan names the first one.
  const simd::CostRange range = simd::cost_range(addition, pc, start);
  if (range.negative_capacity) {
    for (std::size_t u = 0; u < count; ++u) {
      NLARM_CHECK(pc[u] >= 0) << "node with negative capacity " << pc[u];
    }
  }
  double scale = range.hi > range.lo
                     ? static_cast<double>(simd::kCostBuckets - 1) /
                           (range.hi - range.lo)
                     : 0.0;
  if (!std::isfinite(scale)) scale = 0.0;

  // Capacity per cost bucket. b(u) never decreases as A_v(u) grows (rounded
  // subtraction and scaling by a positive constant are monotone), so every
  // node of the minimal covering prefix lies at or below the first bucket
  // whose running capacity covers the request. The start node and drained
  // nodes get the sentinel kCostBuckets and never survive. Consecutive
  // nodes add into four interleaved sub-histograms, so a run of nodes in one
  // bucket does not serialize on a single counter; the sentinel has a slot
  // of its own.
  bucket.resize(count);
  simd::bucket_codes(addition, pc, start, range.lo, scale, bucket);
  std::array<std::array<std::int64_t, simd::kCostBuckets + 1>, 4> capacity{};
  std::size_t u = 0;
  for (; u + 4 <= count; u += 4) {
    capacity[0][bucket[u]] += pc[u];
    capacity[1][bucket[u + 1]] += pc[u + 1];
    capacity[2][bucket[u + 2]] += pc[u + 2];
    capacity[3][bucket[u + 3]] += pc[u + 3];
  }
  for (; u < count; ++u) capacity[0][bucket[u]] += pc[u];
  // Buckets [0, keep) survive: none when the start alone covers the request,
  // all when the cluster never does (the round-robin overflow case).
  std::int64_t covered = pc[start];
  std::size_t keep = 0;
  for (; covered < nprocs && keep < simd::kCostBuckets; ++keep) {
    covered += capacity[0][keep] + capacity[1][keep] + capacity[2][keep] +
               capacity[3][keep];
  }

  // Survivors: the start node, then the rest in (cost, index) order.
  order.assign(1, start);
  simd::collect_survivors(bucket, keep, order);
  std::sort(order.begin() + 1, order.end(), AdditionOrder{addition});

  FillResult fill = fill_processes(order, pc, nprocs);
  Candidate candidate;
  candidate.start_index = start;
  candidate.members = std::move(fill.members);
  candidate.procs = std::move(fill.procs);
  candidate.total_procs = nprocs;
  const CandidateCosts costs = candidate_costs(candidate.members, cl, nl);
  candidate.compute_cost = costs.compute;
  candidate.network_cost = costs.network;
  candidate.has_costs = true;
  return candidate;
}

std::vector<Candidate> generate_all_candidates(
    std::span<const double> cl, const util::FlatMatrix& nl,
    std::span<const int> pc, int nprocs, const JobWeights& job,
    std::span<const std::size_t> starts, const GenerationOptions& options) {
  const std::size_t count = starts.empty() ? cl.size() : starts.size();
  std::vector<Candidate> candidates(count);
  const auto generate = [&](std::size_t i) {
    const std::size_t start = starts.empty() ? i : starts[i];
    candidates[i] = generate_candidate(start, cl, nl, pc, nprocs, job);
  };
  const bool parallel =
      options.parallel_threshold >= 0 &&
      count >= static_cast<std::size_t>(options.parallel_threshold) &&
      count > 1;
  if (!parallel) {
    for (std::size_t i = 0; i < count; ++i) generate(i);
    return candidates;
  }
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::ThreadPool::shared();
  pool.parallel_for(count, generate);
  return candidates;
}

}  // namespace nlarm::core
