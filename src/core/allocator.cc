#include "core/allocator.h"

#include <algorithm>
#include <sstream>

#include "core/compute_load.h"
#include "core/normalize.h"
#include "core/prepared.h"
#include "obs/catalog.h"
#include "obs/trace.h"
#include "util/check.h"

namespace nlarm::core {

void AllocationRequest::validate() const {
  NLARM_CHECK(nprocs > 0) << "request needs at least one process";
  NLARM_CHECK(ppn >= 0) << "negative ppn";
  job.validate();
  compute_weights.validate();
  network_weights.validate();
}

void annotate_allocation(Allocation& allocation,
                         const monitor::ClusterSnapshot& snapshot) {
  if (allocation.nodes.empty()) return;
  double load_sum = 0.0;
  for (cluster::NodeId id : allocation.nodes) {
    const auto idx = static_cast<std::size_t>(id);
    NLARM_CHECK(idx < snapshot.nodes.size()) << "node out of snapshot";
    load_sum += snapshot.nodes[idx].cpu_load_avg.one_min;
  }
  allocation.avg_cpu_load =
      load_sum / static_cast<double>(allocation.nodes.size());

  // A snapshot without pairwise matrices (tiled benches feed pair data
  // through a PairSource instead) has no network diagnostics to annotate.
  if (snapshot.net.latency_us.empty()) return;

  // Walks the FlatMatrix views directly with one row-pointer hoist per
  // outer node; same reads and accumulation order as the former per-pair
  // pair_metrics() calls, so diagnostics are unchanged bit for bit.
  const util::FlatMatrix& lat_m = snapshot.net.latency_us;
  const util::FlatMatrix& bw_m = snapshot.net.bandwidth_mbps;
  const util::FlatMatrix& peak_m = snapshot.net.peak_mbps;
  const auto matrix_size = static_cast<std::size_t>(snapshot.net.size());
  double lat_sum = 0.0;
  double comp_sum = 0.0;
  std::size_t lat_pairs = 0;
  std::size_t comp_pairs = 0;
  for (std::size_t i = 0; i < allocation.nodes.size(); ++i) {
    const auto ui = static_cast<std::size_t>(allocation.nodes[i]);
    NLARM_CHECK(ui < matrix_size) << "pair out of snapshot";
    const double* lat_row = lat_m[ui];
    const double* bw_row = bw_m[ui];
    const double* peak_row = peak_m[ui];
    for (std::size_t j = i + 1; j < allocation.nodes.size(); ++j) {
      const auto vj = static_cast<std::size_t>(allocation.nodes[j]);
      NLARM_CHECK(vj < matrix_size) << "pair out of snapshot";
      const double lat = lat_row[vj];
      if (lat >= 0.0) {
        lat_sum += lat;
        ++lat_pairs;
      }
      const double bw = bw_row[vj];
      const double peak = peak_row[vj];
      const double comp =
          (bw < 0.0 || peak < 0.0) ? -1.0 : std::max(0.0, peak - bw);
      if (comp >= 0.0) {
        comp_sum += comp;
        ++comp_pairs;
      }
    }
  }
  allocation.avg_latency_us =
      lat_pairs > 0 ? lat_sum / static_cast<double>(lat_pairs) : 0.0;
  allocation.avg_bw_complement_mbps =
      comp_pairs > 0 ? comp_sum / static_cast<double>(comp_pairs) : 0.0;
}

std::string to_hostfile(const Allocation& allocation,
                        const monitor::ClusterSnapshot& snapshot) {
  std::ostringstream out;
  for (std::size_t i = 0; i < allocation.nodes.size(); ++i) {
    const auto id = static_cast<std::size_t>(allocation.nodes[i]);
    NLARM_CHECK(id < snapshot.nodes.size()) << "node out of snapshot";
    out << snapshot.nodes[id].spec.hostname << ":"
        << allocation.procs_per_node[i] << "\n";
  }
  return out.str();
}

namespace detail {

Allocation allocate_working_set(std::span<const double> cl,
                                const util::FlatMatrix& nl,
                                std::span<const int> pc,
                                std::span<const cluster::NodeId> nodes,
                                const monitor::ClusterSnapshot& snapshot,
                                const AllocationRequest& request,
                                std::span<const std::size_t> starts,
                                const GenerationOptions& options,
                                const char* policy, AllocStats& stats,
                                SelectionResult* selection) {
  obs::ScopedSpan generate_span("alloc.generate",
                                &obs::metrics::alloc_generate_seconds());
  std::vector<Candidate> candidates = generate_all_candidates(
      cl, nl, pc, request.nprocs, request.job, starts, options);
  stats.generate_seconds = generate_span.stop();
  stats.candidates_generated = candidates.size();
  obs::metrics::alloc_candidates_generated().inc(candidates.size());

  obs::ScopedSpan select_span("alloc.select",
                              &obs::metrics::alloc_select_seconds());
  SelectionResult result =
      select_best_candidate(std::move(candidates), cl, nl, request.job);
  stats.select_seconds = select_span.stop();

  const ScoredCandidate& best = result.scored[result.best_index];
  stats.compute_cost = best.compute_cost;
  stats.network_cost = best.network_cost;
  Allocation allocation;
  allocation.policy = policy;
  allocation.total_procs = request.nprocs;
  allocation.total_cost = best.total_cost;
  for (std::size_t i = 0; i < best.candidate.members.size(); ++i) {
    allocation.nodes.push_back(nodes[best.candidate.members[i]]);
    allocation.procs_per_node.push_back(best.candidate.procs[i]);
  }
  annotate_allocation(allocation, snapshot);
  if (selection != nullptr) *selection = std::move(result);
  return allocation;
}

}  // namespace detail

Allocation NetworkLoadAwareAllocator::allocate(
    const monitor::ClusterSnapshot& snapshot,
    const AllocationRequest& request) {
  request.validate();
  obs::metrics::alloc_requests().inc();
  stats_ = AllocStats{};
  obs::ScopedSpan total_span("alloc.total",
                             &obs::metrics::alloc_total_seconds());

  // Unit-mean rescaling puts node costs and pair costs on a common scale so
  // α/β trade them off as intended (see rescale_unit_mean). NL goes through
  // the canonical pipeline shared with the epoch builder and the reference
  // path (core/prepared.h).
  obs::ScopedSpan prepare_span("alloc.prepare",
                               &obs::metrics::alloc_prepare_seconds());
  last_node_set_ = snapshot.usable_nodes();
  NLARM_CHECK(!last_node_set_.empty()) << "no usable nodes in snapshot";
  const std::vector<double> cl = rescale_unit_mean(
      compute_loads(snapshot, last_node_set_, request.compute_weights));
  util::FlatMatrix nl;
  prepared_network_loads(snapshot, last_node_set_, request.network_weights,
                         nl);
  const std::vector<int> pc =
      effective_process_counts(snapshot, last_node_set_, request.ppn);
  stats_.prepare_seconds = prepare_span.stop();
  stats_.usable_nodes = last_node_set_.size();

  Allocation allocation = detail::allocate_working_set(
      cl, nl, pc, last_node_set_, snapshot, request, /*starts=*/{},
      generation_options_, "network-load-aware", stats_, &last_selection_);
  stats_.total_seconds = total_span.stop();
  stats_.valid = true;
  return allocation;
}

}  // namespace nlarm::core
