// The public allocator API: requests, allocations, the Allocator interface
// and the paper's network-and-load-aware implementation.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/selection.h"
#include "core/weights.h"
#include "monitor/snapshot.h"

namespace nlarm::core {

/// A user's node request (§3.3: "User specifies the total number of
/// processes and process count per node (optionally)").
struct AllocationRequest {
  int nprocs = 1;
  int ppn = 0;  ///< processes per node; 0 = derive from Eq. 3
  JobWeights job;                     ///< α/β (Eq. 4)
  ComputeLoadWeights compute_weights; ///< Eq. 1 weights
  NetworkLoadWeights network_weights; ///< Eq. 2 weights

  void validate() const;
};

/// Result of an allocation. `nodes`/`procs_per_node` are parallel; procs sum
/// to the requested count. Diagnostics mirror Table 4 of the paper.
struct Allocation {
  std::string policy;
  std::vector<cluster::NodeId> nodes;
  std::vector<int> procs_per_node;
  int total_procs = 0;

  // Diagnostics over the allocated group at allocation time:
  double avg_cpu_load = 0.0;             ///< mean 1-min CPU load
  double avg_bw_complement_mbps = 0.0;   ///< mean (peak − available) over pairs
  double avg_latency_us = 0.0;           ///< mean P2P latency over pairs
  double total_cost = 0.0;               ///< T_Gv for the winning candidate

  int node_count() const { return static_cast<int>(nodes.size()); }
};

/// Fills the Allocation diagnostics from the snapshot the decision was made
/// on. Unmeasured pairs are skipped in the averages.
void annotate_allocation(Allocation& allocation,
                         const monitor::ClusterSnapshot& snapshot);

/// Renders an MPI machinefile ("hostname:slots" lines) for the allocation.
std::string to_hostfile(const Allocation& allocation,
                        const monitor::ClusterSnapshot& snapshot);

/// Observability record of the last allocate() call: working-set size,
/// winning costs and per-stage wall times. Consumed by the broker's
/// decision audit.
struct AllocStats {
  bool valid = false;  ///< set once allocate() has run
  std::size_t usable_nodes = 0;
  std::uint64_t candidates_generated = 0;
  double compute_cost = 0.0;  ///< C_Gv of the winning candidate
  double network_cost = 0.0;  ///< N_Gv of the winning candidate
  double prepare_seconds = 0.0;
  double generate_seconds = 0.0;
  double select_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Allocation policy interface. Implementations must be deterministic given
/// their construction-time seed and the snapshot.
class Allocator {
 public:
  virtual ~Allocator() = default;
  virtual std::string name() const = 0;

  /// Chooses nodes for the request. Throws CheckError if the snapshot has
  /// no usable nodes.
  virtual Allocation allocate(const monitor::ClusterSnapshot& snapshot,
                              const AllocationRequest& request) = 0;

  /// Stats for the last allocate() call; null for policies that don't
  /// instrument themselves (the baselines).
  virtual const AllocStats* last_stats() const { return nullptr; }
};

/// The paper's contribution: Algorithms 1 + 2 over monitored compute and
/// network load.
///
/// The one-shot classic path: every allocate() prepares the normalized CL
/// vector, NL matrix and pc vector from the snapshot it is handed, O(V²),
/// and keeps nothing between calls, so a caller may pass snapshots that
/// share a version but not a node set (JobQueue's reservation views).
/// Serving many requests against one monitored state goes through a
/// PreparedBuilder epoch and allocate_prepared() instead (core/prepared.h).
class NetworkLoadAwareAllocator : public Allocator {
 public:
  std::string name() const override { return "network-load-aware"; }
  Allocation allocate(const monitor::ClusterSnapshot& snapshot,
                      const AllocationRequest& request) override;

  /// Controls the candidate-generation fan-out (see GenerationOptions).
  void set_generation_options(const GenerationOptions& options) {
    generation_options_ = options;
  }
  const GenerationOptions& generation_options() const {
    return generation_options_;
  }

  /// Full scoring detail of the last allocate() call (for analysis benches).
  const SelectionResult& last_selection() const { return last_selection_; }
  const std::vector<cluster::NodeId>& last_node_set() const {
    return last_node_set_;
  }

  const AllocStats* last_stats() const override {
    return stats_.valid ? &stats_ : nullptr;
  }

 private:
  GenerationOptions generation_options_;
  SelectionResult last_selection_;
  std::vector<cluster::NodeId> last_node_set_;
  AllocStats stats_;
};

namespace detail {

/// Algorithms 1+2 over prepared working-set inputs: the one scoring core
/// behind allocate(), allocate_prepared(), allocate_two_phase() and the
/// hierarchical allocator's sampled mode. `cl`, `nl` and `pc` cover
/// positions 0..n-1 and `nodes[i]` is position i's NodeId. Generates one
/// candidate per start (every position, or only `starts` when non-empty),
/// selects the winner, maps it to NodeIds and annotates it from
/// `snapshot`. Fills the generate/select fields of `stats` and observes
/// the alloc generate/select series; the caller owns the request counter,
/// the total span and the remaining stats fields. `selection`, when given,
/// receives the full scoring detail.
Allocation allocate_working_set(std::span<const double> cl,
                                const util::FlatMatrix& nl,
                                std::span<const int> pc,
                                std::span<const cluster::NodeId> nodes,
                                const monitor::ClusterSnapshot& snapshot,
                                const AllocationRequest& request,
                                std::span<const std::size_t> starts,
                                const GenerationOptions& options,
                                const char* policy, AllocStats& stats,
                                SelectionResult* selection = nullptr);

}  // namespace detail

}  // namespace nlarm::core
