// Staleness-aware degradation of monitor snapshots (the consumer side of
// MonitorStore's record timestamps).
//
// The paper's monitor keeps serving whatever NFS holds; nothing downstream
// reacts to how old that data is. This layer closes the gap on the
// allocator side: before a snapshot becomes a prepared epoch, the Degrader
// rewrites it according to per-record staleness —
//
//   * nodes whose NodeStateD record exceeds the staleness budget are
//     quarantined out of the usable set (livehosts forced false), with
//     two-threshold hysteresis so a node flapping around the budget does
//     not thrash the working set;
//   * pairs whose P2P probes exceed their budget fall back to the 5-minute
//     running mean with a pessimism penalty (stale data is trusted less);
//   * everything fresh passes through bit-identically.
//
// The rewrite is a snapshot copy that shares the input's pair matrices
// (util::FlatMatrix is copy-on-write) and clones only the two it rewrites,
// latency_us and bandwidth_mbps, when some pair is on the fallback.
//
// Finding the pairs that crossed the budget does not scan all V² pairs on
// every refresh. Every pair ages at the same rate, so measured pairs cross
// the budget in the order of their last write time. The Degrader keeps its
// fresh pairs in a queue ordered by that time: a delta refresh re-derives
// the delta's dirty pairs from their new write times and pops the queue
// front that aged past the budget — O(V + dirty + crossings). Whenever the
// delta does not chain onto the previous refresh, it walks every pair and
// rebuilds the queue.
//
// Both the fast path and the reference allocator consume the SAME degraded
// snapshot, so the bit-identity equivalence contract survives degradation
// untouched. The Degrader is stateful (hysteresis, change tracking) and
// owner-thread only, like PreparedBuilder; ResourceBroker drives it under
// its refresh lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/node.h"
#include "monitor/snapshot.h"
#include "monitor/snapshot_delta.h"
#include "monitor/store.h"

namespace nlarm::core {

struct DegradationPolicy {
  /// Quarantine a node once its record is older than this.
  double node_staleness_budget_s = 30.0;
  /// Hysteresis: readmit a quarantined node only once its record is fresher
  /// than this (must be <= node_staleness_budget_s).
  double node_readmit_s = 15.0;
  /// A pair older than this serves the 5-minute mean instead of the 1-minute
  /// instantaneous values.
  double pair_staleness_budget_s = 600.0;
  /// Pessimism multiplier applied to fallback pair costs (latency and the
  /// bandwidth deficit); >= 1.
  double pair_penalty = 1.25;
  /// decide() falls back to the last-good epoch when the current one is
  /// poisoned, but refuses once that epoch is older than this.
  double max_epoch_age_s = 120.0;
  /// Block (switch) quarantine: once this fraction of a switch's usable
  /// nodes is stale-quarantined, the *remaining* members are quarantined
  /// too — a mostly-dark rack usually means the switch (or its daemon
  /// uplink) is the problem, not the survivors. In (0, 1]; the default 1.0
  /// never triggers on a partial outage, so the overlay is opt-in.
  double block_quarantine_fraction = 1.0;

  void validate() const;
};

/// One apply() call's result. `snapshot` is the input pointer when nothing
/// needed rewriting, else a rewritten copy (sharing the input's unrewritten
/// pair matrices).
struct DegradationOutcome {
  std::shared_ptr<const monitor::ClusterSnapshot> snapshot;
  bool degraded = false;          ///< anything was rewritten
  std::size_t quarantined = 0;    ///< nodes currently quarantined (incl. block overlay)
  std::size_t block_quarantined = 0;  ///< nodes out via the block overlay only
  std::size_t pair_fallbacks = 0; ///< unordered pairs on the 5-min fallback
  /// Quarantine membership changed since the previous apply() — the usable
  /// set's shape moved, so incremental prepared updates must rebuild.
  bool quarantine_changed = false;
  /// Unordered pairs whose fallback state flipped since the previous
  /// apply(). A pair can cross the budget without any store write (staleness
  /// grows by itself), so these must be patched alongside the delta's dirty
  /// pairs to keep incremental state bit-identical to a rebuild.
  std::vector<std::pair<cluster::NodeId, cluster::NodeId>> changed_pairs;
};

/// Stateful snapshot rewriter. Not thread-safe; one refresh thread drives
/// it (ResourceBroker holds it under builder_mutex_).
class Degrader {
 public:
  explicit Degrader(DegradationPolicy policy);

  const DegradationPolicy& policy() const { return policy_; }

  /// Applies the policy to one snapshot given the store's staleness view,
  /// walking every pair. Hysteresis state carries across calls; a
  /// node-count change resets it.
  DegradationOutcome apply(
      std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
      const monitor::StalenessView& staleness);

  /// Same result, in O(V + dirty + crossings) when `delta` chains onto the
  /// previous apply(): its base_version is the last applied version, it is
  /// not `full`, the node count is unchanged and the view's clock has not
  /// stepped back. `delta` and `staleness` must describe the same store
  /// state; any other delta falls back to the full walk.
  DegradationOutcome apply(
      std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
      const monitor::SnapshotDelta& delta,
      const monitor::StalenessView& staleness);

  std::size_t quarantined_count() const { return quarantined_count_; }

 private:
  using Pair = std::pair<cluster::NodeId, cluster::NodeId>;

  DegradationOutcome degrade(
      std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
      const monitor::SnapshotDelta* delta,
      const monitor::StalenessView& staleness);
  void reset(std::size_t n);
  /// Full pass: re-derives every pair and rebuilds the expiry queue.
  void walk_pairs(const monitor::StalenessView& staleness,
                  DegradationOutcome& outcome);
  /// Chained pass: re-derives the dirty pairs, then expires the queue front.
  void expire_pairs(const monitor::SnapshotDelta& delta,
                    const monitor::StalenessView& staleness,
                    DegradationOutcome& outcome);
  /// Sets pair (u < v)'s fallback state from its last write time `time`,
  /// recording a flip; a measured pair that stays fresh is queued at `time`.
  void settle_pair(std::size_t u, std::size_t v, double time, double now,
                   DegradationOutcome& outcome);
  bool pair_stale(double time, double now) const;

  DegradationPolicy policy_;
  std::size_t n_ = 0;
  std::vector<char> node_quarantined_;
  /// Block-overlay quarantine, recomputed from scratch each apply() (it is
  /// a pure function of the node states — no hysteresis of its own).
  std::vector<char> block_overlay_;
  std::vector<char> pair_fallback_;  ///< unordered (u,v), u<v, at u*n+v
  std::size_t quarantined_count_ = 0;
  std::size_t block_overlay_count_ = 0;
  std::size_t pair_fallback_count_ = 0;

  /// Measured pairs not on the fallback, bucketed by last write time (a
  /// probe round shares one timestamp). A rewritten pair leaves its old
  /// entry behind; expiry skips entries whose time is no longer the pair's
  /// write time. Entries leave once they age past the budget, so the queue
  /// holds the fresh pairs plus the rewrites of the last budget seconds.
  std::map<double, std::vector<Pair>> expiry_;
  bool applied_ = false;              ///< expiry_ matches the last apply()
  std::uint64_t applied_version_ = 0;  ///< store version of the last apply()
  double applied_now_ = 0.0;           ///< view clock of the last apply()
};

}  // namespace nlarm::core
