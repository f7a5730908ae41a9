// MonitorStore: the shared-filesystem drop box the daemons write into.
//
// In the paper every daemon writes its records to NFS and the allocator
// reads them back. Here the store is an in-memory key-value structure with
// per-record write timestamps, so consumers can reason about staleness the
// same way an NFS reader would (mtime).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/node.h"
#include "monitor/snapshot.h"
#include "monitor/snapshot_delta.h"

namespace nlarm::monitor {

/// Point-in-time staleness of every record in a store, for degradation
/// consumers (core/degrade.h). Node ages are materialized (O(V)); pair ages
/// are computed on demand from the store's pair write-time matrices, which
/// the view shares copy-on-write rather than copies, so taking a view costs
/// O(V).
struct StalenessView {
  double now = 0.0;
  /// Per-node record age in seconds, +inf for never-written records.
  std::vector<double> node;
  /// Per ordered pair (u, v): time of the last latency / bandwidth write
  /// for that direction, < 0 when never written.
  util::FlatMatrix latency_time;
  util::FlatMatrix bandwidth_time;

  /// The ordered pair's freshest write: the later of its latency and
  /// bandwidth write times (< 0 when neither was ever written).
  double pair_time(std::size_t u, std::size_t v) const {
    return std::max(latency_time[u][v], bandwidth_time[u][v]);
  }

  /// Seconds since the ordered pair's freshest latency/bandwidth write:
  /// now − pair_time, +inf when never written, 0 on the diagonal (a
  /// self-measurement never goes stale).
  double pair_age(std::size_t u, std::size_t v) const {
    if (u == v) return 0.0;
    const double last = pair_time(u, v);
    return last < 0.0 ? std::numeric_limits<double>::infinity() : now - last;
  }
};

class MonitorStore {
 public:
  explicit MonitorStore(int node_count);

  int node_count() const { return node_count_; }

  // --- written by LivehostsD ---
  void write_livehosts(double now, std::vector<bool> livehosts);
  const std::vector<bool>& livehosts() const { return livehosts_; }
  double livehosts_time() const { return livehosts_time_; }

  // --- written by NodeStateD (one record per node) ---
  void write_node_record(double now, const NodeSnapshot& record);
  const NodeSnapshot& node_record(cluster::NodeId node) const;

  // --- written by LatencyD / BandwidthD (per ordered pair; symmetric
  //     measurements should be written for both orders) ---
  void write_latency(double now, cluster::NodeId u, cluster::NodeId v,
                     double one_min_us, double five_min_us);
  void write_bandwidth(double now, cluster::NodeId u, cluster::NodeId v,
                       double bandwidth_mbps, double peak_mbps);

  /// Assembles the allocator-facing snapshot from the current records. The
  /// snapshot carries this store's change version, so consumers can tell
  /// "same data as last time" apart from "new data" without diffing. It
  /// shares the store's four pair matrices copy-on-write, so assembling
  /// costs O(V); the next pair write clones only the matrices it writes.
  ClusterSnapshot assemble(double now) const;

  /// Hydrates every record from a persisted snapshot — the warm-start path
  /// for a store rebuilt from a snapshot file or a replayed delta log.
  /// Record timestamps are reconstructed conservatively (node records keep
  /// their sample_time; measured pairs are stamped with the snapshot's
  /// assembly time), and the delta tracker is marked full so incremental
  /// consumers rebuild once. Node counts must match.
  void restore(const ClusterSnapshot& snapshot);

  /// Bumped on every write; combined with a process-unique store id into the
  /// snapshot version stamp.
  std::uint64_t version() const { return version_; }

  /// The version stamp assemble() would put on a snapshot right now.
  std::uint64_t snapshot_version() const;

  /// Returns the dirty node/pair sets accumulated since the previous drain
  /// (or since construction), stamped with the snapshot-style versions the
  /// delta spans. Call right after assemble(): a consumer whose prepared
  /// state matches `delta.base_version` can then apply the delta to reach
  /// the assembled snapshot's version instead of re-preparing from scratch.
  SnapshotDelta drain_delta();

  /// Seconds since the given node's record was refreshed (inf if never).
  double node_staleness(double now, cluster::NodeId node) const;

  /// Seconds since any latency/bandwidth entry for the pair was refreshed.
  double pair_staleness(double now, cluster::NodeId u,
                        cluster::NodeId v) const;

  /// node_staleness/pair_staleness for every record at once — the
  /// per-refresh input of the degradation layer. O(V): node ages are
  /// computed, and the pair write-time matrices are shared with the view.
  StalenessView staleness_view(double now) const;

 private:
  void check_node(cluster::NodeId node) const;

  int node_count_;
  std::uint64_t store_id_;       ///< process-unique, from a static counter
  std::uint64_t version_ = 1;    ///< bumped on every write
  std::vector<bool> livehosts_;
  double livehosts_time_ = -1.0;
  std::vector<NodeSnapshot> node_records_;
  NetSnapshot net_;
  util::FlatMatrix latency_time_;
  util::FlatMatrix bandwidth_time_;
  DeltaTracker delta_tracker_;
  std::uint64_t delta_base_version_ = 1;  ///< local version at last drain
};

}  // namespace nlarm::monitor
