// Monitoring snapshots: what the Node Allocator actually sees.
//
// The allocator never reads simulator ground truth; it consumes a
// ClusterSnapshot assembled from what the daemons wrote to the shared
// store — complete with sampling noise, staleness and missing entries.
// For unit tests and idealized baselines, make_ground_truth_snapshot()
// builds the same structure straight from the simulator state.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "net/network_model.h"
#include "util/flat_matrix.h"

namespace nlarm::monitor {

/// The 1/5/15-minute running means NodeStateD maintains (§4).
struct RunningMeans {
  double one_min = 0.0;
  double five_min = 0.0;
  double fifteen_min = 0.0;
};

/// Per-node record written by that node's NodeStateD.
struct NodeSnapshot {
  cluster::NodeSpec spec;     ///< static attributes (queried once)
  double sample_time = -1.0;  ///< when the dynamic values were sampled; <0 = never
  bool valid = false;         ///< record exists in the store

  // Instantaneous dynamic attributes.
  double cpu_load = 0.0;
  double cpu_util = 0.0;
  double mem_used_gb = 0.0;
  double net_flow_mbps = 0.0;
  int users = 0;

  // Running means (Table 1's "1, 5 and 15 min" rows).
  RunningMeans cpu_load_avg;
  RunningMeans cpu_util_avg;
  RunningMeans net_flow_avg;
  RunningMeans mem_avail_avg;

  double mem_available_gb() const {
    return spec.total_mem_gb > mem_used_gb ? spec.total_mem_gb - mem_used_gb
                                           : 0.0;
  }
};

/// Pairwise network state written by LatencyD/BandwidthD.
struct NetSnapshot {
  /// Square row-major matrices indexed by NodeId; diagonal entries are 0. A
  /// value of <0 means "never measured".
  util::FlatMatrix latency_us;        ///< 1-min mean
  util::FlatMatrix latency_5min_us;   ///< 5-min mean
  util::FlatMatrix bandwidth_mbps;    ///< instantaneous
  util::FlatMatrix peak_mbps;         ///< per-pair capacity

  int size() const { return static_cast<int>(latency_us.size()); }
};

struct ClusterSnapshot {
  double time = 0.0;               ///< assembly time
  /// Monotone change counter stamped by the assembling MonitorStore; 0 means
  /// "unversioned" (hand-built snapshots). It orders store writes, and
  /// PreparedBuilder::update chains deltas on it (delta base == held
  /// version). It is NOT the state's identity: copies that drop hosts keep
  /// it (JobQueue's reservation views), and ResourceMonitor::snapshot()
  /// filters stale records by the time of the call.
  std::uint64_t version = 0;
  std::vector<bool> livehosts;     ///< LivehostsD's view
  std::vector<NodeSnapshot> nodes;
  NetSnapshot net;

  int size() const { return static_cast<int>(nodes.size()); }

  /// Nodes that are live and have a valid node record.
  std::vector<cluster::NodeId> usable_nodes() const;
};

/// Builds a noise-free snapshot directly from ground truth (running means ==
/// instantaneous values). Used by tests and by the idealized baselines.
ClusterSnapshot make_ground_truth_snapshot(const cluster::Cluster& cluster,
                                           const net::NetworkModel& network,
                                           double now);

/// Allocates an n×n matrix filled with `fill` (diagonal 0).
util::FlatMatrix make_matrix(std::size_t n, double fill);

/// Invalidates node records older than `max_age_seconds` (relative to
/// snapshot.time). A node whose NodeStateD died keeps serving its last
/// record through the store forever; this filter stops the allocator from
/// trusting it. Returns the number of records invalidated.
int apply_staleness_filter(ClusterSnapshot& snapshot,
                           double max_age_seconds);

}  // namespace nlarm::monitor
