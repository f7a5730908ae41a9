// Shared builders for nlarm tests: hand-crafted snapshots with exact
// attribute values, and small ready-made testbeds.
#pragma once

#include <cmath>
#include <vector>

#include "cluster/cluster.h"
#include "monitor/snapshot.h"
#include "monitor/store.h"

namespace nlarm::testing {

/// Per-node inputs for a hand-built snapshot.
struct TestNode {
  double cpu_load = 0.0;
  double cpu_util = 0.1;
  double mem_used_gb = 4.0;
  double net_flow_mbps = 0.0;
  int users = 0;
  int cores = 8;
  double freq_ghz = 3.0;
  double total_mem_gb = 16.0;
  bool live = true;
};

/// Builds a snapshot where every running mean equals the instantaneous
/// value and the network matrices are uniform (latency `lat_us`, bandwidth
/// `bw_mbps`, peak `peak_mbps`).
inline monitor::ClusterSnapshot make_snapshot(
    const std::vector<TestNode>& nodes, double lat_us = 100.0,
    double bw_mbps = 900.0, double peak_mbps = 1000.0) {
  monitor::ClusterSnapshot snap;
  const int n = static_cast<int>(nodes.size());
  snap.time = 0.0;
  snap.livehosts.resize(nodes.size());
  snap.nodes.resize(nodes.size());
  for (int i = 0; i < n; ++i) {
    const TestNode& t = nodes[static_cast<std::size_t>(i)];
    snap.livehosts[static_cast<std::size_t>(i)] = t.live;
    monitor::NodeSnapshot& ns = snap.nodes[static_cast<std::size_t>(i)];
    ns.spec.id = i;
    ns.spec.hostname = cluster::default_hostname(i);
    ns.spec.switch_id = 0;
    ns.spec.core_count = t.cores;
    ns.spec.cpu_freq_ghz = t.freq_ghz;
    ns.spec.total_mem_gb = t.total_mem_gb;
    ns.valid = true;
    ns.sample_time = 0.0;
    ns.cpu_load = t.cpu_load;
    ns.cpu_util = t.cpu_util;
    ns.mem_used_gb = t.mem_used_gb;
    ns.net_flow_mbps = t.net_flow_mbps;
    ns.users = t.users;
    ns.cpu_load_avg = {t.cpu_load, t.cpu_load, t.cpu_load};
    ns.cpu_util_avg = {t.cpu_util, t.cpu_util, t.cpu_util};
    ns.net_flow_avg = {t.net_flow_mbps, t.net_flow_mbps, t.net_flow_mbps};
    const double avail = t.total_mem_gb - t.mem_used_gb;
    ns.mem_avail_avg = {avail, avail, avail};
  }
  snap.net.latency_us = monitor::make_matrix(n, lat_us);
  snap.net.latency_5min_us = monitor::make_matrix(n, lat_us);
  snap.net.bandwidth_mbps = monitor::make_matrix(n, bw_mbps);
  snap.net.peak_mbps = monitor::make_matrix(n, peak_mbps);
  return snap;
}

/// Sets the latency/bandwidth for one (symmetric) pair.
inline void set_pair(monitor::ClusterSnapshot& snap, int u, int v,
                     double lat_us, double bw_mbps) {
  const auto uu = static_cast<std::size_t>(u);
  const auto vv = static_cast<std::size_t>(v);
  snap.net.latency_us[uu][vv] = lat_us;
  snap.net.latency_us[vv][uu] = lat_us;
  snap.net.latency_5min_us[uu][vv] = lat_us;
  snap.net.latency_5min_us[vv][uu] = lat_us;
  snap.net.bandwidth_mbps[uu][vv] = bw_mbps;
  snap.net.bandwidth_mbps[vv][uu] = bw_mbps;
}

/// A vector of n identical idle nodes.
inline std::vector<TestNode> idle_nodes(int n) {
  return std::vector<TestNode>(static_cast<std::size_t>(n));
}

/// Sets a hand-built staleness view's pair ages: ordered pair (u, v) was
/// last written `ages[u][v]` seconds before `view.now` (+inf: never
/// written). The view holds write times, so this stamps the latency write
/// time now − age and leaves bandwidth unwritten. Ages must not exceed
/// `view.now`: a negative write time reads as never written.
inline void set_pair_ages(monitor::StalenessView& view,
                          const util::FlatMatrix& ages) {
  const std::size_t n = ages.size();
  view.latency_time.assign(n, -1.0);
  view.bandwidth_time.assign(n, -1.0);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (std::isfinite(ages[u][v])) {
        view.latency_time[u][v] = view.now - ages[u][v];
      }
    }
  }
}

}  // namespace nlarm::testing
