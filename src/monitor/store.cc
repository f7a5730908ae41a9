#include "monitor/store.h"

#include <atomic>
#include <limits>

#include "obs/catalog.h"
#include "util/check.h"

namespace nlarm::monitor {

namespace {

// Each store stamps snapshots with (store_id << 32) | local_version, so
// snapshots from different stores in one process can never share a version.
std::uint64_t next_store_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

MonitorStore::MonitorStore(int node_count)
    : node_count_(node_count),
      store_id_(next_store_id()),
      delta_tracker_(node_count) {
  NLARM_CHECK(node_count > 0) << "store needs at least one node";
  livehosts_.assign(static_cast<std::size_t>(node_count), false);
  node_records_.resize(static_cast<std::size_t>(node_count));
  net_.latency_us = make_matrix(static_cast<std::size_t>(node_count), -1.0);
  net_.latency_5min_us = make_matrix(static_cast<std::size_t>(node_count), -1.0);
  net_.bandwidth_mbps = make_matrix(static_cast<std::size_t>(node_count), -1.0);
  net_.peak_mbps = make_matrix(static_cast<std::size_t>(node_count), -1.0);
  latency_time_ = make_matrix(static_cast<std::size_t>(node_count), -1.0);
  bandwidth_time_ = make_matrix(static_cast<std::size_t>(node_count), -1.0);
}

void MonitorStore::check_node(cluster::NodeId node) const {
  NLARM_CHECK(node >= 0 && node < node_count_) << "bad node id " << node;
}

void MonitorStore::write_livehosts(double now, std::vector<bool> livehosts) {
  NLARM_CHECK(static_cast<int>(livehosts.size()) == node_count_)
      << "livehosts size mismatch";
  // Only a changed vector invalidates incremental consumers; the periodic
  // LivehostsD rewrite of an unchanged view stays a cheap no-op delta.
  if (livehosts != livehosts_) delta_tracker_.mark_livehosts();
  livehosts_ = std::move(livehosts);
  livehosts_time_ = now;
  ++version_;
}

void MonitorStore::write_node_record(double now, const NodeSnapshot& record) {
  check_node(record.spec.id);
  NodeSnapshot copy = record;
  copy.valid = true;
  copy.sample_time = now;
  node_records_[static_cast<std::size_t>(record.spec.id)] = std::move(copy);
  delta_tracker_.mark_node(record.spec.id);
  ++version_;
}

const NodeSnapshot& MonitorStore::node_record(cluster::NodeId node) const {
  check_node(node);
  return node_records_[static_cast<std::size_t>(node)];
}

void MonitorStore::write_latency(double now, cluster::NodeId u,
                                 cluster::NodeId v, double one_min_us,
                                 double five_min_us) {
  check_node(u);
  check_node(v);
  NLARM_CHECK(u != v) << "latency record for a self-pair";
  const auto uu = static_cast<std::size_t>(u);
  const auto vv = static_cast<std::size_t>(v);
  net_.latency_us[uu][vv] = one_min_us;
  net_.latency_5min_us[uu][vv] = five_min_us;
  latency_time_[uu][vv] = now;
  delta_tracker_.mark_pair(u, v);
  ++version_;
}

void MonitorStore::write_bandwidth(double now, cluster::NodeId u,
                                   cluster::NodeId v, double bandwidth_mbps,
                                   double peak_mbps) {
  check_node(u);
  check_node(v);
  NLARM_CHECK(u != v) << "bandwidth record for a self-pair";
  const auto uu = static_cast<std::size_t>(u);
  const auto vv = static_cast<std::size_t>(v);
  net_.bandwidth_mbps[uu][vv] = bandwidth_mbps;
  net_.peak_mbps[uu][vv] = peak_mbps;
  bandwidth_time_[uu][vv] = now;
  delta_tracker_.mark_pair(u, v);
  ++version_;
}

ClusterSnapshot MonitorStore::assemble(double now) const {
  obs::metrics::monitor_snapshots().inc();
  ClusterSnapshot snap;
  snap.time = now;
  snap.version = snapshot_version();
  snap.livehosts = livehosts_;
  snap.nodes = node_records_;
  snap.net = net_;
  return snap;
}

void MonitorStore::restore(const ClusterSnapshot& snapshot) {
  NLARM_CHECK(static_cast<int>(snapshot.nodes.size()) == node_count_)
      << "snapshot has " << snapshot.nodes.size() << " nodes, store expects "
      << node_count_;
  NLARM_CHECK(snapshot.livehosts.size() == snapshot.nodes.size())
      << "snapshot livehosts/nodes size mismatch";
  livehosts_ = snapshot.livehosts;
  livehosts_time_ = snapshot.time;
  node_records_ = snapshot.nodes;
  net_ = snapshot.net;
  if (net_.latency_us.empty()) {
    net_.latency_us = make_matrix(static_cast<std::size_t>(node_count_), -1.0);
    net_.latency_5min_us = make_matrix(static_cast<std::size_t>(node_count_), -1.0);
    net_.bandwidth_mbps = make_matrix(static_cast<std::size_t>(node_count_), -1.0);
    net_.peak_mbps = make_matrix(static_cast<std::size_t>(node_count_), -1.0);
  }
  // The snapshot carries no per-pair write times; credit measured pairs
  // with the assembly time (the freshest defensible claim) and leave
  // never-measured pairs at the "never written" sentinel. The scan reads
  // through a const reference: net_ shares the snapshot's matrices, and a
  // non-const read would clone them.
  const NetSnapshot& net = net_;
  const auto n = static_cast<std::size_t>(node_count_);
  latency_time_.assign(n, -1.0);
  bandwidth_time_.assign(n, -1.0);
  double* latency_time = latency_time_.data();
  double* bandwidth_time = bandwidth_time_.data();
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (u == v) continue;
      if (net.latency_us[u][v] >= 0.0) {
        latency_time[u * n + v] = snapshot.time;
      }
      if (net.bandwidth_mbps[u][v] >= 0.0) {
        bandwidth_time[u * n + v] = snapshot.time;
      }
    }
  }
  delta_tracker_.mark_full();
  ++version_;
}

std::uint64_t MonitorStore::snapshot_version() const {
  return (store_id_ << 32) | (version_ & 0xffffffffull);
}

SnapshotDelta MonitorStore::drain_delta() {
  SnapshotDelta delta = delta_tracker_.drain();
  delta.base_version = (store_id_ << 32) | (delta_base_version_ & 0xffffffffull);
  delta.version = snapshot_version();
  delta_base_version_ = version_;
  obs::metrics::monitor_delta_drains().inc();
  obs::metrics::monitor_delta_dirty_nodes().inc(delta.dirty_nodes.size());
  obs::metrics::monitor_delta_dirty_pairs().inc(delta.dirty_pairs.size());
  return delta;
}

double MonitorStore::node_staleness(double now, cluster::NodeId node) const {
  check_node(node);
  const NodeSnapshot& record = node_records_[static_cast<std::size_t>(node)];
  if (!record.valid) return std::numeric_limits<double>::infinity();
  return now - record.sample_time;
}

double MonitorStore::pair_staleness(double now, cluster::NodeId u,
                                    cluster::NodeId v) const {
  check_node(u);
  check_node(v);
  const auto uu = static_cast<std::size_t>(u);
  const auto vv = static_cast<std::size_t>(v);
  const double last =
      std::max(latency_time_[uu][vv], bandwidth_time_[uu][vv]);
  if (last < 0.0) return std::numeric_limits<double>::infinity();
  return now - last;
}

StalenessView MonitorStore::staleness_view(double now) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  StalenessView view;
  view.now = now;
  const auto n = static_cast<std::size_t>(node_count_);
  view.node.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeSnapshot& record = node_records_[i];
    view.node[i] = record.valid ? now - record.sample_time : kInf;
  }
  view.latency_time = latency_time_;
  view.bandwidth_time = bandwidth_time_;
  return view;
}

}  // namespace nlarm::monitor
