#include "monitor/store.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.h"

namespace nlarm::monitor {
namespace {

NodeSnapshot make_record(cluster::NodeId id, double load = 1.0) {
  NodeSnapshot record;
  record.spec.id = id;
  record.spec.hostname = cluster::default_hostname(id);
  record.spec.core_count = 8;
  record.spec.cpu_freq_ghz = 3.0;
  record.spec.total_mem_gb = 16.0;
  record.cpu_load = load;
  record.cpu_load_avg = {load, load, load};
  return record;
}

TEST(MonitorStoreTest, FreshStoreHasNoRecords) {
  MonitorStore store(3);
  EXPECT_FALSE(store.node_record(0).valid);
  EXPECT_TRUE(std::isinf(store.node_staleness(100.0, 0)));
  EXPECT_TRUE(std::isinf(store.pair_staleness(100.0, 0, 1)));
  EXPECT_LT(store.livehosts_time(), 0.0);
}

TEST(MonitorStoreTest, NodeRecordRoundTrips) {
  MonitorStore store(3);
  store.write_node_record(10.0, make_record(1, 2.5));
  const NodeSnapshot& record = store.node_record(1);
  EXPECT_TRUE(record.valid);
  EXPECT_DOUBLE_EQ(record.cpu_load, 2.5);
  EXPECT_DOUBLE_EQ(record.sample_time, 10.0);
  EXPECT_DOUBLE_EQ(store.node_staleness(14.0, 1), 4.0);
}

TEST(MonitorStoreTest, LivehostsRoundTrips) {
  MonitorStore store(3);
  store.write_livehosts(5.0, {true, false, true});
  EXPECT_TRUE(store.livehosts()[0]);
  EXPECT_FALSE(store.livehosts()[1]);
  EXPECT_DOUBLE_EQ(store.livehosts_time(), 5.0);
}

TEST(MonitorStoreTest, LivehostsSizeMismatchRejected) {
  MonitorStore store(3);
  EXPECT_THROW(store.write_livehosts(1.0, {true}), util::CheckError);
}

TEST(MonitorStoreTest, PairMeasurementsStored) {
  MonitorStore store(3);
  store.write_latency(10.0, 0, 1, 100.0, 120.0);
  store.write_bandwidth(12.0, 0, 1, 800.0, 1000.0);
  const ClusterSnapshot snap = store.assemble(20.0);
  EXPECT_DOUBLE_EQ(snap.net.latency_us[0][1], 100.0);
  EXPECT_DOUBLE_EQ(snap.net.latency_5min_us[0][1], 120.0);
  EXPECT_DOUBLE_EQ(snap.net.bandwidth_mbps[0][1], 800.0);
  EXPECT_DOUBLE_EQ(snap.net.peak_mbps[0][1], 1000.0);
  // Unmeasured pair stays at the "never measured" sentinel.
  EXPECT_LT(snap.net.latency_us[1][2], 0.0);
  EXPECT_DOUBLE_EQ(store.pair_staleness(20.0, 0, 1), 8.0);
}

TEST(MonitorStoreTest, SelfPairRejected) {
  MonitorStore store(3);
  EXPECT_THROW(store.write_latency(1.0, 2, 2, 1.0, 1.0), util::CheckError);
  EXPECT_THROW(store.write_bandwidth(1.0, 0, 0, 1.0, 1.0), util::CheckError);
}

TEST(MonitorStoreTest, AssembleReflectsUsability) {
  MonitorStore store(3);
  store.write_livehosts(1.0, {true, true, false});
  store.write_node_record(1.0, make_record(0));
  store.write_node_record(1.0, make_record(2));
  const ClusterSnapshot snap = store.assemble(2.0);
  // Node 0: live + record → usable. Node 1: live, no record. Node 2: record
  // but not live.
  EXPECT_EQ(snap.usable_nodes(), (std::vector<cluster::NodeId>{0}));
  EXPECT_DOUBLE_EQ(snap.time, 2.0);
}

TEST(MonitorStoreTest, OutOfRangeNodesRejected) {
  MonitorStore store(2);
  EXPECT_THROW(store.node_record(5), util::CheckError);
  EXPECT_THROW(store.write_latency(1.0, 0, 7, 1.0, 1.0), util::CheckError);
  EXPECT_THROW(store.write_node_record(1.0, make_record(9)),
               util::CheckError);
}

// Snapshots share the store's pair matrices copy-on-write: observed through
// const data() pointers (a non-const read would itself detach).
TEST(MonitorStoreTest, NodeOnlyAssemblesShareEveryPairMatrix) {
  MonitorStore store(3);
  store.write_latency(1.0, 0, 1, 100.0, 110.0);
  store.write_bandwidth(1.0, 0, 1, 900.0, 1000.0);
  const ClusterSnapshot first = store.assemble(2.0);
  store.write_node_record(3.0, make_record(2));
  const ClusterSnapshot second = store.assemble(3.0);
  EXPECT_EQ(first.net.latency_us.data(), second.net.latency_us.data());
  EXPECT_EQ(first.net.latency_5min_us.data(),
            second.net.latency_5min_us.data());
  EXPECT_EQ(first.net.bandwidth_mbps.data(),
            second.net.bandwidth_mbps.data());
  EXPECT_EQ(first.net.peak_mbps.data(), second.net.peak_mbps.data());
}

TEST(MonitorStoreTest, LatencyWriteDetachesOnlyTheLatencyMatrices) {
  MonitorStore store(3);
  store.write_latency(1.0, 0, 1, 100.0, 110.0);
  store.write_bandwidth(1.0, 0, 1, 900.0, 1000.0);
  const ClusterSnapshot first = store.assemble(2.0);
  store.write_latency(3.0, 0, 1, 50.0, 60.0);
  const ClusterSnapshot second = store.assemble(3.0);
  EXPECT_NE(first.net.latency_us.data(), second.net.latency_us.data());
  EXPECT_NE(first.net.latency_5min_us.data(),
            second.net.latency_5min_us.data());
  EXPECT_EQ(first.net.bandwidth_mbps.data(),
            second.net.bandwidth_mbps.data());
  EXPECT_EQ(first.net.peak_mbps.data(), second.net.peak_mbps.data());
  // The earlier snapshot keeps the values it was assembled with.
  EXPECT_DOUBLE_EQ(first.net.latency_us[0][1], 100.0);
  EXPECT_DOUBLE_EQ(first.net.latency_5min_us[0][1], 110.0);
  EXPECT_DOUBLE_EQ(second.net.latency_us[0][1], 50.0);
  EXPECT_DOUBLE_EQ(second.net.latency_5min_us[0][1], 60.0);
}

TEST(SnapshotTest, GroundTruthSnapshotIsComplete) {
  cluster::Cluster c = cluster::make_uniform_cluster(4, 2);
  c.mutable_node(1).dyn.cpu_load = 3.0;
  c.mutable_node(2).dyn.alive = false;
  net::FlowSet flows;
  net::NetworkModel network(c, flows);
  const ClusterSnapshot snap = make_ground_truth_snapshot(c, network, 50.0);
  EXPECT_EQ(snap.size(), 4);
  EXPECT_DOUBLE_EQ(snap.nodes[1].cpu_load, 3.0);
  EXPECT_DOUBLE_EQ(snap.nodes[1].cpu_load_avg.fifteen_min, 3.0);
  EXPECT_FALSE(snap.livehosts[2]);
  EXPECT_EQ(snap.usable_nodes(), (std::vector<cluster::NodeId>{0, 1, 3}));
  EXPECT_GT(snap.net.bandwidth_mbps[0][1], 0.0);
  EXPECT_DOUBLE_EQ(snap.net.bandwidth_mbps[0][0], 0.0);
}

TEST(SnapshotTest, MakeMatrixZeroDiagonal) {
  const auto m = make_matrix(3, 7.0);
  EXPECT_DOUBLE_EQ(m[0][0], 0.0);
  EXPECT_DOUBLE_EQ(m[0][1], 7.0);
}

TEST(SnapshotTest, MemAvailableComputed) {
  NodeSnapshot record = make_record(0);
  record.spec.total_mem_gb = 16.0;
  record.mem_used_gb = 6.0;
  EXPECT_DOUBLE_EQ(record.mem_available_gb(), 10.0);
  record.mem_used_gb = 20.0;
  EXPECT_DOUBLE_EQ(record.mem_available_gb(), 0.0);
}


TEST(SnapshotDeltaTest, FreshStoreDrainsEmptyDelta) {
  MonitorStore store(4);
  const SnapshotDelta delta = store.drain_delta();
  EXPECT_TRUE(delta.empty());
  EXPECT_FALSE(delta.requires_full_rebuild());
  EXPECT_EQ(delta.base_version, delta.version);
}

TEST(SnapshotDeltaTest, WritesAccumulateIntoOneDelta) {
  MonitorStore store(4);
  store.write_node_record(1.0, make_record(2, 1.5));
  store.write_node_record(2.0, make_record(0, 0.5));
  store.write_node_record(3.0, make_record(2, 2.5));  // dedup with first
  store.write_latency(4.0, 3, 1, 50.0, 60.0);
  store.write_bandwidth(5.0, 1, 3, 800.0, 1000.0);  // same pair, both orders
  store.write_latency(6.0, 0, 2, 70.0, 80.0);

  const SnapshotDelta delta = store.drain_delta();
  EXPECT_EQ(delta.dirty_nodes, (std::vector<cluster::NodeId>{0, 2}));
  ASSERT_EQ(delta.dirty_pairs.size(), 2u);
  EXPECT_EQ(delta.dirty_pairs[0], (std::pair<cluster::NodeId, cluster::NodeId>{0, 2}));
  EXPECT_EQ(delta.dirty_pairs[1], (std::pair<cluster::NodeId, cluster::NodeId>{1, 3}));
  EXPECT_FALSE(delta.livehosts_changed);
  EXPECT_FALSE(delta.full);
}

TEST(SnapshotDeltaTest, DrainSpansVersionsAndResets) {
  MonitorStore store(3);
  const std::uint64_t v0 = store.snapshot_version();
  store.write_node_record(1.0, make_record(1));
  const SnapshotDelta first = store.drain_delta();
  EXPECT_EQ(first.base_version, v0);
  EXPECT_EQ(first.version, store.snapshot_version());
  EXPECT_EQ(first.dirty_nodes.size(), 1u);

  // The second drain starts where the first ended and is empty.
  const SnapshotDelta second = store.drain_delta();
  EXPECT_EQ(second.base_version, first.version);
  EXPECT_TRUE(second.empty());
}

TEST(SnapshotDeltaTest, LivehostsChangeOnlyWhenVectorChanges) {
  MonitorStore store(3);
  store.write_livehosts(1.0, {true, true, false});
  EXPECT_TRUE(store.drain_delta().livehosts_changed);

  // The periodic rewrite of an identical view is a version bump but not a
  // livehosts change.
  store.write_livehosts(2.0, {true, true, false});
  const SnapshotDelta unchanged = store.drain_delta();
  EXPECT_FALSE(unchanged.livehosts_changed);
  EXPECT_NE(unchanged.base_version, unchanged.version);

  store.write_livehosts(3.0, {true, true, true});
  EXPECT_TRUE(store.drain_delta().livehosts_changed);
}

TEST(SnapshotDeltaTest, TrackerFullFlagAndBounds) {
  DeltaTracker tracker(3);
  tracker.mark_full();
  const SnapshotDelta delta = tracker.drain();
  EXPECT_TRUE(delta.full);
  EXPECT_TRUE(delta.requires_full_rebuild());
  EXPECT_FALSE(tracker.drain().full);  // drained flags reset

  EXPECT_THROW(tracker.mark_node(3), util::CheckError);
  EXPECT_THROW(tracker.mark_pair(0, 0), util::CheckError);
  EXPECT_THROW(tracker.mark_pair(0, 5), util::CheckError);
}

}  // namespace
}  // namespace nlarm::monitor
