// Staleness filtering: records from dead daemons must stop being trusted.
#include <gtest/gtest.h>

#include <limits>

#include "exp/experiment.h"
#include "monitor/resource_monitor.h"
#include "monitor/snapshot.h"
#include "monitor/store.h"
#include "util/check.h"

namespace nlarm::monitor {
namespace {

NodeSnapshot record_at(cluster::NodeId id, double time) {
  NodeSnapshot record;
  record.spec.id = id;
  record.spec.core_count = 8;
  record.spec.cpu_freq_ghz = 3.0;
  record.spec.total_mem_gb = 16.0;
  record.valid = true;
  record.sample_time = time;
  return record;
}

TEST(StalenessFilterTest, InvalidatesOldRecords) {
  ClusterSnapshot snap;
  snap.time = 1000.0;
  snap.livehosts = {true, true, true};
  snap.nodes.push_back(record_at(0, 995.0));   // fresh
  snap.nodes.push_back(record_at(1, 800.0));   // stale
  snap.nodes.push_back(record_at(2, 990.0));   // fresh
  const int dropped = apply_staleness_filter(snap, 60.0);
  EXPECT_EQ(dropped, 1);
  EXPECT_TRUE(snap.nodes[0].valid);
  EXPECT_FALSE(snap.nodes[1].valid);
  EXPECT_EQ(snap.usable_nodes(), (std::vector<cluster::NodeId>{0, 2}));
}

TEST(StalenessFilterTest, AlreadyInvalidNotCounted) {
  ClusterSnapshot snap;
  snap.time = 100.0;
  snap.livehosts = {true};
  NodeSnapshot never = record_at(0, 0.0);
  never.valid = false;
  snap.nodes.push_back(never);
  EXPECT_EQ(apply_staleness_filter(snap, 10.0), 0);
}

TEST(StalenessFilterTest, NonPositiveLimitRejected) {
  ClusterSnapshot snap;
  EXPECT_THROW(apply_staleness_filter(snap, 0.0), util::CheckError);
}

TEST(StalenessFilterTest, MonitorDropsNodesWithDeadStateDaemon) {
  // End-to-end: kill one node's NodeStateD, abandon supervision so it stays
  // dead, advance past the record-age limit, and check the allocator's view
  // loses that node.
  cluster::Cluster cluster = cluster::make_uniform_cluster(5, 2);
  net::FlowSet flows;
  net::NetworkModel network(cluster, flows);
  sim::Simulation sim(31);
  MonitorConfig config;
  config.max_record_age_s = 60.0;
  ResourceMonitor monitor(cluster, network, sim, config);
  monitor.start();
  sim.run_until(30.0);
  EXPECT_EQ(monitor.snapshot().usable_nodes().size(), 5u);

  monitor.central().fail_master();
  monitor.central().fail_slave();
  sim.run_until(60.0);  // supervision abandons
  Daemon* statd = monitor.find_daemon("nodestate.3");
  ASSERT_NE(statd, nullptr);
  statd->kill();
  sim.run_until(200.0);  // well past the 60 s limit

  const ClusterSnapshot snap = monitor.snapshot();
  const auto usable = snap.usable_nodes();
  EXPECT_EQ(usable.size(), 4u);
  for (cluster::NodeId id : usable) EXPECT_NE(id, 3);
}

TEST(StalenessFilterTest, DisabledByZeroConfig) {
  cluster::Cluster cluster = cluster::make_uniform_cluster(3, 1);
  net::FlowSet flows;
  net::NetworkModel network(cluster, flows);
  sim::Simulation sim(32);
  MonitorConfig config;
  config.max_record_age_s = 0.0;  // filter off
  ResourceMonitor monitor(cluster, network, sim, config);
  monitor.start();
  sim.run_until(30.0);
  monitor.central().fail_master();
  monitor.central().fail_slave();
  sim.run_until(60.0);
  monitor.find_daemon("nodestate.1")->kill();
  sim.run_until(600.0);
  // Stale record still trusted when the filter is disabled.
  EXPECT_EQ(monitor.snapshot().usable_nodes().size(), 3u);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(StalenessViewTest, NeverWrittenRecordsAreInfinitelyStale) {
  MonitorStore store(3);
  for (cluster::NodeId u = 0; u < 3; ++u) {
    EXPECT_EQ(store.node_staleness(100.0, u), kInf);
    for (cluster::NodeId v = 0; v < 3; ++v) {
      if (u != v) {
        EXPECT_EQ(store.pair_staleness(100.0, u, v), kInf);
      }
    }
  }
  const StalenessView view = store.staleness_view(100.0);
  EXPECT_DOUBLE_EQ(view.now, 100.0);
  ASSERT_EQ(view.node.size(), 3u);
  EXPECT_EQ(view.node[1], kInf);
  EXPECT_EQ(view.pair_age(0, 2), kInf);
  // The diagonal is a self-measurement that never goes stale.
  EXPECT_DOUBLE_EQ(view.pair_age(1, 1), 0.0);
}

TEST(StalenessViewTest, AgesTrackLastWriteAndRefreshOnRewrite) {
  MonitorStore store(3);
  NodeSnapshot record;
  record.spec.id = 1;
  record.valid = true;
  record.sample_time = 50.0;
  store.write_node_record(50.0, record);
  store.write_latency(60.0, 0, 1, 120.0, 120.0);
  store.write_bandwidth(70.0, 1, 0, 900.0, 900.0);

  EXPECT_DOUBLE_EQ(store.node_staleness(80.0, 1), 30.0);
  EXPECT_EQ(store.node_staleness(80.0, 0), kInf);
  // Each direction ages independently; the freshest of the pair's latency
  // and bandwidth writes is what counts.
  EXPECT_DOUBLE_EQ(store.pair_staleness(80.0, 0, 1), 20.0);
  EXPECT_DOUBLE_EQ(store.pair_staleness(80.0, 1, 0), 10.0);

  // A rewrite resets the age — and only the rewritten record's.
  record.sample_time = 75.0;
  store.write_node_record(75.0, record);
  EXPECT_DOUBLE_EQ(store.node_staleness(80.0, 1), 5.0);
  store.write_bandwidth(78.0, 0, 1, 880.0, 880.0);
  EXPECT_DOUBLE_EQ(store.pair_staleness(80.0, 0, 1), 2.0);
  EXPECT_DOUBLE_EQ(store.pair_staleness(80.0, 1, 0), 10.0);

  const StalenessView view = store.staleness_view(80.0);
  EXPECT_DOUBLE_EQ(view.node[1], 5.0);
  EXPECT_DOUBLE_EQ(view.pair_age(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(view.pair_age(1, 0), 10.0);
}

TEST(StalenessViewTest, ReadingStalenessDoesNotDisturbDeltaTracking) {
  // staleness_view() is a pure read: it must not mark anything dirty, and
  // draining the delta must not reset staleness bookkeeping.
  MonitorStore store(2);
  store.assemble(10.0);
  (void)store.drain_delta();  // start from a clean dirty set

  store.write_latency(20.0, 0, 1, 100.0, 100.0);
  (void)store.staleness_view(30.0);
  store.assemble(30.0);
  SnapshotDelta delta = store.drain_delta();
  ASSERT_EQ(delta.dirty_pairs.size(), 1u);
  EXPECT_EQ(delta.dirty_pairs[0],
            std::make_pair(cluster::NodeId(0), cluster::NodeId(1)));

  // Draining cleared the dirty set but the pair is still 10 s old.
  EXPECT_DOUBLE_EQ(store.pair_staleness(30.0, 0, 1), 10.0);
  (void)store.staleness_view(40.0);
  store.assemble(40.0);
  EXPECT_TRUE(store.drain_delta().dirty_pairs.empty());
}

}  // namespace
}  // namespace nlarm::monitor
