// FollowerBroker: a replica tailing the delta log must serve decide()
// byte-identically to the leader at the same replicated version — including
// under degradation (quarantine, block quarantine, stale-pair fallback) —
// must fence on replication lag, and must promote from the last-good
// compaction frame when the leader dies mid-compaction.
#include "core/replica.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/allocator.h"
#include "core/broker.h"
#include "core/prepared.h"
#include "monitor/delta_log.h"
#include "monitor/persistence.h"
#include "monitor/store.h"
#include "obs/audit.h"
#include "util/check.h"

namespace nlarm::core {
namespace {

std::string log_path(const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name +
                           std::string(monitor::kDeltaLogExtension);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

// A store with every record written once. Nodes are spread over switches
// (i / 3) so the block-quarantine overlay has blocks to act on.
std::unique_ptr<monitor::MonitorStore> seeded_store(int n, double now = 10.0) {
  auto store = std::make_unique<monitor::MonitorStore>(n);
  store->write_livehosts(now, std::vector<bool>(static_cast<std::size_t>(n),
                                               true));
  for (int i = 0; i < n; ++i) {
    monitor::NodeSnapshot record;
    record.spec.id = i;
    record.spec.hostname = "host" + std::to_string(i);
    record.spec.switch_id = i / 3;
    record.spec.core_count = 8;
    record.spec.cpu_freq_ghz = 3.0;
    record.spec.total_mem_gb = 16.0;
    record.cpu_load = 0.1 * i;
    store->write_node_record(now, record);
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      store->write_latency(now, u, v, 100.0 + u + v, 101.0 + u + v);
      store->write_latency(now, v, u, 100.0 + u + v, 101.0 + u + v);
      store->write_bandwidth(now, u, v, 900.0 - u - v, 941.0);
      store->write_bandwidth(now, v, u, 900.0 - u - v, 941.0);
    }
  }
  return store;
}

AllocationRequest request_for(int nprocs = 8, int ppn = 4) {
  AllocationRequest request;
  request.nprocs = nprocs;
  request.ppn = ppn;
  request.job = JobWeights::balanced();
  return request;
}

void expect_decisions_equal(const BrokerDecision& leader,
                            const BrokerDecision& follower,
                            const char* context) {
  EXPECT_EQ(leader.action, follower.action) << context;
  EXPECT_EQ(leader.reason, follower.reason) << context;
  EXPECT_EQ(leader.cluster_load_per_core, follower.cluster_load_per_core)
      << context;
  EXPECT_EQ(leader.effective_capacity, follower.effective_capacity)
      << context;
  EXPECT_EQ(leader.allocation.policy, follower.allocation.policy) << context;
  EXPECT_EQ(leader.allocation.nodes, follower.allocation.nodes) << context;
  EXPECT_EQ(leader.allocation.procs_per_node,
            follower.allocation.procs_per_node)
      << context;
  EXPECT_EQ(leader.allocation.total_procs, follower.allocation.total_procs)
      << context;
  EXPECT_EQ(leader.allocation.avg_cpu_load, follower.allocation.avg_cpu_load)
      << context;
  EXPECT_EQ(leader.allocation.avg_bw_complement_mbps,
            follower.allocation.avg_bw_complement_mbps)
      << context;
  EXPECT_EQ(leader.allocation.avg_latency_us,
            follower.allocation.avg_latency_us)
      << context;
  EXPECT_EQ(leader.allocation.total_cost, follower.allocation.total_cost)
      << context;
}

// Everything but the follower's own wall-clock stage timings and cache-hit
// flags must replicate.
void expect_audit_parity(const obs::AuditRecord& leader,
                         const obs::AuditRecord& follower, int index) {
  EXPECT_EQ(leader.nprocs, follower.nprocs) << "record " << index;
  EXPECT_EQ(leader.ppn, follower.ppn) << "record " << index;
  EXPECT_EQ(leader.alpha, follower.alpha) << "record " << index;
  EXPECT_EQ(leader.beta, follower.beta) << "record " << index;
  EXPECT_EQ(leader.snapshot_version, follower.snapshot_version)
      << "record " << index;
  EXPECT_EQ(leader.snapshot_time, follower.snapshot_time)
      << "record " << index;
  EXPECT_EQ(leader.snapshot_nodes, follower.snapshot_nodes)
      << "record " << index;
  EXPECT_EQ(leader.usable_nodes, follower.usable_nodes) << "record " << index;
  EXPECT_EQ(leader.epoch, follower.epoch) << "record " << index;
  EXPECT_EQ(leader.action, follower.action) << "record " << index;
  EXPECT_EQ(leader.reason, follower.reason) << "record " << index;
  EXPECT_EQ(leader.cluster_load_per_core, follower.cluster_load_per_core)
      << "record " << index;
  EXPECT_EQ(leader.effective_capacity, follower.effective_capacity)
      << "record " << index;
  EXPECT_EQ(leader.degradation, follower.degradation) << "record " << index;
  EXPECT_EQ(leader.quarantined_nodes, follower.quarantined_nodes)
      << "record " << index;
  EXPECT_EQ(leader.policy, follower.policy) << "record " << index;
  EXPECT_EQ(leader.nodes, follower.nodes) << "record " << index;
  EXPECT_EQ(leader.hostnames, follower.hostnames) << "record " << index;
  EXPECT_EQ(leader.procs_per_node, follower.procs_per_node)
      << "record " << index;
  EXPECT_EQ(leader.compute_cost, follower.compute_cost) << "record " << index;
  EXPECT_EQ(leader.network_cost, follower.network_cost) << "record " << index;
  EXPECT_EQ(leader.total_cost, follower.total_cost) << "record " << index;
}

TEST(ReplicaTest, FollowerReplaysLeaderDecisionsBitForBit) {
  const std::string path = log_path("replica_parity");
  auto store = seeded_store(6);
  monitor::DeltaLogWriter writer(path);

  const AllocationRequest request = request_for();
  const RequestProfile profile = RequestProfile::of(request);
  NetworkLoadAwareAllocator leader_alloc;
  ResourceBroker leader(leader_alloc);
  obs::AuditLog leader_audit;
  leader.set_audit_log(&leader_audit);

  NetworkLoadAwareAllocator follower_alloc;
  FollowerBroker follower(follower_alloc, path, profile);
  obs::AuditLog follower_audit;
  follower.set_audit_log(&follower_audit);

  double now = 10.0;
  for (int epoch = 0; epoch < 6; ++epoch) {
    auto snapshot = std::make_shared<const monitor::ClusterSnapshot>(
        store->assemble(now));
    const monitor::SnapshotDelta delta = store->drain_delta();
    ASSERT_TRUE(writer.append(*snapshot, delta));
    leader.refresh_epoch(snapshot, delta, profile);
    EXPECT_EQ(follower.poll_once(now), 1);
    EXPECT_EQ(follower.status(now).state_version, snapshot->version);

    const BrokerDecision from_leader =
        leader.decide(leader.pin_epoch(), request);
    const BrokerDecision from_follower = follower.decide(request, now);
    expect_decisions_equal(from_leader, from_follower,
                           ("epoch " + std::to_string(epoch)).c_str());

    now += 3.0;
    monitor::NodeSnapshot record = store->node_record(epoch % 6);
    record.cpu_load += 0.4;
    store->write_node_record(now, record);
    store->write_latency(now, epoch % 6, (epoch + 2) % 6, 80.0 + epoch, 81.0);
    store->write_latency(now, (epoch + 2) % 6, epoch % 6, 80.0 + epoch, 81.0);
  }

  // Batch path: same pins, same answers (one shared profile, varying size).
  const std::vector<AllocationRequest> batch = {
      request_for(4), request_for(8), request_for(12)};
  const std::vector<BrokerDecision> leader_batch =
      leader.decide_batch(leader.pin_epoch(), batch);
  const std::vector<BrokerDecision> follower_batch =
      follower.decide_batch(batch, now);
  ASSERT_EQ(leader_batch.size(), follower_batch.size());
  for (std::size_t i = 0; i < leader_batch.size(); ++i) {
    expect_decisions_equal(leader_batch[i], follower_batch[i],
                           ("batch " + std::to_string(i)).c_str());
  }

  // Audit trails replicate too, modulo the follower's own timings.
  const std::vector<obs::AuditRecord> leader_records = leader_audit.records();
  const std::vector<obs::AuditRecord> follower_records =
      follower_audit.records();
  ASSERT_EQ(leader_records.size(), follower_records.size());
  for (std::size_t i = 0; i < leader_records.size(); ++i) {
    expect_audit_parity(leader_records[i], follower_records[i],
                        static_cast<int>(i));
  }
  std::remove(path.c_str());
}

TEST(ReplicaTest, DegradedParityUnderQuarantineAndStalePairFallback) {
  const std::string path = log_path("replica_degraded");
  auto store = seeded_store(6);
  // Pair-age parity holds across delta frames (writes land in the tick
  // that assembles the frame — see the FollowerBroker class comment); a
  // compaction frame re-stamps every pair at its snapshot time, so keep
  // the compaction policy out of this test's way.
  monitor::DeltaLogWriter::Options no_compaction;
  no_compaction.compact_after_deltas = 1 << 20;
  no_compaction.compact_bytes_ratio = 1e9;
  monitor::DeltaLogWriter writer(path, no_compaction);

  DegradationPolicy policy;
  policy.node_staleness_budget_s = 30.0;
  policy.node_readmit_s = 15.0;
  policy.pair_staleness_budget_s = 40.0;
  policy.pair_penalty = 1.5;
  policy.max_epoch_age_s = 1e6;
  policy.block_quarantine_fraction = 0.6;

  const AllocationRequest request = request_for();
  const RequestProfile profile = RequestProfile::of(request);
  NetworkLoadAwareAllocator leader_alloc;
  ResourceBroker leader(leader_alloc);
  leader.set_degradation(policy);
  NetworkLoadAwareAllocator follower_alloc;
  FollowerBroker follower(follower_alloc, path, profile);
  follower.set_degradation(policy);

  // Seed frame: every write stamped at t=10, so the follower's mirror
  // reconstructs the leader's staleness view exactly.
  double now = 10.0;
  {
    auto snapshot = std::make_shared<const monitor::ClusterSnapshot>(
        store->assemble(now));
    const monitor::SnapshotDelta delta = store->drain_delta();
    ASSERT_TRUE(writer.append(*snapshot, delta));
    leader.refresh_epoch(snapshot, delta, store->staleness_view(now),
                         profile);
    EXPECT_EQ(follower.poll_once(now), 1);
  }

  // Starve nodes 3 and 4 (switch 1 loses 2 of 3 — block quarantine takes
  // node 5 with them) and the (1,2) pair (falls back to the 5-min mean),
  // while refreshing everything else each tick.
  bool saw_quarantine = false;
  bool saw_block_overlay = false;
  bool saw_pair_fallback = false;
  for (now = 25.0; now <= 85.0; now += 20.0) {
    for (const int alive : {0, 1, 2, 5}) {
      monitor::NodeSnapshot record = store->node_record(alive);
      record.cpu_load = 0.1 * alive + 0.01 * now;
      store->write_node_record(now, record);
    }
    store->write_latency(now, 0, 1, 90.0 + now * 0.1, 91.0);
    store->write_latency(now, 1, 0, 90.0 + now * 0.1, 91.0);
    store->write_latency(now, 0, 2, 95.0 + now * 0.1, 96.0);
    store->write_latency(now, 2, 0, 95.0 + now * 0.1, 96.0);

    auto snapshot = std::make_shared<const monitor::ClusterSnapshot>(
        store->assemble(now));
    const monitor::SnapshotDelta delta = store->drain_delta();
    ASSERT_TRUE(writer.append(*snapshot, delta));
    leader.refresh_epoch(snapshot, delta, store->staleness_view(now),
                         profile);
    EXPECT_EQ(follower.poll_once(now), 1);

    const BrokerDecision from_leader =
        leader.decide(leader.pin_epoch(), request);
    const BrokerDecision from_follower = follower.decide(request, now);
    expect_decisions_equal(from_leader, from_follower,
                           ("tick " + std::to_string(now)).c_str());

    const EpochPin pin = leader.pin_epoch();
    ASSERT_TRUE(pin.valid());
    const obs::EpochStatus replicated = follower.epoch_status(now);
    EXPECT_EQ(pin.prepared->quarantined, replicated.quarantined)
        << "tick " << now;
    EXPECT_EQ(pin.prepared->pair_fallbacks, replicated.pair_fallbacks)
        << "tick " << now;
    EXPECT_EQ(pin.prepared->degraded, replicated.degraded) << "tick " << now;
    saw_quarantine |= replicated.quarantined >= 2;
    saw_block_overlay |= replicated.quarantined >= 3;
    saw_pair_fallback |= replicated.pair_fallbacks >= 1;
  }
  // The scenario actually engaged every degradation mechanism under test.
  EXPECT_TRUE(saw_quarantine);
  EXPECT_TRUE(saw_block_overlay);
  EXPECT_TRUE(saw_pair_fallback);
  std::remove(path.c_str());
}

TEST(ReplicaTest, NodeOnlyPollsShareTheReadersPairMatrices) {
  // The published epoch's snapshot is a copy of the reader's replicated
  // state; node-only frames write no pair, so the copies never detach.
  for (const bool degraded : {false, true}) {
    SCOPED_TRACE(degraded ? "degraded" : "plain");
    const std::string path = log_path("replica_shared_pairs");
    auto store = seeded_store(6);
    monitor::DeltaLogWriter writer(path);
    NetworkLoadAwareAllocator alloc;
    FollowerBroker follower(alloc, path, RequestProfile::of(request_for()));
    if (degraded) follower.set_degradation(DegradationPolicy{});

    double now = 10.0;
    std::vector<std::shared_ptr<const monitor::ClusterSnapshot>> published;
    for (int tick = 0; tick < 3; ++tick) {
      if (tick > 0) {
        now += 3.0;
        monitor::NodeSnapshot record = store->node_record(tick);
        record.cpu_load += 0.5;
        store->write_node_record(now, record);
      }
      const monitor::ClusterSnapshot snapshot = store->assemble(now);
      ASSERT_TRUE(writer.append(snapshot, store->drain_delta()));
      ASSERT_EQ(follower.poll_once(now), 1);
      published.push_back(follower.broker().pin_epoch().prepared->snapshot);
    }
    const monitor::NetSnapshot& reader = follower.snapshot().net;
    for (int tick = 1; tick < 3; ++tick) {
      const monitor::NetSnapshot& net =
          published[static_cast<std::size_t>(tick)]->net;
      EXPECT_EQ(net.latency_us.data(), reader.latency_us.data());
      EXPECT_EQ(net.latency_5min_us.data(), reader.latency_5min_us.data());
      EXPECT_EQ(net.bandwidth_mbps.data(), reader.bandwidth_mbps.data());
      EXPECT_EQ(net.peak_mbps.data(), reader.peak_mbps.data());
    }
    std::remove(path.c_str());
  }
}

TEST(ReplicaTest, FencesDecidesOnceReplicationLagExceedsTheBound) {
  const std::string path = log_path("replica_fence");
  auto store = seeded_store(4);
  monitor::DeltaLogWriter writer(path);
  ASSERT_TRUE(writer.append(store->assemble(10.0), store->drain_delta()));

  const AllocationRequest request = request_for();
  NetworkLoadAwareAllocator allocator;
  ReplicaOptions options;
  options.max_epoch_age_s = 50.0;
  FollowerBroker follower(allocator, path, RequestProfile::of(request),
                          options);

  // Before any frame: refused, not fenced.
  const BrokerDecision unseeded = follower.decide(request, 11.0);
  EXPECT_EQ(unseeded.action, BrokerDecision::Action::kWait);
  EXPECT_NE(unseeded.reason.find("no replicated state"), std::string::npos);
  EXPECT_FALSE(follower.epoch_status(11.0).published);

  EXPECT_EQ(follower.poll_once(12.0), 1);
  const BrokerDecision fresh = follower.decide(request, 30.0);
  EXPECT_EQ(fresh.action, BrokerDecision::Action::kAllocate);
  EXPECT_TRUE(follower.epoch_status(30.0).ready());

  // State time is 10; at now=100 the lag (90 s) exceeds the 50 s bound.
  const BrokerDecision fenced = follower.decide(request, 100.0);
  EXPECT_EQ(fenced.action, BrokerDecision::Action::kWait);
  EXPECT_NE(fenced.reason.find("replica fenced"), std::string::npos);
  EXPECT_TRUE(follower.status(100.0).fenced_now);
  EXPECT_EQ(follower.status(100.0).fenced_decides, 1);
  EXPECT_FALSE(follower.epoch_status(100.0).ready());

  const std::vector<AllocationRequest> batch = {request_for(4),
                                                request_for(8)};
  const std::vector<BrokerDecision> refused =
      follower.decide_batch(batch, 100.0);
  ASSERT_EQ(refused.size(), 2u);
  for (const BrokerDecision& decision : refused) {
    EXPECT_EQ(decision.action, BrokerDecision::Action::kWait);
    EXPECT_NE(decision.reason.find("replica fenced"), std::string::npos);
  }

  // A fresh frame heals the fence.
  monitor::NodeSnapshot record = store->node_record(1);
  record.cpu_load = 0.7;
  store->write_node_record(99.0, record);
  ASSERT_TRUE(writer.append(store->assemble(99.0), store->drain_delta()));
  EXPECT_EQ(follower.poll_once(100.0), 1);
  EXPECT_EQ(follower.decide(request, 100.0).action,
            BrokerDecision::Action::kAllocate);
  std::remove(path.c_str());
}

TEST(ReplicaTest, PromotesFromLastGoodFrameWhenLeaderDiesMidCompaction) {
  const std::string path = log_path("replica_promote");
  auto store = seeded_store(4);
  monitor::DeltaLogWriter writer(path);
  ASSERT_TRUE(writer.append(store->assemble(10.0), store->drain_delta()));
  monitor::NodeSnapshot record = store->node_record(2);
  record.cpu_load = 1.3;
  store->write_node_record(13.0, record);
  ASSERT_TRUE(writer.append(store->assemble(13.0), store->drain_delta()));

  const AllocationRequest request = request_for();
  NetworkLoadAwareAllocator allocator;
  FollowerBroker follower(allocator, path, RequestProfile::of(request));
  EXPECT_EQ(follower.poll_once(13.0), 2);
  const std::uint64_t replicated_version =
      follower.status(13.0).state_version;

  // The leader dies mid-compaction: the armed torn write damages the tmp
  // file, the append fails, and the log stops making progress.
  record = store->node_record(0);
  record.cpu_load = 2.2;
  store->write_node_record(16.0, record);
  monitor::arm_torn_snapshot_write();
  EXPECT_FALSE(writer.write_full(store->assemble(16.0)));
  EXPECT_EQ(follower.poll_once(16.0), 0);

  // Silence policy: 3 s of silence at t=16 is under the 15 s default...
  EXPECT_FALSE(follower.maybe_promote(16.0));
  EXPECT_EQ(follower.role(), ReplicaStatus::Role::kFollower);
  // ...16 s at t=29 is over it.
  EXPECT_TRUE(follower.maybe_promote(29.0));
  EXPECT_EQ(follower.role(), ReplicaStatus::Role::kLeader);
  EXPECT_EQ(follower.status(29.0).promotions, 1);
  EXPECT_FALSE(follower.promote(30.0));  // already leader

  // Promotion re-laid the log from the last-good replicated frame: a fresh
  // replay converges on exactly the promoted state, torn tail healed.
  const monitor::ClusterSnapshot replayed = monitor::replay_delta_log(path);
  EXPECT_EQ(replayed.version, replicated_version);
  EXPECT_EQ(replayed.version, follower.snapshot().version);
  EXPECT_EQ(replayed.net.latency_us, follower.snapshot().net.latency_us);
  EXPECT_EQ(replayed.nodes[2].cpu_load, 1.3);
  EXPECT_EQ(replayed.nodes[0].cpu_load, 0.0);  // the dying write never landed

  // The new leader takes over appends from a store restored off the
  // replicated state, and a second follower converges on the same log.
  monitor::MonitorStore takeover(4);
  takeover.restore(follower.snapshot());
  (void)takeover.drain_delta();
  record = takeover.node_record(3);
  record.cpu_load = 3.1;
  takeover.write_node_record(35.0, record);
  monitor::DeltaLogWriter takeover_writer(path);
  ASSERT_TRUE(
      takeover_writer.append(takeover.assemble(35.0), takeover.drain_delta()));
  const monitor::ClusterSnapshot converged = monitor::replay_delta_log(path);
  EXPECT_EQ(converged.nodes[3].cpu_load, 3.1);
  EXPECT_GT(converged.version, replicated_version);
  std::remove(path.c_str());
}

TEST(ReplicaTest, BackgroundTailThreadFollowsAndStops) {
  const std::string path = log_path("replica_thread");
  auto store = seeded_store(4);
  monitor::DeltaLogWriter writer(path);
  ASSERT_TRUE(writer.append(store->assemble(10.0), store->drain_delta()));

  const AllocationRequest request = request_for();
  NetworkLoadAwareAllocator allocator;
  ReplicaOptions options;
  options.poll_interval_s = 0.001;
  FollowerBroker follower(allocator, path, RequestProfile::of(request),
                          options);
  std::atomic<double> clock_now{10.0};
  follower.start([&clock_now] { return clock_now.load(); });

  for (int i = 0; i < 2000 && !follower.have_state(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(follower.have_state());
  EXPECT_EQ(follower.decide(request, clock_now.load()).action,
            BrokerDecision::Action::kAllocate);

  // Append under the live tail thread and watch the version advance.
  monitor::NodeSnapshot record = store->node_record(1);
  record.cpu_load = 0.9;
  store->write_node_record(20.0, record);
  ASSERT_TRUE(writer.append(store->assemble(20.0), store->drain_delta()));
  const std::uint64_t want = store->assemble(20.0).version;
  clock_now.store(20.0);
  for (int i = 0;
       i < 2000 && follower.status(20.0).state_version != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(follower.status(20.0).state_version, want);

  follower.stop();
  follower.stop();  // idempotent
  const long frames = follower.status(20.0).frames_ingested;
  follower.start([&clock_now] { return clock_now.load(); });
  follower.stop();
  EXPECT_GE(follower.status(20.0).frames_ingested, frames);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nlarm::core
