// Refresh-plane stress: the parallel epoch-refresh machinery (multi-threaded
// prepared rebuilds, sharded delta applies, decode-ahead log ingest) racing
// against hot decide()/decide_batch() readers and a live follower tail.
// These are the ThreadSanitizer targets of the NLARM_SANITIZE=thread CI job
// (ctest regex matches on "Refresh").
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
#include "core/degrade.h"
#include "core/epoch.h"
#include "core/hierarchical.h"
#include "core/replica.h"
#include "monitor/delta_log.h"
#include "monitor/store.h"
#include "sim/rng.h"
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

// A store with every record written once; switches of 3 nodes each.
std::unique_ptr<monitor::MonitorStore> seeded_store(int n, double now = 1.0) {
  auto store = std::make_unique<monitor::MonitorStore>(n);
  store->write_livehosts(now,
                         std::vector<bool>(static_cast<std::size_t>(n), true));
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

// Random churn against the store: a node record rewrite plus, sometimes, a
// pair measurement — the same shape the monitoring daemons produce.
void churn(monitor::MonitorStore& store, sim::Rng& rng, int n, double now) {
  monitor::NodeSnapshot record;
  const int id = static_cast<int>(rng.uniform_int(0, n - 1));
  record.spec.id = id;
  record.spec.hostname = "host" + std::to_string(id);
  record.spec.switch_id = id / 3;
  record.spec.core_count = 8;
  record.spec.cpu_freq_ghz = 3.0;
  record.spec.total_mem_gb = 16.0;
  record.cpu_load = rng.uniform(0.0, 2.0);
  store.write_node_record(now, record);
  if (rng.chance(0.5)) {
    const int u = static_cast<int>(rng.uniform_int(0, n - 2));
    const int v = static_cast<int>(rng.uniform_int(u + 1, n - 1));
    store.write_latency(now, u, v, rng.uniform(20.0, 200.0), 100.0);
    store.write_bandwidth(now, u, v, rng.uniform(400.0, 940.0), 941.0);
  }
}

// Parallel full rebuilds and sharded delta applies racing hot readers: one
// publisher thread alternates full refresh_epoch() (fresh builder, pool
// fan-out) with O(dirty) delta refresh_epoch() (sharded apply) while reader
// threads hammer decide() and decide_batch() through pinned epochs. Every
// decide must complete and allocate against a coherent epoch.
TEST(RefreshStressTest, ParallelRefreshRacesHotDeciders) {
  constexpr int kNodes = 12;
  constexpr int kReaders = 3;
  constexpr int kRefreshes = 40;

  auto store = seeded_store(kNodes);
  const AllocationRequest request = request_for();
  const RequestProfile profile = RequestProfile::of(request);

  NetworkLoadAwareAllocator allocator;
  ResourceBroker broker(allocator);
  broker.set_refresh_threads(4);
  broker.refresh_epoch(
      std::make_shared<const monitor::ClusterSnapshot>(store->assemble(1.0)),
      profile);
  store->drain_delta();

  std::atomic<bool> stop{false};
  std::atomic<long> decides{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&broker, &request, &stop, &decides, t] {
      EpochPin pin = broker.pin_epoch();
      const std::vector<AllocationRequest> batch{request, request};
      while (!stop.load(std::memory_order_relaxed)) {
        broker.refresh_pin(pin);
        if (t % 2 == 0) {
          const BrokerDecision decision = broker.decide(pin, request);
          ASSERT_EQ(decision.action, BrokerDecision::Action::kAllocate);
        } else {
          const std::vector<BrokerDecision> decisions =
              broker.decide_batch(pin, batch);
          ASSERT_EQ(decisions.size(), batch.size());
          ASSERT_EQ(decisions[0].action, BrokerDecision::Action::kAllocate);
        }
        decides.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  sim::Rng rng(7);
  double now = 1.0;
  for (int i = 0; i < kRefreshes; ++i) {
    now += 1.0;
    churn(*store, rng, kNodes, now);
    auto snapshot = std::make_shared<const monitor::ClusterSnapshot>(
        store->assemble(now));
    if (i % 4 == 0) {
      // Full rebuild: the delta is dropped, the builder rebuilds every pair
      // across the pool.
      store->drain_delta();
      broker.refresh_epoch(snapshot, profile);
    } else {
      broker.refresh_epoch(snapshot, store->drain_delta(), profile);
    }
  }
  // Guarantee real overlap on any scheduler: every reader must decide at
  // least once against the final epoch before the race is called off.
  while (decides.load(std::memory_order_relaxed) < kReaders) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : readers) thread.join();

  EXPECT_EQ(broker.epoch(), static_cast<std::uint64_t>(kRefreshes) + 1);
  EXPECT_GE(decides.load(), kReaders);
}

// Changing the refresh worker count between publications while readers stay
// pinned: pool teardown/rebuild must not disturb in-flight epochs. At 192
// nodes the readers' decides fan candidate generation out on the very pool
// set_refresh_threads swaps, so a swap lands while a decide holds the old
// pool.
TEST(RefreshStressTest, ResizingRefreshPoolUnderPinnedReaders) {
  for (const int nodes : {9, 192}) {
    SCOPED_TRACE(::testing::Message() << "nodes=" << nodes);
    auto store = seeded_store(nodes);
    const AllocationRequest request = request_for();
    const RequestProfile profile = RequestProfile::of(request);

    // seeded_store loads node i with 0.1·i, so a large cluster's mean load
    // per core passes the default wait threshold.
    BrokerPolicy policy;
    policy.max_load_per_core = 10.0;
    NetworkLoadAwareAllocator allocator;
    ResourceBroker broker(allocator, policy);
    broker.refresh_epoch(std::make_shared<const monitor::ClusterSnapshot>(
                             store->assemble(1.0)),
                         profile);
    store->drain_delta();

    std::atomic<bool> stop{false};
    std::atomic<long> decides{0};
    std::thread reader([&broker, &request, &stop, &decides] {
      EpochPin pin = broker.pin_epoch();
      while (!stop.load(std::memory_order_relaxed)) {
        broker.refresh_pin(pin);
        const BrokerDecision decision = broker.decide(pin, request);
        ASSERT_EQ(decision.action, BrokerDecision::Action::kAllocate);
        decides.fetch_add(1, std::memory_order_relaxed);
      }
    });

    sim::Rng rng(11);
    double now = 1.0;
    const int sizes[] = {1, 3, 2, 4, 1, 2};
    for (int round = 0; round < 12; ++round) {
      broker.set_refresh_threads(sizes[round % 6]);
      now += 1.0;
      churn(*store, rng, nodes, now);
      auto snapshot = std::make_shared<const monitor::ClusterSnapshot>(
          store->assemble(now));
      broker.refresh_epoch(snapshot, store->drain_delta(), profile);
    }
    while (decides.load(std::memory_order_relaxed) < 1) {
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    EXPECT_EQ(broker.epoch(), 13u);
    EXPECT_GT(decides.load(), 0);
  }
}

// The full replicated refresh plane live: a leader thread appends churned
// frames to the delta log while a FollowerBroker with parallel refreshes AND
// decode-ahead ingest tails it from its background thread, with concurrent
// decide()/decide_batch() callers against the follower the whole time.
TEST(RefreshStressTest, FollowerTailDecodeAheadUnderLoad) {
  constexpr int kNodes = 9;
  constexpr int kFrames = 60;
  const std::string path = log_path("refresh_stress_tail");

  auto store = seeded_store(kNodes);
  const AllocationRequest request = request_for();
  const RequestProfile profile = RequestProfile::of(request);

  monitor::DeltaLogWriter writer(path);
  ASSERT_TRUE(writer.append(store->assemble(1.0), store->drain_delta()));

  std::atomic<double> now{1.0};
  NetworkLoadAwareAllocator allocator;
  ReplicaOptions options;
  options.max_epoch_age_s = 0.0;  // no fencing: sim time vs wall cadence
  options.poll_interval_s = 0.001;
  options.refresh_threads = 2;
  options.decode_ahead = true;
  FollowerBroker follower(allocator, path, profile, options);
  follower.start([&now] { return now.load(std::memory_order_relaxed); });

  std::atomic<bool> stop{false};
  std::atomic<long> served{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&follower, &request, &now, &stop, &served, t] {
      const std::vector<AllocationRequest> batch{request, request};
      while (!stop.load(std::memory_order_relaxed)) {
        const double at = now.load(std::memory_order_relaxed);
        if (t == 0) {
          const BrokerDecision decision = follower.decide(request, at);
          if (decision.action == BrokerDecision::Action::kAllocate) {
            served.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          const std::vector<BrokerDecision> decisions =
              follower.decide_batch(batch, at);
          ASSERT_EQ(decisions.size(), batch.size());
          if (decisions[0].action == BrokerDecision::Action::kAllocate) {
            served.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  sim::Rng rng(23);
  double t = 1.0;
  for (int i = 0; i < kFrames; ++i) {
    t += 1.0;
    churn(*store, rng, kNodes, t);
    ASSERT_TRUE(writer.append(store->assemble(t), store->drain_delta()));
    now.store(t, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Let the tail thread drain the remaining frames, then stop everything.
  const std::uint64_t final_version = store->assemble(t).version;
  for (int spin = 0; spin < 2000; ++spin) {
    if (follower.have_state() &&
        follower.status(t).state_version == final_version) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : readers) thread.join();
  follower.stop();

  const ReplicaStatus status = follower.status(t);
  EXPECT_TRUE(status.have_state);
  EXPECT_EQ(status.state_version, final_version);
  EXPECT_GT(status.frames_ingested, 0);
  EXPECT_GT(served.load(), 0);

  // The replicated epoch serves the same decision a leader would publish
  // from the identical state.
  ResourceBroker leader(allocator);
  leader.set_refresh_threads(2);
  leader.refresh_epoch(
      std::make_shared<const monitor::ClusterSnapshot>(store->assemble(t)),
      profile);
  const BrokerDecision expect = leader.decide(leader.pin_epoch(), request);
  const BrokerDecision got = follower.decide(request, t);
  EXPECT_EQ(expect.action, got.action);
  EXPECT_EQ(expect.allocation.nodes, got.allocation.nodes);
  EXPECT_EQ(expect.allocation.total_cost, got.allocation.total_cost);
}

// Copy-on-write pair matrices under load: the store thread writes pairs and
// assembles, so every pair write detaches the matrices that the published
// epochs still share, while decider threads hold pinned epochs and read
// them. One broker is tiled with no dense NL matrix, so its two-phase
// decide reads raw pair terms lazily through SnapshotPairSource; the other
// degrades (its rewrite detaches two matrices of its own copy). A follower
// tails the log and detaches its reader's state on every pair frame.
TEST(RefreshStressTest, SharedPairMatricesDetachUnderPinnedDeciders) {
  constexpr int kNodes = 12;
  constexpr int kTicks = 40;
  const std::string path = log_path("refresh_stress_cow");

  auto store = seeded_store(kNodes);
  const AllocationRequest request = request_for();
  const RequestProfile profile = RequestProfile::of(request);

  NetworkLoadAwareAllocator flat_allocator;
  ResourceBroker flat(flat_allocator);
  DegradationPolicy degradation;
  degradation.pair_staleness_budget_s = 5.0;  // churned-out pairs fall back
  degradation.max_epoch_age_s = 1e6;
  flat.set_degradation(degradation);

  NetworkLoadAwareAllocator tiled_allocator;
  ResourceBroker tiled(tiled_allocator);
  HierarchicalOptions hierarchy;
  TilingOptions tiling;
  tiling.dense_nl_limit = 0;  // decides read pairs through the snapshot
  tiled.set_hierarchy(hierarchy, tiling);

  monitor::DeltaLogWriter writer(path);
  const auto publish = [&](double now) {
    auto snapshot = std::make_shared<const monitor::ClusterSnapshot>(
        store->assemble(now));
    const monitor::SnapshotDelta delta = store->drain_delta();
    EXPECT_TRUE(writer.append(*snapshot, delta));
    flat.refresh_epoch(snapshot, delta, store->staleness_view(now), profile);
    tiled.refresh_epoch(snapshot, delta, profile);
  };
  publish(1.0);

  NetworkLoadAwareAllocator follower_allocator;
  ReplicaOptions options;
  options.max_epoch_age_s = 0.0;
  options.poll_interval_s = 0.001;
  FollowerBroker follower(follower_allocator, path, profile, options);
  std::atomic<double> clock{1.0};
  follower.start([&clock] { return clock.load(std::memory_order_relaxed); });

  std::atomic<bool> stop{false};
  std::atomic<long> decides{0};
  std::vector<std::thread> deciders;
  for (ResourceBroker* broker : {&flat, &tiled}) {
    deciders.emplace_back([broker, &request, &stop, &decides] {
      EpochPin pin = broker->pin_epoch();
      while (!stop.load(std::memory_order_relaxed)) {
        broker->refresh_pin(pin);
        const BrokerDecision decision = broker->decide(pin, request);
        ASSERT_EQ(decision.action, BrokerDecision::Action::kAllocate);
        decides.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  deciders.emplace_back([&follower, &request, &clock, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)follower.decide(request, clock.load(std::memory_order_relaxed));
    }
  });

  sim::Rng rng(31);
  double now = 1.0;
  for (int tick = 0; tick < kTicks; ++tick) {
    now += 1.0;
    churn(*store, rng, kNodes, now);
    if (tick % 3 != 0) {
      const int u = static_cast<int>(rng.uniform_int(0, kNodes - 2));
      const int v = static_cast<int>(rng.uniform_int(u + 1, kNodes - 1));
      store->write_latency(now, v, u, rng.uniform(20.0, 200.0), 100.0);
      store->write_bandwidth(now, v, u, rng.uniform(400.0, 940.0), 941.0);
    }
    publish(now);
    clock.store(now, std::memory_order_relaxed);
  }
  const std::uint64_t final_version = store->snapshot_version();
  for (int spin = 0; spin < 2000; ++spin) {
    if (follower.have_state() &&
        follower.status(now).state_version == final_version &&
        decides.load(std::memory_order_relaxed) >= 2) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : deciders) thread.join();
  follower.stop();

  EXPECT_EQ(follower.status(now).state_version, final_version);
  EXPECT_GE(decides.load(), 2);
  // Every detach left the published snapshots' values intact: the last
  // epoch reads exactly what the store holds now.
  const monitor::ClusterSnapshot expect = store->assemble(now);
  EXPECT_TRUE(tiled.pin_epoch().prepared->snapshot->net.latency_us ==
              expect.net.latency_us);
  EXPECT_TRUE(follower.snapshot().net.bandwidth_mbps ==
              expect.net.bandwidth_mbps);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nlarm::core
