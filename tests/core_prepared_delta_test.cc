// Property test for incremental prepared-state maintenance.
//
// A MonitorStore is driven through long randomized tick sequences of mixed
// churn (node records, P2P pairs, occasional livehost flips). After every
// tick the incrementally-updated PreparedBuilder must match a from-scratch
// rebuild bit for bit — usable set, CL, NL matrix, pc, gate aggregates —
// and the allocations decided against the incremental epoch must equal the
// classic allocator and the reference implementation.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/allocator.h"
#include "core/broker.h"
#include "core/epoch.h"
#include "core/prepared.h"
#include "core/reference.h"
#include "monitor/store.h"
#include "obs/catalog.h"
#include "sim/rng.h"

namespace nlarm::core {
namespace {

monitor::NodeSnapshot random_record(cluster::NodeId id, sim::Rng& rng) {
  monitor::NodeSnapshot record;
  record.spec.id = id;
  record.spec.hostname = cluster::default_hostname(id);
  record.spec.core_count = rng.chance(0.5) ? 8 : 12;
  record.spec.cpu_freq_ghz = rng.uniform(2.0, 4.5);
  record.spec.total_mem_gb = 16.0;
  const double load = rng.uniform(0.0, 8.0);
  record.cpu_load = load;
  record.cpu_load_avg = {load, load * 0.9, load * 0.8};
  const double util = rng.uniform(0.0, 1.0);
  record.cpu_util = util;
  record.cpu_util_avg = {util, util, util};
  const double flow = rng.uniform(0.0, 400.0);
  record.net_flow_mbps = flow;
  record.net_flow_avg = {flow, flow, flow};
  record.mem_used_gb = rng.uniform(1.0, 14.0);
  const double avail = 16.0 - record.mem_used_gb;
  record.mem_avail_avg = {avail, avail, avail};
  record.users = static_cast<int>(rng.uniform_int(0, 4));
  return record;
}

void write_random_pair(monitor::MonitorStore& store, double now, int u, int v,
                       sim::Rng& rng) {
  if (rng.chance(0.7)) {
    const double lat = rng.uniform(20.0, 500.0);
    store.write_latency(now, u, v, lat, lat * 1.1);
    store.write_latency(now, v, u, lat, lat * 1.1);
  }
  if (rng.chance(0.7)) {
    const double peak = 1000.0;
    const double bw = rng.uniform(100.0, peak);
    store.write_bandwidth(now, u, v, bw, peak);
    store.write_bandwidth(now, v, u, bw, peak);
  }
}

AllocationRequest make_request(int nprocs) {
  AllocationRequest request;
  request.nprocs = nprocs;
  request.ppn = 4;
  request.job = JobWeights{0.3, 0.7};
  return request;
}

void expect_same_prepared(const PreparedSnapshot& got,
                          const PreparedSnapshot& want) {
  EXPECT_EQ(got.version, want.version);
  EXPECT_EQ(got.usable, want.usable);
  EXPECT_EQ(got.cl, want.cl);
  ASSERT_NE(got.nl, nullptr);
  ASSERT_NE(want.nl, nullptr);
  EXPECT_TRUE(*got.nl == *want.nl) << "NL matrices diverged";
  EXPECT_EQ(got.pc, want.pc);
  EXPECT_EQ(got.pos_of, want.pos_of);
  EXPECT_EQ(got.load_per_core, want.load_per_core);
  EXPECT_EQ(got.effective_capacity, want.effective_capacity);
}

void expect_same_allocation(const Allocation& got, const Allocation& want) {
  EXPECT_EQ(got.nodes, want.nodes);
  EXPECT_EQ(got.procs_per_node, want.procs_per_node);
  EXPECT_EQ(got.total_cost, want.total_cost);
  EXPECT_EQ(got.avg_cpu_load, want.avg_cpu_load);
  EXPECT_EQ(got.avg_latency_us, want.avg_latency_us);
  EXPECT_EQ(got.avg_bw_complement_mbps, want.avg_bw_complement_mbps);
}

void run_delta_property(int node_count, int ticks, std::uint64_t seed) {
  sim::Rng rng(seed);
  monitor::MonitorStore store(node_count);
  const AllocationRequest request = make_request(node_count);
  const RequestProfile profile = RequestProfile::of(request);

  // Initial full state: everyone live, every record written, every pair
  // measured.
  double now = 1.0;
  std::vector<bool> livehosts(static_cast<std::size_t>(node_count), true);
  store.write_livehosts(now, livehosts);
  for (int i = 0; i < node_count; ++i) {
    store.write_node_record(now, random_record(i, rng));
  }
  for (int u = 0; u < node_count; ++u) {
    for (int v = u + 1; v < node_count; ++v) {
      write_random_pair(store, now, u, v, rng);
    }
  }

  PreparedBuilder incremental(profile);
  std::shared_ptr<const PreparedSnapshot> previous_epoch;
  int incremental_ticks = 0;
  int fallback_ticks = 0;
  int shared_nl_ticks = 0;

  for (int tick = 0; tick < ticks; ++tick) {
    now += 1.0;
    bool touched_pairs = false;
    bool flipped_livehost = false;
    if (tick > 0) {
      // Mixed churn: a few node records every tick, pair probes on some
      // ticks (the paper's pair cadence is much slower than the node one),
      // and a rare livehost flip to exercise the fallback.
      const int node_churn = static_cast<int>(
          rng.uniform_int(0, std::max(1, node_count / 8)));
      for (int i = 0; i < node_churn; ++i) {
        const int id = static_cast<int>(rng.uniform_int(0, node_count - 1));
        store.write_node_record(now, random_record(id, rng));
      }
      if (rng.chance(0.3) && node_count >= 2) {
        const int pair_churn = static_cast<int>(
            rng.uniform_int(1, std::max(2, node_count / 4)));
        for (int i = 0; i < pair_churn; ++i) {
          const int u = static_cast<int>(rng.uniform_int(0, node_count - 2));
          const int v =
              static_cast<int>(rng.uniform_int(u + 1, node_count - 1));
          write_random_pair(store, now, u, v, rng);
          touched_pairs = true;
        }
      }
      if (rng.chance(0.02)) {
        const auto idx =
            static_cast<std::size_t>(rng.uniform_int(0, node_count - 1));
        livehosts[idx] = !livehosts[idx];
        store.write_livehosts(now, livehosts);
        flipped_livehost = true;
      }
    }

    auto snapshot =
        std::make_shared<const monitor::ClusterSnapshot>(store.assemble(now));
    const monitor::SnapshotDelta delta = store.drain_delta();
    if (snapshot->usable_nodes().empty()) continue;  // nothing to prepare

    const bool applied = incremental.update(snapshot, delta);
    if (applied) {
      ++incremental_ticks;
    } else {
      ++fallback_ticks;
    }
    if (flipped_livehost) {
      EXPECT_FALSE(applied) << "livehost flip must force a full rebuild";
    }
    auto epoch = incremental.build();

    // Oracle: a from-scratch rebuild of the same snapshot.
    PreparedBuilder oracle(profile);
    oracle.rebuild(snapshot);
    auto want = oracle.build();
    expect_same_prepared(*epoch, *want);

    // Node-only ticks must share the previously materialized NL matrix.
    if (applied && !touched_pairs && previous_epoch != nullptr) {
      EXPECT_EQ(epoch->nl.get(), previous_epoch->nl.get());
      ++shared_nl_ticks;
    }
    previous_epoch = epoch;

    if (tick % 50 == 0) {
      const Allocation via_epoch = allocate_prepared(*epoch, request);
      const Allocation via_oracle = allocate_prepared(*want, request);
      expect_same_allocation(via_epoch, via_oracle);

      NetworkLoadAwareAllocator classic;
      expect_same_allocation(via_epoch, classic.allocate(*snapshot, request));
      expect_same_allocation(via_epoch,
                             reference::allocate(*snapshot, request));
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "diverged at tick " << tick << " (seed " << seed << ")";
    }
  }

  // The churn mix must actually exercise all three regimes.
  EXPECT_GT(incremental_ticks, ticks / 2);
  if (ticks >= 200) {
    EXPECT_GT(fallback_ticks, 0);
    EXPECT_GT(shared_nl_ticks, 0);
  }
}

TEST(PreparedDeltaTest, RandomChurnTiny) { run_delta_property(8, 1000, 101); }

TEST(PreparedDeltaTest, RandomChurnPaperScale) {
  run_delta_property(60, 300, 202);
}

TEST(PreparedDeltaTest, RandomChurnLarge) { run_delta_property(257, 60, 303); }

TEST(PreparedDeltaTest, EmptyDeltaAdvancesVersionOnly) {
  monitor::MonitorStore store(4);
  sim::Rng rng(7);
  store.write_livehosts(1.0, {true, true, true, true});
  for (int i = 0; i < 4; ++i) {
    store.write_node_record(1.0, random_record(i, rng));
  }
  auto first =
      std::make_shared<const monitor::ClusterSnapshot>(store.assemble(1.0));
  const auto first_delta = store.drain_delta();

  const AllocationRequest request = make_request(8);
  PreparedBuilder builder(RequestProfile::of(request));
  builder.update(first, first_delta);

  // A livehosts rewrite of the unchanged view bumps the version but leaves
  // the delta empty; the update must still track the new version.
  store.write_livehosts(2.0, {true, true, true, true});
  auto second =
      std::make_shared<const monitor::ClusterSnapshot>(store.assemble(2.0));
  const auto second_delta = store.drain_delta();
  EXPECT_TRUE(second_delta.empty());
  EXPECT_TRUE(builder.update(second, second_delta));
  EXPECT_EQ(builder.state_version(), second->version);
  EXPECT_EQ(builder.build()->version, second->version);
}

TEST(PreparedDeltaTest, VersionGapFallsBack) {
  monitor::MonitorStore store(4);
  sim::Rng rng(8);
  store.write_livehosts(1.0, {true, true, true, true});
  for (int i = 0; i < 4; ++i) {
    store.write_node_record(1.0, random_record(i, rng));
  }
  auto first =
      std::make_shared<const monitor::ClusterSnapshot>(store.assemble(1.0));
  store.drain_delta();

  const AllocationRequest request = make_request(8);
  PreparedBuilder builder(RequestProfile::of(request));
  builder.rebuild(first);

  // Miss one delta (no drain between the two writes), then try to apply the
  // next: base_version no longer matches → full rebuild.
  store.write_node_record(2.0, random_record(0, rng));
  store.assemble(2.0);
  store.drain_delta();
  store.write_node_record(3.0, random_record(1, rng));
  auto third =
      std::make_shared<const monitor::ClusterSnapshot>(store.assemble(3.0));
  const auto gap_delta = store.drain_delta();
  EXPECT_FALSE(builder.update(third, gap_delta));
  EXPECT_EQ(builder.state_version(), third->version);

  PreparedBuilder oracle(RequestProfile::of(request));
  oracle.rebuild(third);
  expect_same_prepared(*builder.build(), *oracle.build());
}

TEST(PreparedDeltaTest, PairDeltaOnTheHeldSnapshotFallsBack) {
  // update() re-reads a dirty pair's old terms from the snapshot it holds.
  // A caller that rewrote that very object in place has destroyed them, so
  // the builder must rebuild rather than patch from the new values twice.
  monitor::MonitorStore store(6);
  sim::Rng rng(9);
  store.write_livehosts(1.0, std::vector<bool>(6, true));
  for (int i = 0; i < 6; ++i) {
    store.write_node_record(1.0, random_record(i, rng));
  }
  for (int u = 0; u < 6; ++u) {
    for (int v = u + 1; v < 6; ++v) write_random_pair(store, 1.0, u, v, rng);
  }
  auto snapshot =
      std::make_shared<monitor::ClusterSnapshot>(store.assemble(1.0));
  const AllocationRequest request = make_request(8);
  PreparedBuilder builder(RequestProfile::of(request));
  builder.rebuild(snapshot);

  snapshot->net.latency_us[1][4] = snapshot->net.latency_us[4][1] = 777.0;
  monitor::SnapshotDelta delta;
  delta.base_version = snapshot->version;
  delta.version = ++snapshot->version;
  delta.dirty_pairs = {{1, 4}};
  const std::uint64_t fallbacks =
      obs::metrics::prepared_incremental_fallbacks().value();
  EXPECT_FALSE(builder.update(snapshot, delta));
  EXPECT_EQ(obs::metrics::prepared_incremental_fallbacks().value(),
            fallbacks + 1);

  PreparedBuilder oracle(RequestProfile::of(request));
  oracle.rebuild(std::make_shared<const monitor::ClusterSnapshot>(*snapshot));
  expect_same_prepared(*builder.build(), *oracle.build());
}

}  // namespace
}  // namespace nlarm::core
