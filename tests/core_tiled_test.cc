// Tiled pair state: partition/tile-cache units, incremental tile-delta
// maintenance vs from-scratch shadow rebuilds under randomized churn, and
// the full serving stack (broker + degradation block quarantine) in tiled
// mode against the flat stack.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/allocator.h"
#include "core/broker.h"
#include "core/degrade.h"
#include "core/hierarchical.h"
#include "core/prepared.h"
#include "monitor/store.h"
#include "sim/rng.h"
#include "util/tiled_matrix.h"
#include "test_helpers.h"

namespace nlarm::core {
namespace {

// --- BlockPartition / TiledMatrix units ---

TEST(BlockPartitionTest, FromLabelsOrdersBlocksByLabel) {
  const std::int32_t labels[] = {5, 2, 5, 2, 9};
  const util::BlockPartition p = util::BlockPartition::from_labels(labels);
  ASSERT_EQ(p.position_count(), 5u);
  ASSERT_EQ(p.block_count(), 3u);
  EXPECT_EQ(p.label_of_block(0), 2);
  EXPECT_EQ(p.label_of_block(1), 5);
  EXPECT_EQ(p.label_of_block(2), 9);

  EXPECT_EQ(p.block_of(0), 1u);
  EXPECT_EQ(p.block_of(1), 0u);
  EXPECT_EQ(p.block_of(2), 1u);
  EXPECT_EQ(p.block_of(3), 0u);
  EXPECT_EQ(p.block_of(4), 2u);
  EXPECT_EQ(p.rank_of(1), 0u);
  EXPECT_EQ(p.rank_of(3), 1u);
  EXPECT_EQ(p.label_of(4), 9);

  const auto b0 = p.members(0);
  ASSERT_EQ(b0.size(), 2u);
  EXPECT_EQ(b0[0], 1u);
  EXPECT_EQ(b0[1], 3u);
  const auto b2 = p.members(2);
  ASSERT_EQ(b2.size(), 1u);
  EXPECT_EQ(b2[0], 4u);
}

TEST(BlockPartitionTest, TileIndexCoversUpperTriangleDensely) {
  const util::BlockPartition p = util::BlockPartition::fixed(10, 3);
  ASSERT_EQ(p.block_count(), 4u);
  ASSERT_EQ(p.tile_count(), 10u);
  std::vector<char> seen(p.tile_count(), 0);
  for (std::size_t a = 0; a < p.block_count(); ++a) {
    for (std::size_t b = a; b < p.block_count(); ++b) {
      const std::size_t t = p.tile_index(a, b);
      ASSERT_LT(t, p.tile_count());
      EXPECT_FALSE(seen[t]) << "tile (" << a << "," << b << ") collided";
      seen[t] = 1;
    }
  }
}

TEST(BlockPartitionTest, FixedShardsWithRemainder) {
  const util::BlockPartition p = util::BlockPartition::fixed(10, 4);
  ASSERT_EQ(p.block_count(), 3u);
  EXPECT_EQ(p.members(0).size(), 4u);
  EXPECT_EQ(p.members(1).size(), 4u);
  EXPECT_EQ(p.members(2).size(), 2u);
  EXPECT_EQ(p.block_of(9), 2u);
  EXPECT_EQ(p.rank_of(9), 1u);

  // block_size 0 collapses to a single block.
  const util::BlockPartition one = util::BlockPartition::fixed(5, 0);
  EXPECT_EQ(one.block_count(), 1u);
  EXPECT_EQ(one.members(0).size(), 5u);
}

TEST(TiledMatrixTest, MaterializesLazilyAndCaches) {
  const util::BlockPartition p = util::BlockPartition::fixed(6, 2);
  util::TiledMatrix m;
  m.reset(p);
  EXPECT_EQ(m.tiles_materialized(), 0u);

  int fills = 0;
  const auto fill = [&](std::size_t r, std::size_t c) {
    ++fills;
    return static_cast<double>(r * 100 + c);
  };
  const auto t01 = m.tile(p, 0, 1, fill);
  ASSERT_EQ(t01.size(), 4u);
  EXPECT_EQ(t01[0], 2.0);    // (0,2)
  EXPECT_EQ(t01[3], 103.0);  // (1,3)
  EXPECT_EQ(m.tiles_materialized(), 1u);
  EXPECT_EQ(m.cache_hits(), 0u);
  EXPECT_EQ(m.value_bytes(), 4 * sizeof(double));
  EXPECT_TRUE(m.has_tile(p, 0, 1));
  EXPECT_FALSE(m.has_tile(p, 1, 2));

  // Second access serves the cached values without re-filling.
  const int fills_before = fills;
  (void)m.tile(p, 0, 1, fill);
  EXPECT_EQ(fills, fills_before);
  EXPECT_EQ(m.cache_hits(), 1u);

  // Diagonal tiles zero their own diagonal and never call fill for it.
  const auto t11 = m.tile(p, 1, 1, fill);
  EXPECT_EQ(t11[0], 0.0);
  EXPECT_EQ(t11[3], 0.0);
  EXPECT_EQ(t11[1], 203.0);  // (2,3)
}

// --- incremental tile maintenance vs shadow rebuilds ---

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

void expect_same_tiles(const TiledPairState& got, const TiledPairState& want) {
  EXPECT_TRUE(got.partition == want.partition);
  ASSERT_EQ(got.tiles.size(), want.tiles.size());
  for (std::size_t t = 0; t < got.tiles.size(); ++t) {
    // Bit-exact on purpose: per-tile ExactSum accumulation must make the
    // incremental path indistinguishable from a rebuild.
    EXPECT_EQ(got.tiles[t].lat_mean, want.tiles[t].lat_mean) << "tile " << t;
    EXPECT_EQ(got.tiles[t].comp_mean, want.tiles[t].comp_mean) << "tile " << t;
    EXPECT_EQ(got.tiles[t].pairs, want.tiles[t].pairs) << "tile " << t;
  }
  EXPECT_EQ(got.nodes, want.nodes);
}

TEST(TiledPreparedTest, TileDeltaMatchesShadowRebuildUnderChurn) {
  const int node_count = 24;
  const int ticks = 250;
  sim::Rng rng(515151);
  monitor::MonitorStore store(node_count);
  const AllocationRequest request = make_request(20);
  const RequestProfile profile = RequestProfile::of(request);
  TilingOptions tiling;
  tiling.block_size = 5;  // fixed shards: store records carry no switch ids

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

  HierarchicalOptions covering;
  covering.pair_sample = 0;
  covering.two_phase_min_nodes = std::numeric_limits<std::size_t>::max();
  HierarchicalOptions pruning;
  pruning.pair_sample = 0;
  pruning.two_phase_min_nodes = 0;

  PreparedBuilder incremental(profile, tiling);
  int incremental_ticks = 0;
  for (int tick = 0; tick < ticks; ++tick) {
    now += 1.0;
    if (tick > 0) {
      const int node_churn =
          static_cast<int>(rng.uniform_int(0, node_count / 8));
      for (int i = 0; i < node_churn; ++i) {
        const int id = static_cast<int>(rng.uniform_int(0, node_count - 1));
        store.write_node_record(now, random_record(id, rng));
      }
      if (rng.chance(0.4)) {
        const int pair_churn =
            static_cast<int>(rng.uniform_int(1, node_count / 4));
        for (int i = 0; i < pair_churn; ++i) {
          const int u = static_cast<int>(rng.uniform_int(0, node_count - 2));
          const int v =
              static_cast<int>(rng.uniform_int(u + 1, node_count - 1));
          write_random_pair(store, now, u, v, rng);
        }
      }
      if (rng.chance(0.02)) {
        const auto idx =
            static_cast<std::size_t>(rng.uniform_int(0, node_count - 1));
        livehosts[idx] = !livehosts[idx];
        store.write_livehosts(now, livehosts);
      }
    }

    auto snapshot =
        std::make_shared<const monitor::ClusterSnapshot>(store.assemble(now));
    const monitor::SnapshotDelta delta = store.drain_delta();
    if (snapshot->usable_nodes().empty()) continue;

    if (incremental.update(snapshot, delta)) ++incremental_ticks;
    auto epoch = incremental.build();

    // Shadow 1: a from-scratch tiled rebuild.
    PreparedBuilder tiled_oracle(profile, tiling);
    tiled_oracle.rebuild(snapshot);
    auto tiled_want = tiled_oracle.build();
    ASSERT_NE(epoch->tiles, nullptr);
    ASSERT_NE(tiled_want->tiles, nullptr);
    expect_same_tiles(*epoch->tiles, *tiled_want->tiles);

    // Shadow 2: the flat builder — tiles must reproduce the dense NL
    // matrix bit for bit.
    PreparedBuilder flat_oracle(profile);
    flat_oracle.rebuild(snapshot);
    auto flat_want = flat_oracle.build();
    ASSERT_NE(epoch->nl, nullptr);  // 24 nodes < dense_nl_limit
    EXPECT_TRUE(*epoch->nl == *flat_want->nl)
        << "tiled NL diverged from flat at tick " << tick;

    if (tick % 25 == 0) {
      // Covering two-phase over the incremental epoch vs the flat fast path.
      const Allocation want = allocate_prepared(*flat_want, request);
      const Allocation got =
          allocate_two_phase(*epoch, request, covering);
      EXPECT_EQ(got.nodes, want.nodes);
      EXPECT_EQ(got.total_cost, want.total_cost);

      // Pruned mode: the pool NL tiles must equal the dense submatrix.
      HierStats hier;
      const Allocation pruned =
          allocate_two_phase(*epoch, request, pruning, {}, nullptr, &hier);
      EXPECT_GT(pruned.total_procs, 0);
      const TiledPairState& tiles = *epoch->tiles;
      for (const std::size_t a : hier.chosen_blocks) {
        for (const std::size_t b : hier.chosen_blocks) {
          if (a > b) continue;
          const auto rows = tiles.partition.members(a);
          const auto cols = tiles.partition.members(b);
          const auto values = tiles.tile_values(a, b);
          for (std::size_t r = 0; r < rows.size(); ++r) {
            for (std::size_t c = 0; c < cols.size(); ++c) {
              EXPECT_EQ(values[r * cols.size() + c],
                        (*epoch->nl)[rows[r]][cols[c]])
                  << "tile (" << a << "," << b << ") cell " << r << "," << c;
            }
          }
        }
      }
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "diverged at tick " << tick;
    }
  }
  EXPECT_GT(incremental_ticks, ticks / 2);
}

// --- serving-stack integration: tiled broker vs flat broker, with block
// quarantine churn ---

monitor::ClusterSnapshot broker_snapshot(int n, int per_switch,
                                         std::uint64_t seed) {
  sim::Rng rng(seed);
  monitor::MonitorStore store(n);
  std::vector<bool> livehosts(static_cast<std::size_t>(n), true);
  store.write_livehosts(1.0, livehosts);
  for (int i = 0; i < n; ++i) {
    monitor::NodeSnapshot record = random_record(i, rng);
    record.spec.switch_id = i / per_switch;
    store.write_node_record(1.0, record);
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      write_random_pair(store, 1.0, u, v, rng);
    }
  }
  return store.assemble(1.0);
}

TEST(TiledBrokerTest, TiledServingMatchesFlatUnderBlockQuarantine) {
  const int v = 32;
  const AllocationRequest request = make_request(16);
  const RequestProfile profile = RequestProfile::of(request);

  DegradationPolicy degradation;
  degradation.block_quarantine_fraction = 0.5;

  HierarchicalOptions covering;
  covering.pair_sample = 0;
  covering.two_phase_min_nodes = std::numeric_limits<std::size_t>::max();

  NetworkLoadAwareAllocator flat_alloc;
  ResourceBroker flat(flat_alloc);
  flat.set_degradation(degradation);

  NetworkLoadAwareAllocator tiled_alloc;
  ResourceBroker tiled(tiled_alloc);
  tiled.set_degradation(degradation);
  tiled.set_hierarchy(covering);
  ASSERT_TRUE(tiled.hierarchy_enabled());

  auto snapshot = std::make_shared<const monitor::ClusterSnapshot>(
      broker_snapshot(v, 8, 616161));

  monitor::StalenessView view;
  view.now = 1000.0;
  view.node.assign(static_cast<std::size_t>(v), 1.0);
  testing::set_pair_ages(view,
                         util::FlatMatrix(static_cast<std::size_t>(v), 1.0));

  for (int round = 0; round < 3; ++round) {
    // Round 1 darkens most of switch 1 (block quarantine pulls the rest);
    // round 2 readmits it.
    if (round == 1) {
      for (int i = 8; i < 14; ++i) {
        view.node[static_cast<std::size_t>(i)] = 100.0;
      }
    } else if (round == 2) {
      for (int i = 8; i < 14; ++i) {
        view.node[static_cast<std::size_t>(i)] = 1.0;
      }
    }
    flat.refresh_epoch(snapshot, view, profile);
    tiled.refresh_epoch(snapshot, view, profile);

    const BrokerDecision flat_decision =
        flat.decide(flat.pin_epoch(), request);
    const BrokerDecision tiled_decision =
        tiled.decide(tiled.pin_epoch(), request);
    ASSERT_EQ(flat_decision.action, BrokerDecision::Action::kAllocate);
    ASSERT_EQ(tiled_decision.action, BrokerDecision::Action::kAllocate);
    EXPECT_EQ(tiled_decision.allocation.nodes, flat_decision.allocation.nodes)
        << "round " << round;
    EXPECT_EQ(tiled_decision.allocation.total_cost,
              flat_decision.allocation.total_cost);
    EXPECT_EQ(tiled_decision.allocation.policy, "hierarchical");
    if (round == 1) {
      // The whole switch must be gone from the allocation.
      for (const cluster::NodeId id : tiled_decision.allocation.nodes) {
        EXPECT_TRUE(id < 8 || id >= 16) << "node " << id;
      }
    }
  }
}

// --- sampled-mode determinism ---

TEST(TiledHierarchicalTest, PairSampleIsDeterministicUnderSeed) {
  const monitor::ClusterSnapshot snap = broker_snapshot(32, 8, 717171);
  const AllocationRequest request = make_request(16);

  HierarchicalOptions options;
  options.pair_sample = 3;
  HierarchicalAllocator a(options);
  HierarchicalAllocator b(options);
  const Allocation first = a.allocate(snap, request);
  const Allocation second = b.allocate(snap, request);
  EXPECT_EQ(first.nodes, second.nodes);
  EXPECT_EQ(first.total_cost, second.total_cost);
  EXPECT_EQ(a.last_chosen_groups(), b.last_chosen_groups());

  // Repeat allocations on the SAME allocator also repeat (the RNG is forked
  // fresh from the seed per allocate, not consumed statefully).
  const Allocation again = a.allocate(snap, request);
  EXPECT_EQ(again.nodes, first.nodes);
  EXPECT_EQ(again.total_cost, first.total_cost);
}

}  // namespace
}  // namespace nlarm::core
