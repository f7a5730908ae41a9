// Golden-equivalence property test for the allocation fast path.
//
// The optimized pipeline (flat matrices, bucket-select candidate
// generation, generation-time incremental costs, parallel fan-out) must be
// BIT-IDENTICAL to the retained
// reference implementation (core/reference.h) — same members, same procs,
// same raw and normalized costs, same winner — on random monitored
// snapshots at several cluster sizes, at a fixed ppn and at Eq. 3
// capacities (ppn 0), for requests the cheapest few nodes cover and for
// the round-robin overflow, serially and in parallel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "core/allocator.h"
#include "core/broker.h"
#include "core/candidate.h"
#include "core/compute_load.h"
#include "core/degrade.h"
#include "core/hierarchical.h"
#include "core/network_load.h"
#include "core/normalize.h"
#include "core/prepared.h"
#include "core/reference.h"
#include "core/selection.h"
#include "monitor/snapshot.h"
#include "obs/catalog.h"
#include "sim/rng.h"
#include "util/thread_pool.h"
#include "test_helpers.h"

namespace nlarm::core {
namespace {

monitor::ClusterSnapshot random_snapshot(int n, std::uint64_t seed) {
  sim::Rng rng(seed);
  monitor::ClusterSnapshot snap;
  snap.time = 123.0;
  snap.livehosts.assign(static_cast<std::size_t>(n), true);
  snap.nodes.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& node = snap.nodes[static_cast<std::size_t>(i)];
    node.spec.id = i;
    node.spec.hostname = cluster::default_hostname(i);
    node.spec.core_count = rng.chance(0.5) ? 8 : 12;
    node.spec.cpu_freq_ghz = rng.uniform(2.0, 4.5);
    node.spec.total_mem_gb = 16.0;
    node.valid = true;
    node.sample_time = 123.0;
    const double load = rng.uniform(0.0, 8.0);
    node.cpu_load = load;
    node.cpu_load_avg = {load, load * 0.9, load * 0.8};
    const double util = rng.uniform(0.0, 1.0);
    node.cpu_util = util;
    node.cpu_util_avg = {util, util, util};
    const double flow = rng.uniform(0.0, 400.0);
    node.net_flow_mbps = flow;
    node.net_flow_avg = {flow, flow, flow};
    node.mem_used_gb = rng.uniform(1.0, 14.0);
    const double avail = 16.0 - node.mem_used_gb;
    node.mem_avail_avg = {avail, avail, avail};
    node.users = static_cast<int>(rng.uniform_int(0, 4));
  }
  snap.net.latency_us = monitor::make_matrix(n, -1.0);
  snap.net.latency_5min_us = monitor::make_matrix(n, -1.0);
  snap.net.bandwidth_mbps = monitor::make_matrix(n, -1.0);
  snap.net.peak_mbps = monitor::make_matrix(n, -1.0);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      const auto uu = static_cast<std::size_t>(u);
      const auto vv = static_cast<std::size_t>(v);
      if (rng.chance(0.1)) continue;  // ~10% of pairs stay unmeasured
      const double lat = rng.uniform(40.0, 800.0);
      const double bw = rng.uniform(50.0, 950.0);
      snap.net.latency_us[uu][vv] = snap.net.latency_us[vv][uu] = lat;
      snap.net.latency_5min_us[uu][vv] = snap.net.latency_5min_us[vv][uu] =
          lat;
      snap.net.bandwidth_mbps[uu][vv] = snap.net.bandwidth_mbps[vv][uu] = bw;
      snap.net.peak_mbps[uu][vv] = snap.net.peak_mbps[vv][uu] = 1000.0;
    }
  }
  return snap;
}

AllocationRequest make_request(int nprocs, int ppn = 4) {
  AllocationRequest request;
  request.nprocs = nprocs;
  request.ppn = ppn;
  request.job = JobWeights{0.3, 0.7};
  return request;
}

void expect_same_candidates(const std::vector<Candidate>& actual,
                            const std::vector<Candidate>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].start_index, expected[i].start_index) << "cand " << i;
    EXPECT_EQ(actual[i].members, expected[i].members) << "cand " << i;
    EXPECT_EQ(actual[i].procs, expected[i].procs) << "cand " << i;
    EXPECT_EQ(actual[i].total_procs, expected[i].total_procs) << "cand " << i;
  }
}

void expect_same_selection(const SelectionResult& actual,
                           const SelectionResult& expected) {
  ASSERT_EQ(actual.scored.size(), expected.scored.size());
  EXPECT_EQ(actual.best_index, expected.best_index);
  for (std::size_t i = 0; i < actual.scored.size(); ++i) {
    // EXPECT_EQ on doubles on purpose: equality must be bit-exact, not
    // within a tolerance.
    EXPECT_EQ(actual.scored[i].compute_cost, expected.scored[i].compute_cost)
        << "cand " << i;
    EXPECT_EQ(actual.scored[i].network_cost, expected.scored[i].network_cost)
        << "cand " << i;
    EXPECT_EQ(actual.scored[i].total_cost, expected.scored[i].total_cost)
        << "cand " << i;
    EXPECT_EQ(actual.scored[i].candidate.members,
              expected.scored[i].candidate.members)
        << "cand " << i;
  }
}

void expect_same_allocation(const Allocation& actual,
                            const Allocation& expected) {
  EXPECT_EQ(actual.nodes, expected.nodes);
  EXPECT_EQ(actual.procs_per_node, expected.procs_per_node);
  EXPECT_EQ(actual.total_procs, expected.total_procs);
  EXPECT_EQ(actual.total_cost, expected.total_cost);
  EXPECT_EQ(actual.avg_cpu_load, expected.avg_cpu_load);
  EXPECT_EQ(actual.avg_latency_us, expected.avg_latency_us);
  EXPECT_EQ(actual.avg_bw_complement_mbps, expected.avg_bw_complement_mbps);
}

/// Checks the whole pipeline on one snapshot, through every fast-path
/// configuration.
void check_on_snapshot(const monitor::ClusterSnapshot& snap, int nprocs,
                       int ppn = 4) {
  const int v = static_cast<int>(snap.nodes.size());
  const AllocationRequest request = make_request(nprocs, ppn);

  const std::vector<cluster::NodeId> usable = snap.usable_nodes();
  const std::vector<double> cl = rescale_unit_mean(
      compute_loads(snap, usable, request.compute_weights));
  const util::FlatMatrix nl = rescale_unit_mean(
      network_loads(snap, usable, request.network_weights));
  const std::vector<int> pc =
      effective_process_counts(snap, usable, request.ppn);

  // Reference generation vs optimized, serial and parallel.
  const std::vector<Candidate> ref_candidates =
      reference::generate_all_candidates(cl, nl, pc, nprocs, request.job);
  GenerationOptions serial;
  serial.parallel_threshold = -1;
  const std::vector<Candidate> fast_serial =
      generate_all_candidates(cl, nl, pc, nprocs, request.job, {}, serial);
  util::ThreadPool pool(3);
  GenerationOptions parallel;
  parallel.parallel_threshold = 0;  // always fan out
  parallel.pool = &pool;
  const std::vector<Candidate> fast_parallel =
      generate_all_candidates(cl, nl, pc, nprocs, request.job, {}, parallel);
  expect_same_candidates(fast_serial, ref_candidates);
  expect_same_candidates(fast_parallel, ref_candidates);

  // Generation-time costs must equal the canonical definition.
  for (const Candidate& candidate : fast_serial) {
    ASSERT_TRUE(candidate.has_costs);
    const CandidateCosts costs = candidate_costs(candidate.members, cl, nl);
    EXPECT_EQ(candidate.compute_cost, costs.compute);
    EXPECT_EQ(candidate.network_cost, costs.network);
  }

  // Selection: precomputed-cost path, cost-walk path (costs stripped) and
  // the reference cost-walk-per-candidate all agree.
  const SelectionResult ref_selection = reference::select_best_candidate(
      ref_candidates, cl, nl, request.job);
  const SelectionResult fast_selection =
      select_best_candidate(fast_serial, cl, nl, request.job);
  std::vector<Candidate> stripped = fast_serial;
  for (Candidate& candidate : stripped) candidate.has_costs = false;
  const SelectionResult dedup_selection =
      select_best_candidate(std::move(stripped), cl, nl, request.job);
  expect_same_selection(fast_selection, ref_selection);
  expect_same_selection(dedup_selection, ref_selection);

  // End to end through the public allocator, serial and parallel.
  const Allocation ref_alloc = reference::allocate(snap, request);
  NetworkLoadAwareAllocator allocator;
  allocator.set_generation_options(serial);
  expect_same_allocation(allocator.allocate(snap, request), ref_alloc);
  NetworkLoadAwareAllocator parallel_allocator;
  parallel_allocator.set_generation_options(parallel);
  expect_same_allocation(parallel_allocator.allocate(snap, request),
                         ref_alloc);

  // A repeat on a versioned snapshot changes nothing.
  monitor::ClusterSnapshot versioned = snap;
  versioned.version = 0xbeef0000ull + static_cast<std::uint64_t>(v);
  NetworkLoadAwareAllocator memo_allocator;
  memo_allocator.set_generation_options(serial);
  expect_same_allocation(memo_allocator.allocate(versioned, request),
                         ref_alloc);
  expect_same_allocation(memo_allocator.allocate(versioned, request),
                         ref_alloc);
}

/// Random snapshot at one cluster size, process count and ppn (0 = Eq. 3
/// capacities, 1 to 11 per node here).
void check_equivalence(int v, int nprocs, std::uint64_t seed, int ppn = 4) {
  SCOPED_TRACE(::testing::Message() << "V=" << v << " nprocs=" << nprocs
                                    << " seed=" << seed << " ppn=" << ppn);
  check_on_snapshot(random_snapshot(v, seed), nprocs, ppn);
}

TEST(FastPathEquivalenceTest, TopKPathSmall) {
  // The request is covered well inside the cluster: few buckets survive.
  for (const int ppn : {4, 0}) check_equivalence(8, 13, 1001, ppn);
}

TEST(FastPathEquivalenceTest, TopKPathPaperScale) {
  for (const int ppn : {4, 0}) check_equivalence(60, 32, 2002, ppn);
}

TEST(FastPathEquivalenceTest, TopKPathLarge) {
  for (const int ppn : {4, 0}) check_equivalence(257, 48, 3003, ppn);
}

TEST(FastPathEquivalenceTest, FullSortOverflowSmall) {
  // At ppn 4 nprocs exceeds the effective capacity: every bucket survives
  // and the round-robin overflow fallback runs. Eq. 3 gives most nodes
  // more than 4 slots here, so at ppn 0 the same shapes are covered late
  // in the order instead (this one exactly, by every node).
  for (const int ppn : {4, 0}) check_equivalence(8, 8 * 4 + 7, 4004, ppn);
}

TEST(FastPathEquivalenceTest, FullSortOverflowPaperScale) {
  for (const int ppn : {4, 0}) {
    check_equivalence(60, 60 * 4 + 11, 5005, ppn);
  }
}

TEST(FastPathEquivalenceTest, FullSortOverflowLarge) {
  for (const int ppn : {4, 0}) {
    check_equivalence(257, 257 * 4 + 3, 6006, ppn);
  }
}

TEST(FastPathEquivalenceTest, OverflowAtEqThreeCapacities) {
  // Σpc under Eq. 3 plus a few: the overflow case at uneven capacities.
  for (const int v : {8, 60}) {
    const monitor::ClusterSnapshot snap =
        random_snapshot(v, 8008 + static_cast<std::uint64_t>(v));
    const std::vector<int> pc =
        effective_process_counts(snap, snap.usable_nodes(), 0);
    const int total = std::accumulate(pc.begin(), pc.end(), 0);
    for (const int extra : {1, 9}) {
      SCOPED_TRACE(::testing::Message() << "V=" << v << " extra=" << extra);
      check_on_snapshot(snap, total + extra, 0);
    }
  }
}

TEST(FastPathEquivalenceTest, StartNodeCoversTheRequestAlone) {
  // pc[start] ≥ nprocs: no bucket survives and every candidate is the start
  // node alone.
  const monitor::ClusterSnapshot snap = random_snapshot(60, 9009);
  for (const auto& [nprocs, ppn] :
       {std::pair{1, 0}, std::pair{8, 8}, std::pair{5, 12}}) {
    SCOPED_TRACE(::testing::Message() << "nprocs=" << nprocs
                                      << " ppn=" << ppn);
    check_on_snapshot(snap, nprocs, ppn);
    const AllocationRequest request = make_request(nprocs, ppn);
    const std::vector<cluster::NodeId> usable = snap.usable_nodes();
    const std::vector<double> cl = rescale_unit_mean(
        compute_loads(snap, usable, request.compute_weights));
    const util::FlatMatrix nl = rescale_unit_mean(
        network_loads(snap, usable, request.network_weights));
    const std::vector<int> pc = effective_process_counts(snap, usable, ppn);
    for (const Candidate& candidate :
         generate_all_candidates(cl, nl, pc, nprocs, request.job)) {
      EXPECT_EQ(candidate.members,
                std::vector<std::size_t>{candidate.start_index});
      EXPECT_EQ(candidate.procs, std::vector<int>{nprocs});
    }
  }
}

TEST(FastPathEquivalenceTest, TiedKeysAmongNonStartNodes) {
  // Six distinct node records repeated ten times and latencies/bandwidths
  // drawn from three values each: addition costs tie exactly across many
  // non-start nodes, so the index tie-break decides the order and which
  // tied nodes the fill takes.
  monitor::ClusterSnapshot snap = random_snapshot(60, 1212);
  sim::Rng rng(1212);
  for (std::size_t i = 6; i < snap.nodes.size(); ++i) {
    const cluster::NodeSpec spec = snap.nodes[i].spec;
    snap.nodes[i] = snap.nodes[i % 6];
    snap.nodes[i].spec.id = spec.id;
    snap.nodes[i].spec.hostname = spec.hostname;
  }
  const double lats[] = {100.0, 200.0, 400.0};
  const double bws[] = {250.0, 500.0, 900.0};
  for (std::size_t u = 0; u < snap.nodes.size(); ++u) {
    for (std::size_t w = u + 1; w < snap.nodes.size(); ++w) {
      const double lat = lats[rng.uniform_int(0, 2)];
      const double bw = bws[rng.uniform_int(0, 2)];
      snap.net.latency_us[u][w] = snap.net.latency_us[w][u] = lat;
      snap.net.latency_5min_us[u][w] = snap.net.latency_5min_us[w][u] = lat;
      snap.net.bandwidth_mbps[u][w] = snap.net.bandwidth_mbps[w][u] = bw;
      snap.net.peak_mbps[u][w] = snap.net.peak_mbps[w][u] = 1000.0;
    }
  }
  for (const int ppn : {4, 0}) {
    for (const int nprocs : {13, 70, 150}) {
      SCOPED_TRACE(::testing::Message() << "nprocs=" << nprocs
                                        << " ppn=" << ppn);
      check_on_snapshot(snap, nprocs, ppn);
    }
  }
}

TEST(FastPathEquivalenceTest, LargeClusterAtEqThreeCapacities) {
  // 523 is no multiple of the select kernels' 4-, 8- and 16-lane widths.
  for (const int v : {1024, 523}) {
    check_equivalence(v, 512, static_cast<std::uint64_t>(v), 0);
  }
}

TEST(FastPathEquivalenceTest, ManySeedsSmallClusters) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    check_equivalence(8, 5 + static_cast<int>(seed), 7000 + seed);
  }
}

TEST(FastPathEquivalenceTest, MemoizationInvalidatedByVersionBump) {
  // Two different versioned snapshots through one allocator must match what
  // a fresh allocator computes for each — no inputs may leak from one call
  // into the next.
  const AllocationRequest request = make_request(12);
  monitor::ClusterSnapshot snap_a = random_snapshot(20, 11);
  snap_a.version = 1;
  monitor::ClusterSnapshot snap_b = random_snapshot(20, 22);
  snap_b.version = 2;
  snap_b.time = snap_a.time;  // version alone must distinguish them

  NetworkLoadAwareAllocator reused;
  const Allocation a1 = reused.allocate(snap_a, request);
  const Allocation b1 = reused.allocate(snap_b, request);
  const Allocation a2 = reused.allocate(snap_a, request);

  NetworkLoadAwareAllocator fresh_a;
  NetworkLoadAwareAllocator fresh_b;
  expect_same_allocation(a1, fresh_a.allocate(snap_a, request));
  expect_same_allocation(b1, fresh_b.allocate(snap_b, request));
  expect_same_allocation(a2, a1);
}


TEST(FastPathEquivalenceTest, DegradedAndQuarantinedInputsStayEquivalent) {
  // Degradation rewrites the snapshot (quarantined livehosts, penalized
  // fallback pairs) and then hands the SAME rewritten snapshot to both
  // pipelines — so the fast path must stay bit-identical to the reference
  // on degraded inputs exactly as on fresh ones.
  for (std::uint64_t seed : {101ull, 202ull, 303ull}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const int v = 24;
    auto snapshot = std::make_shared<const monitor::ClusterSnapshot>(
        random_snapshot(v, seed));

    sim::Rng rng(seed ^ 0xdead);
    monitor::StalenessView view;
    view.now = 1000.0;
    view.node.assign(static_cast<std::size_t>(v), 1.0);
    util::FlatMatrix pair_age(static_cast<std::size_t>(v), 1.0);
    for (int i = 0; i < v; ++i) {
      if (rng.chance(0.2)) view.node[static_cast<std::size_t>(i)] = 100.0;
    }
    for (int u = 0; u < v; ++u) {
      for (int w = u + 1; w < v; ++w) {
        if (rng.chance(0.15)) {
          pair_age[static_cast<std::size_t>(u)][static_cast<std::size_t>(
              w)] = 700.0;
          pair_age[static_cast<std::size_t>(w)][static_cast<std::size_t>(
              u)] = 700.0;
        }
      }
    }
    testing::set_pair_ages(view, pair_age);

    Degrader degrader(DegradationPolicy{});
    const DegradationOutcome out = degrader.apply(snapshot, view);
    ASSERT_TRUE(out.degraded);  // the chance() draws above guarantee some
    check_on_snapshot(*out.snapshot, 16);
  }
}

/// random_snapshot leaves every node on switch 0; spread them so the tiled
/// partition has several blocks (the flat path never reads switch_id, so
/// the existing expectations are unaffected).
monitor::ClusterSnapshot switched_snapshot(int n, std::uint64_t seed,
                                           int per_switch) {
  monitor::ClusterSnapshot snap = random_snapshot(n, seed);
  for (int i = 0; i < n; ++i) {
    snap.nodes[static_cast<std::size_t>(i)].spec.switch_id = i / per_switch;
  }
  return snap;
}

/// In the covering regime (two_phase_min_nodes forces phase 1 to keep every
/// block) the two-phase allocator must be bit-identical to the flat
/// prepared fast path — both with the dense NL matrix published and with
/// the NL assembled purely from tiles (dense_nl_limit = 0).
void check_two_phase_covering(const monitor::ClusterSnapshot& snap,
                              int nprocs) {
  const AllocationRequest request = make_request(nprocs);
  const RequestProfile profile = RequestProfile::of(request);
  auto shared = std::make_shared<const monitor::ClusterSnapshot>(snap);

  PreparedBuilder flat(profile);
  flat.rebuild(shared);
  const auto flat_epoch = flat.build();
  const Allocation want = allocate_prepared(*flat_epoch, request);

  HierarchicalOptions options;
  options.pair_sample = 0;
  options.two_phase_min_nodes = std::numeric_limits<std::size_t>::max();

  for (const std::size_t dense_limit :
       {std::numeric_limits<std::size_t>::max(), std::size_t{0}}) {
    SCOPED_TRACE(::testing::Message() << "dense_nl_limit=" << dense_limit);
    TilingOptions tiling;
    tiling.dense_nl_limit = dense_limit;
    PreparedBuilder tiled(profile, tiling);
    tiled.rebuild(shared);
    const auto epoch = tiled.build();
    ASSERT_NE(epoch->tiles, nullptr);
    if (dense_limit == 0) ASSERT_EQ(epoch->nl, nullptr);
    HierStats hier;
    const Allocation got =
        allocate_two_phase(*epoch, request, options, {}, nullptr, &hier);
    expect_same_allocation(got, want);
    EXPECT_EQ(got.policy, "hierarchical");
    EXPECT_FALSE(hier.pruned);
    EXPECT_EQ(hier.chosen_groups, hier.groups);
  }
}

TEST(FastPathEquivalenceTest, TwoPhaseCoveringBitIdentitySmall) {
  check_two_phase_covering(switched_snapshot(8, 1111, 3), 13);
}

TEST(FastPathEquivalenceTest, TwoPhaseCoveringBitIdentityPaperScale) {
  check_two_phase_covering(switched_snapshot(60, 2222, 8), 32);
}

TEST(FastPathEquivalenceTest, TwoPhaseCoveringBitIdentityLarge) {
  check_two_phase_covering(switched_snapshot(257, 3333, 16), 48);
}

TEST(FastPathEquivalenceTest, IdleHomogeneousClusterTiesWithTheStart) {
  // Identical idle nodes: every normalized compute attribute is 0, so CL is
  // 0 everywhere and, with β = 0, every addition cost ties with the start
  // node's own. Every entry point must still put the start node first and
  // match the reference.
  monitor::ClusterSnapshot snap = switched_snapshot(24, 1313, 8);
  for (auto& node : snap.nodes) {
    node.spec.core_count = 8;
    node.spec.cpu_freq_ghz = 3.0;
    node.cpu_load = 0.0;
    node.cpu_load_avg = {0.0, 0.0, 0.0};
    node.cpu_util = 0.0;
    node.cpu_util_avg = {0.0, 0.0, 0.0};
    node.net_flow_mbps = 0.0;
    node.net_flow_avg = {0.0, 0.0, 0.0};
    node.mem_used_gb = 0.0;
    node.mem_avail_avg = {16.0, 16.0, 16.0};
    node.users = 0;
  }
  const auto shared = std::make_shared<const monitor::ClusterSnapshot>(snap);
  HierarchicalOptions covering;
  covering.pair_sample = 0;
  covering.two_phase_min_nodes = std::numeric_limits<std::size_t>::max();
  for (const int nprocs : {4, 16, 40}) {
    SCOPED_TRACE(::testing::Message() << "nprocs=" << nprocs);
    AllocationRequest request = make_request(nprocs);
    request.job = JobWeights{1.0, 0.0};
    const std::vector<double> cl = rescale_unit_mean(
        compute_loads(snap, snap.usable_nodes(), request.compute_weights));
    ASSERT_EQ(cl, std::vector<double>(cl.size(), 0.0));

    const Allocation want = reference::allocate(snap, request);
    NetworkLoadAwareAllocator allocator;
    expect_same_allocation(allocator.allocate(snap, request), want);
    PreparedBuilder flat(RequestProfile::of(request));
    flat.rebuild(shared);
    expect_same_allocation(allocate_prepared(*flat.build(), request), want);
    PreparedBuilder tiled(RequestProfile::of(request), TilingOptions{});
    tiled.rebuild(shared);
    expect_same_allocation(
        allocate_two_phase(*tiled.build(), request, covering), want);
  }
}

TEST(FastPathEquivalenceTest, DrainedCapacityOverrideWithStarts) {
  // Batch admission debits capacities, some down to 0, and starts only from
  // nodes with capacity left. allocate_prepared on that pc override must
  // match the reference generation and selection over the same pc.
  const auto shared = std::make_shared<const monitor::ClusterSnapshot>(
      random_snapshot(60, 1414));
  util::ThreadPool pool(3);
  GenerationOptions serial;
  serial.parallel_threshold = -1;
  GenerationOptions parallel;
  parallel.parallel_threshold = 0;
  parallel.pool = &pool;
  for (const int ppn : {4, 0}) {
    for (const int nprocs : {12, 40, 400}) {
      SCOPED_TRACE(::testing::Message() << "nprocs=" << nprocs
                                        << " ppn=" << ppn);
      const AllocationRequest request = make_request(nprocs, ppn);
      PreparedBuilder builder(RequestProfile::of(request));
      builder.rebuild(shared);
      const auto epoch = builder.build();
      std::vector<int> pc = epoch->pc;
      sim::Rng rng(1414 + static_cast<std::uint64_t>(ppn));
      for (int& c : pc) {
        if (rng.chance(0.3)) {
          c = 0;
        } else if (rng.chance(0.3)) {
          c = std::max(1, c - 2);
        }
      }
      std::vector<std::size_t> starts;
      for (std::size_t i = 0; i < pc.size(); ++i) {
        if (pc[i] > 0 && i % 3 != 1) starts.push_back(i);
      }

      std::vector<Candidate> ref;
      for (const std::size_t start : starts) {
        ref.push_back(reference::generate_candidate(
            start, epoch->cl, *epoch->nl, pc, nprocs, request.job));
      }
      expect_same_candidates(
          generate_all_candidates(epoch->cl, *epoch->nl, pc, nprocs,
                                  request.job, starts, serial),
          ref);
      expect_same_candidates(
          generate_all_candidates(epoch->cl, *epoch->nl, pc, nprocs,
                                  request.job, starts, parallel),
          ref);

      const SelectionResult selection = reference::select_best_candidate(
          ref, epoch->cl, *epoch->nl, request.job);
      const ScoredCandidate& best = selection.scored[selection.best_index];
      std::vector<cluster::NodeId> want_nodes;
      for (const std::size_t m : best.candidate.members) {
        want_nodes.push_back(epoch->usable[m]);
      }
      const Allocation got =
          allocate_prepared(*epoch, request, serial, nullptr, pc, starts);
      EXPECT_EQ(got.nodes, want_nodes);
      EXPECT_EQ(got.procs_per_node, best.candidate.procs);
      EXPECT_EQ(got.total_cost, best.total_cost);
    }
  }
}

TEST(FastPathEquivalenceTest, TwoPhaseCoveringUnderDegradation) {
  // Degrade a multi-switch snapshot so that one switch is mostly stale —
  // node quarantine plus the block overlay take the whole rack out — and
  // some pairs ride the 5-minute fallback. Both pipelines then consume the
  // SAME rewritten snapshot, so covering-regime bit-identity must survive.
  const int v = 40;
  auto snapshot = std::make_shared<const monitor::ClusterSnapshot>(
      switched_snapshot(v, 4444, 8));

  monitor::StalenessView view;
  view.now = 1000.0;
  view.node.assign(static_cast<std::size_t>(v), 1.0);
  util::FlatMatrix pair_age(static_cast<std::size_t>(v), 1.0);
  // Switch 0 (nodes 0..7): six of eight nodes stale.
  for (int i = 0; i < 6; ++i) view.node[static_cast<std::size_t>(i)] = 100.0;
  // A few stale pairs elsewhere.
  sim::Rng rng(4444 ^ 0xfeed);
  for (int u = 8; u < v; ++u) {
    for (int w = u + 1; w < v; ++w) {
      if (rng.chance(0.1)) {
        pair_age[static_cast<std::size_t>(u)][static_cast<std::size_t>(w)] =
            700.0;
        pair_age[static_cast<std::size_t>(w)][static_cast<std::size_t>(u)] =
            700.0;
      }
    }
  }
  testing::set_pair_ages(view, pair_age);

  DegradationPolicy policy;
  policy.block_quarantine_fraction = 0.5;
  Degrader degrader(policy);
  const DegradationOutcome out = degrader.apply(snapshot, view);
  ASSERT_TRUE(out.degraded);
  EXPECT_EQ(out.block_quarantined, 2u);  // the two survivors of switch 0
  EXPECT_EQ(out.quarantined, 8u);
  check_on_snapshot(*out.snapshot, 16);
  check_two_phase_covering(*out.snapshot, 16);
}

// ---------------------------------------------------------------------------
// Parallel refresh plane: a PreparedBuilder with a thread pool attached must
// produce epochs BIT-IDENTICAL to a serial builder — full rebuilds (flat and
// tiled), sharded delta applies, and materializations, including on degraded
// snapshots. The pool may only change wall time, never bits (fixed-range
// ExactSum partials folded in canonical order; DESIGN.md §17).
// ---------------------------------------------------------------------------

void expect_same_matrix(const util::FlatMatrix* a, const util::FlatMatrix* b) {
  ASSERT_EQ(a == nullptr, b == nullptr);
  if (a == nullptr) return;
  ASSERT_EQ(a->size(), b->size());
  // memcmp, not EXPECT_DOUBLE_EQ: the contract is bit-exactness.
  EXPECT_EQ(std::memcmp(a->data(), b->data(),
                        a->value_count() * sizeof(double)),
            0);
}

void expect_same_epoch(const PreparedSnapshot& a, const PreparedSnapshot& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.usable, b.usable);
  EXPECT_EQ(a.cl, b.cl);
  EXPECT_EQ(a.pc, b.pc);
  EXPECT_EQ(a.pos_of, b.pos_of);
  EXPECT_EQ(a.load_per_core, b.load_per_core);
  EXPECT_EQ(a.effective_capacity, b.effective_capacity);
  expect_same_matrix(a.nl.get(), b.nl.get());
  ASSERT_EQ(a.tiles == nullptr, b.tiles == nullptr);
  if (a.tiles != nullptr) {
    EXPECT_EQ(a.tiles->scalars.lat_fill, b.tiles->scalars.lat_fill);
    EXPECT_EQ(a.tiles->scalars.comp_fill, b.tiles->scalars.comp_fill);
    EXPECT_EQ(a.tiles->scalars.lat_s, b.tiles->scalars.lat_s);
    EXPECT_EQ(a.tiles->scalars.comp_s, b.tiles->scalars.comp_s);
    EXPECT_EQ(a.tiles->scalars.rescale, b.tiles->scalars.rescale);
    ASSERT_EQ(a.tiles->tiles.size(), b.tiles->tiles.size());
    for (std::size_t t = 0; t < a.tiles->tiles.size(); ++t) {
      EXPECT_EQ(a.tiles->tiles[t].lat_mean, b.tiles->tiles[t].lat_mean)
          << "tile " << t;
      EXPECT_EQ(a.tiles->tiles[t].comp_mean, b.tiles->tiles[t].comp_mean)
          << "tile " << t;
      EXPECT_EQ(a.tiles->tiles[t].pairs, b.tiles->tiles[t].pairs)
          << "tile " << t;
    }
  }
}

/// Copies `base`, rewrites ~pair_fraction of the measured pairs (some to
/// unmeasured, to cross the missing-count transitions) and ~20% of node
/// loads, and returns the new snapshot plus the matching delta.
std::shared_ptr<const monitor::ClusterSnapshot> churned_snapshot(
    const monitor::ClusterSnapshot& base, std::uint64_t seed,
    double pair_fraction, monitor::SnapshotDelta& delta) {
  auto next = std::make_shared<monitor::ClusterSnapshot>(base);
  const int n = static_cast<int>(base.nodes.size());
  sim::Rng rng(seed);
  monitor::DeltaTracker tracker(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (!rng.chance(pair_fraction)) continue;
      const auto uu = static_cast<std::size_t>(u);
      const auto vv = static_cast<std::size_t>(v);
      if (rng.chance(0.1)) {
        next->net.latency_us[uu][vv] = next->net.latency_us[vv][uu] = -1.0;
        next->net.bandwidth_mbps[uu][vv] = next->net.bandwidth_mbps[vv][uu] =
            -1.0;
      } else {
        const double lat = rng.uniform(40.0, 800.0);
        const double bw = rng.uniform(50.0, 950.0);
        next->net.latency_us[uu][vv] = next->net.latency_us[vv][uu] = lat;
        next->net.bandwidth_mbps[uu][vv] = next->net.bandwidth_mbps[vv][uu] =
            bw;
        next->net.peak_mbps[uu][vv] = next->net.peak_mbps[vv][uu] = 1000.0;
      }
      tracker.mark_pair(u, v);
    }
  }
  for (int i = 0; i < n; ++i) {
    if (!rng.chance(0.2)) continue;
    auto& node = next->nodes[static_cast<std::size_t>(i)];
    const double load = rng.uniform(0.0, 8.0);
    node.cpu_load = load;
    node.cpu_load_avg = {load, load * 0.9, load * 0.8};
    tracker.mark_node(i);
  }
  next->version = base.version + 1;
  delta = tracker.drain();
  delta.base_version = base.version;
  delta.version = next->version;
  return next;
}

/// Serial builder vs pooled builder over one snapshot + one churn delta:
/// rebuild, update and build must all land on bit-identical epochs, and the
/// pooled incremental path must still match the pooled from-scratch oracle.
void check_parallel_builder(const monitor::ClusterSnapshot& base_snap,
                            std::uint64_t seed,
                            std::optional<TilingOptions> tiling) {
  auto base = std::make_shared<const monitor::ClusterSnapshot>(base_snap);
  const RequestProfile profile = RequestProfile::of(make_request(16));

  util::ThreadPool pool(4);
  PreparedBuilder serial =
      tiling ? PreparedBuilder(profile, *tiling) : PreparedBuilder(profile);
  PreparedBuilder pooled =
      tiling ? PreparedBuilder(profile, *tiling) : PreparedBuilder(profile);
  pooled.set_thread_pool(&pool);

  serial.rebuild(base);
  pooled.rebuild(base);
  expect_same_epoch(*pooled.build(), *serial.build());

  // Heavy churn so the sharded apply path sees real per-shard queues (and
  // duplicate-free delta order inside each shard).
  monitor::SnapshotDelta delta;
  const auto next = churned_snapshot(*base, seed ^ 0xc0ffee, 0.3, delta);
  ASSERT_TRUE(serial.update(next, delta));
  ASSERT_TRUE(pooled.update(next, delta));
  const auto serial_epoch = serial.build();
  const auto pooled_epoch = pooled.build();
  expect_same_epoch(*pooled_epoch, *serial_epoch);

  // The pooled incremental path must also equal a pooled full rebuild — the
  // bit-identity oracle holds inside parallel mode, not just across modes.
  PreparedBuilder oracle =
      tiling ? PreparedBuilder(profile, *tiling) : PreparedBuilder(profile);
  oracle.set_thread_pool(&pool);
  oracle.rebuild(next);
  expect_same_epoch(*pooled_epoch, *oracle.build());
}

TEST(ParallelRefreshEquivalenceTest, FlatBuildersBitIdentical) {
  for (const int v : {8, 60, 257}) {
    SCOPED_TRACE(::testing::Message() << "V=" << v);
    monitor::ClusterSnapshot snap =
        random_snapshot(v, 0x5eed0000ull + static_cast<std::uint64_t>(v));
    snap.version = 7;
    check_parallel_builder(snap, static_cast<std::uint64_t>(v), std::nullopt);
  }
}

TEST(ParallelRefreshEquivalenceTest, TiledBuildersBitIdentical) {
  for (const int v : {8, 60, 257}) {
    SCOPED_TRACE(::testing::Message() << "V=" << v);
    monitor::ClusterSnapshot snap = switched_snapshot(
        v, 0x7e5700ull + static_cast<std::uint64_t>(v), std::max(2, v / 8));
    snap.version = 9;
    check_parallel_builder(snap, static_cast<std::uint64_t>(v),
                           TilingOptions{});
  }
}

TEST(ParallelRefreshEquivalenceTest, DegradedSnapshotsStayBitIdentical) {
  // Degradation overlays rewrite the snapshot before it reaches the
  // builder; serial and pooled builders must agree on the rewritten input
  // exactly as on a fresh one.
  const int v = 40;
  auto snapshot = std::make_shared<const monitor::ClusterSnapshot>(
      switched_snapshot(v, 5150, 8));
  monitor::StalenessView view;
  view.now = 1000.0;
  view.node.assign(static_cast<std::size_t>(v), 1.0);
  util::FlatMatrix pair_age(static_cast<std::size_t>(v), 1.0);
  sim::Rng rng(0xabcdef);
  for (int i = 0; i < v; ++i) {
    if (rng.chance(0.2)) view.node[static_cast<std::size_t>(i)] = 100.0;
  }
  for (int u = 0; u < v; ++u) {
    for (int w = u + 1; w < v; ++w) {
      if (rng.chance(0.15)) {
        pair_age[static_cast<std::size_t>(u)][static_cast<std::size_t>(w)] =
            700.0;
        pair_age[static_cast<std::size_t>(w)][static_cast<std::size_t>(u)] =
            700.0;
      }
    }
  }
  testing::set_pair_ages(view, pair_age);
  Degrader degrader(DegradationPolicy{});
  const DegradationOutcome out = degrader.apply(snapshot, view);
  ASSERT_TRUE(out.degraded);
  monitor::ClusterSnapshot degraded = *out.snapshot;
  degraded.version = 11;
  check_parallel_builder(degraded, 99, std::nullopt);
  check_parallel_builder(degraded, 99, TilingOptions{});
}

void expect_same_decision(const BrokerDecision& actual,
                          const BrokerDecision& expected) {
  EXPECT_EQ(actual.action, expected.action);
  EXPECT_EQ(actual.reason, expected.reason);
  EXPECT_EQ(actual.effective_capacity, expected.effective_capacity);
  expect_same_allocation(actual.allocation, expected.allocation);
}

TEST(ParallelRefreshEquivalenceTest, EpochDecidesBitIdenticalAcrossThreads) {
  // At 192 or more usable nodes an epoch decide fans candidate generation
  // out over the broker's refresh pool. A broker with 4 refresh threads must
  // decide exactly as one with 1 (serial generation), on the flat path,
  // through two-phase pruning and in the two-phase covering regime, for
  // single decides and a debiting batch.
  constexpr int kNodes = 240;
  const auto snapshot = std::make_shared<const monitor::ClusterSnapshot>(
      switched_snapshot(kNodes, 0xdec1de, 12));
  const std::vector<AllocationRequest> requests{
      make_request(16, 0), make_request(128, 0), make_request(512, 0)};
  const RequestProfile profile = RequestProfile::of(requests.front());
  BrokerPolicy policy;
  policy.max_load_per_core = 1e9;  // random loads; decide, never wait
  HierarchicalOptions pruned;
  pruned.pair_sample = 0;
  HierarchicalOptions covering = pruned;
  covering.two_phase_min_nodes = std::numeric_limits<std::size_t>::max();
  const std::optional<HierarchicalOptions> modes[] = {std::nullopt, pruned,
                                                      covering};
  for (const std::optional<HierarchicalOptions>& mode : modes) {
    SCOPED_TRACE(::testing::Message()
                 << (!mode ? "flat"
                     : mode->two_phase_min_nodes == 0 ? "two-phase pruned"
                                                      : "two-phase covering"));
    NetworkLoadAwareAllocator allocator;
    ResourceBroker serial(allocator, policy);
    ResourceBroker pooled(allocator, policy);
    pooled.set_refresh_threads(4);
    if (mode) {
      serial.set_hierarchy(*mode);
      pooled.set_hierarchy(*mode);
    }
    serial.refresh_epoch(snapshot, profile);
    pooled.refresh_epoch(snapshot, profile);
    const EpochPin serial_pin = serial.pin_epoch();
    const EpochPin pooled_pin = pooled.pin_epoch();
    for (const AllocationRequest& request : requests) {
      SCOPED_TRACE(::testing::Message() << "nprocs=" << request.nprocs);
      const std::uint64_t tasks = obs::metrics::threadpool_tasks().value();
      const BrokerDecision want = serial.decide(serial_pin, request);
      EXPECT_EQ(obs::metrics::threadpool_tasks().value(), tasks);
      const BrokerDecision got = pooled.decide(pooled_pin, request);
      ASSERT_EQ(want.action, BrokerDecision::Action::kAllocate);
      expect_same_decision(got, want);
      // The pooled decide really fanned out: one task per start node.
      if (!mode || mode->two_phase_min_nodes != 0) {
        EXPECT_GE(obs::metrics::threadpool_tasks().value() - tasks,
                  static_cast<std::uint64_t>(kNodes));
      }
    }
    const std::vector<BrokerDecision> want =
        serial.decide_batch(serial_pin, requests);
    const std::vector<BrokerDecision> got =
        pooled.decide_batch(pooled_pin, requests);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "batch request " << i);
      expect_same_decision(got[i], want[i]);
    }
  }
}

/// Deterministic procedural pair terms: tiled V=4096 equivalence without
/// materializing a 4096² snapshot (the PairSource seam exists for exactly
/// this).
class HashPairSource final : public PairSource {
 public:
  explicit HashPairSource(std::uint64_t salt) : salt_(salt) {}

  Raw read(cluster::NodeId u, cluster::NodeId v) const override {
    const auto a = static_cast<std::uint64_t>(std::min(u, v));
    const auto b = static_cast<std::uint64_t>(std::max(u, v));
    std::uint64_t x = salt_ ^ (a * 0x9e3779b97f4a7c15ull) ^
                      (b * 0xbf58476d1ce4e5b9ull);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    Raw raw;
    if ((x & 0xf) == 0) return raw;  // ~6% unmeasured
    raw.lat = 40.0 + static_cast<double>(x % 760);
    raw.comp = static_cast<double>((x >> 10) % 950);
    return raw;
  }

 private:
  std::uint64_t salt_;
};

TEST(ParallelRefreshEquivalenceTest, TiledV4096ProceduralBitIdentical) {
  const std::size_t v = 4096;
  std::vector<cluster::NodeId> nodes(v);
  for (std::size_t i = 0; i < v; ++i) {
    nodes[i] = static_cast<cluster::NodeId>(i);
  }
  const HashPairSource old_source(0x01d);
  const HashPairSource new_source(0x4e3);
  const NetworkLoadWeights weights{0.5, 0.5};
  util::ThreadPool pool(4);

  detail::TiledNlState serial;
  detail::TiledNlState pooled;
  serial.full_build(old_source, nodes, util::BlockPartition::fixed(v, 64),
                    weights);
  pooled.full_build(old_source, nodes, util::BlockPartition::fixed(v, 64),
                    weights, &pool);

  const auto expect_same_state = [&](const detail::TiledNlState& a,
                                     const detail::TiledNlState& b) {
    EXPECT_EQ(a.scalars().lat_fill, b.scalars().lat_fill);
    EXPECT_EQ(a.scalars().comp_fill, b.scalars().comp_fill);
    EXPECT_EQ(a.scalars().lat_s, b.scalars().lat_s);
    EXPECT_EQ(a.scalars().comp_s, b.scalars().comp_s);
    EXPECT_EQ(a.scalars().rescale, b.scalars().rescale);
    const std::size_t tiles = a.partition().tile_count();
    ASSERT_EQ(tiles, b.partition().tile_count());
    std::size_t mismatches = 0;
    for (std::size_t t = 0; t < tiles; ++t) {
      if (a.tile_lat_mean(t) != b.tile_lat_mean(t) ||
          a.tile_comp_mean(t) != b.tile_comp_mean(t) ||
          a.tile_pairs(t) != b.tile_pairs(t)) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u);
  };
  expect_same_state(pooled, serial);

  // Sharded delta apply: a dirty set with repeats, replayed serially on one
  // state and sharded on the other.
  sim::Rng rng(0x600d);
  std::vector<detail::PairPosition> dirty;
  for (int d = 0; d < 4000; ++d) {
    const auto i = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(v) - 2));
    const auto j = static_cast<std::uint32_t>(rng.uniform_int(
        static_cast<std::int64_t>(i) + 1, static_cast<std::int64_t>(v) - 1));
    dirty.push_back({i, j});
    if (d % 37 == 0) dirty.push_back({i, j});  // duplicates, in order
  }
  for (const detail::PairPosition& p : dirty) {
    serial.patch_pair(old_source, new_source, nodes, p.i, p.j);
  }
  serial.refresh_dirty();
  pooled.patch_pairs(old_source, new_source, nodes, dirty, &pool);
  pooled.refresh_dirty();
  expect_same_state(pooled, serial);

  // The dense materialization (disjoint cell writes) agrees too — checked
  // at a smaller V to keep the suite fast.
  const std::size_t mv = 257;
  std::vector<cluster::NodeId> mnodes(nodes.begin(),
                                      nodes.begin() + static_cast<long>(mv));
  detail::TiledNlState mat_serial;
  detail::TiledNlState mat_pooled;
  mat_serial.full_build(new_source, mnodes,
                        util::BlockPartition::fixed(mv, 16), weights);
  mat_pooled.full_build(new_source, mnodes,
                        util::BlockPartition::fixed(mv, 16), weights, &pool);
  util::FlatMatrix want;
  util::FlatMatrix got;
  mat_serial.materialize_dense(new_source, mnodes, want);
  mat_pooled.materialize_dense(new_source, mnodes, got, &pool);
  expect_same_matrix(&got, &want);
}

TEST(FastPathEquivalenceTest, AnnotationMatchesPairMetricsReference) {
  // annotate_allocation walks the FlatMatrix views directly; its averages
  // must stay bit-identical to the per-pair pair_metrics() formulation.
  const monitor::ClusterSnapshot snap = random_snapshot(40, 909);
  const AllocationRequest request = make_request(24);
  NetworkLoadAwareAllocator allocator;
  const Allocation allocation = allocator.allocate(snap, request);
  ASSERT_GE(allocation.nodes.size(), 2u);

  double lat_sum = 0.0, comp_sum = 0.0;
  std::size_t lat_pairs = 0, comp_pairs = 0;
  for (std::size_t i = 0; i < allocation.nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < allocation.nodes.size(); ++j) {
      const PairMetrics m =
          pair_metrics(snap, allocation.nodes[i], allocation.nodes[j]);
      if (m.latency_us >= 0.0) {
        lat_sum += m.latency_us;
        ++lat_pairs;
      }
      if (m.bandwidth_complement_mbps >= 0.0) {
        comp_sum += m.bandwidth_complement_mbps;
        ++comp_pairs;
      }
    }
  }
  const double want_lat =
      lat_pairs > 0 ? lat_sum / static_cast<double>(lat_pairs) : 0.0;
  const double want_comp =
      comp_pairs > 0 ? comp_sum / static_cast<double>(comp_pairs) : 0.0;
  EXPECT_EQ(allocation.avg_latency_us, want_lat);
  EXPECT_EQ(allocation.avg_bw_complement_mbps, want_comp);
}

}  // namespace
}  // namespace nlarm::core
