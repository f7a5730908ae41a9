#include "core/degrade.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/allocator.h"
#include "core/broker.h"
#include "monitor/snapshot_codec.h"
#include "monitor/store.h"
#include "sim/rng.h"
#include "test_helpers.h"
#include "util/check.h"

namespace nlarm::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

monitor::StalenessView fresh_view(std::size_t n) {
  monitor::StalenessView view;
  view.now = 1000.0;
  view.node.assign(n, 1.0);
  util::FlatMatrix pair_age(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) pair_age[i][i] = 0.0;
  testing::set_pair_ages(view, pair_age);
  return view;
}

std::shared_ptr<const monitor::ClusterSnapshot> snap4() {
  return std::make_shared<const monitor::ClusterSnapshot>(
      testing::make_snapshot(testing::idle_nodes(4)));
}

TEST(DegradationPolicyTest, ValidatesBounds) {
  DegradationPolicy policy;
  policy.validate();  // defaults are sane

  DegradationPolicy bad = policy;
  bad.node_readmit_s = bad.node_staleness_budget_s + 1.0;
  EXPECT_THROW(bad.validate(), util::CheckError);
  bad = policy;
  bad.pair_penalty = 0.5;
  EXPECT_THROW(bad.validate(), util::CheckError);
  bad = policy;
  bad.max_epoch_age_s = 0.0;
  EXPECT_THROW(bad.validate(), util::CheckError);
}

TEST(DegraderTest, FreshInputsPassThroughWithoutCopy) {
  Degrader degrader(DegradationPolicy{});
  auto snapshot = snap4();
  const DegradationOutcome out = degrader.apply(snapshot, fresh_view(4));
  EXPECT_FALSE(out.degraded);
  EXPECT_EQ(out.quarantined, 0u);
  EXPECT_EQ(out.pair_fallbacks, 0u);
  EXPECT_TRUE(out.changed_pairs.empty());
  // Same object, not a copy — fresh epochs stay bit-identical for free.
  EXPECT_EQ(out.snapshot.get(), snapshot.get());
}

TEST(DegraderTest, QuarantinesOverBudgetNodesWithHysteresis) {
  DegradationPolicy policy;
  policy.node_staleness_budget_s = 30.0;
  policy.node_readmit_s = 15.0;
  Degrader degrader(policy);
  auto snapshot = snap4();

  monitor::StalenessView view = fresh_view(4);
  view.node[2] = 31.0;  // over budget
  DegradationOutcome out = degrader.apply(snapshot, view);
  EXPECT_TRUE(out.degraded);
  EXPECT_TRUE(out.quarantine_changed);
  EXPECT_EQ(out.quarantined, 1u);
  ASSERT_NE(out.snapshot.get(), snapshot.get());
  EXPECT_FALSE(out.snapshot->livehosts[2]);
  EXPECT_TRUE(out.snapshot->livehosts[1]);

  // Back under budget but above the readmit threshold: still quarantined
  // (hysteresis), and the membership did not change.
  view.node[2] = 20.0;
  out = degrader.apply(snapshot, view);
  EXPECT_EQ(out.quarantined, 1u);
  EXPECT_FALSE(out.quarantine_changed);
  EXPECT_FALSE(out.snapshot->livehosts[2]);

  // Below the readmit threshold: back in.
  view.node[2] = 10.0;
  out = degrader.apply(snapshot, view);
  EXPECT_EQ(out.quarantined, 0u);
  EXPECT_TRUE(out.quarantine_changed);
  EXPECT_FALSE(out.degraded);
  EXPECT_EQ(out.snapshot.get(), snapshot.get());
}

TEST(DegraderTest, NeverWrittenNodesAreNotQuarantined) {
  // A node whose record the monitor already invalidated (or that is dead)
  // carries no quarantine state: rewriting it would be a no-op.
  Degrader degrader(DegradationPolicy{});
  auto raw = testing::make_snapshot(testing::idle_nodes(4));
  raw.nodes[1].valid = false;
  raw.livehosts[3] = false;
  auto snapshot = std::make_shared<const monitor::ClusterSnapshot>(raw);

  monitor::StalenessView view = fresh_view(4);
  view.node[1] = kInf;
  view.node[3] = kInf;
  const DegradationOutcome out = degrader.apply(snapshot, view);
  EXPECT_EQ(out.quarantined, 0u);
  EXPECT_FALSE(out.quarantine_changed);
}

TEST(DegraderTest, StalePairsFallBackToPenalizedRunningMean) {
  DegradationPolicy policy;
  policy.pair_staleness_budget_s = 600.0;
  policy.pair_penalty = 1.25;
  Degrader degrader(policy);

  auto raw = testing::make_snapshot(testing::idle_nodes(4), /*lat_us=*/100.0,
                                    /*bw_mbps=*/900.0, /*peak_mbps=*/1000.0);
  // Spot value drifted away from the 5-min mean; the fallback must serve
  // the mean with the penalty, not the stale spot value.
  raw.net.latency_us[0][1] = raw.net.latency_us[1][0] = 50.0;
  auto snapshot = std::make_shared<const monitor::ClusterSnapshot>(raw);

  monitor::StalenessView view = fresh_view(4);
  util::FlatMatrix pair_age(4, 1.0);
  pair_age[0][1] = 700.0;  // one direction stale...
  pair_age[1][0] = 650.0;  // ...the fresher one still over budget
  testing::set_pair_ages(view, pair_age);
  DegradationOutcome out = degrader.apply(snapshot, view);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.pair_fallbacks, 1u);
  ASSERT_EQ(out.changed_pairs.size(), 1u);
  EXPECT_EQ(out.changed_pairs[0], std::make_pair(cluster::NodeId(0),
                                                 cluster::NodeId(1)));
  // latency_5min_us is 100 → 100 * 1.25, both directions.
  EXPECT_DOUBLE_EQ(out.snapshot->net.latency_us[0][1], 125.0);
  EXPECT_DOUBLE_EQ(out.snapshot->net.latency_us[1][0], 125.0);
  // bandwidth deficit (1000-900) is amplified: 1000 - 100*1.25.
  EXPECT_DOUBLE_EQ(out.snapshot->net.bandwidth_mbps[0][1], 875.0);
  // Untouched pairs keep their values.
  EXPECT_DOUBLE_EQ(out.snapshot->net.latency_us[2][3], 100.0);

  // One fresh direction (daemons write both orders together) rescues the
  // pair: min() of the directions decides.
  pair_age[1][0] = 10.0;
  testing::set_pair_ages(view, pair_age);
  out = degrader.apply(snapshot, view);
  EXPECT_EQ(out.pair_fallbacks, 0u);
  // Leaving fallback is a flip too: the consumer must re-patch the pair
  // back to its true values.
  ASSERT_EQ(out.changed_pairs.size(), 1u);
  EXPECT_FALSE(out.degraded);
}

TEST(DegraderTest, NeverMeasuredPairsStayOut) {
  Degrader degrader(DegradationPolicy{});
  auto snapshot = snap4();
  monitor::StalenessView view = fresh_view(4);
  util::FlatMatrix pair_age(4, 1.0);
  pair_age[0][1] = kInf;
  pair_age[1][0] = kInf;
  testing::set_pair_ages(view, pair_age);
  const DegradationOutcome out = degrader.apply(snapshot, view);
  EXPECT_EQ(out.pair_fallbacks, 0u);
  EXPECT_FALSE(out.degraded);
}

TEST(DegraderTest, UnchangedStateReportsNoFlips) {
  Degrader degrader(DegradationPolicy{});
  auto snapshot = snap4();
  monitor::StalenessView view = fresh_view(4);
  util::FlatMatrix pair_age(4, 1.0);
  pair_age[0][1] = pair_age[1][0] = 700.0;
  testing::set_pair_ages(view, pair_age);
  DegradationOutcome out = degrader.apply(snapshot, view);
  EXPECT_EQ(out.changed_pairs.size(), 1u);
  // Same staleness again: the pair is already in fallback, nothing flipped.
  out = degrader.apply(snapshot, view);
  EXPECT_TRUE(out.changed_pairs.empty());
  EXPECT_EQ(out.pair_fallbacks, 1u);
  EXPECT_TRUE(out.degraded);
}

TEST(DegraderTest, RejectsMismatchedView) {
  Degrader degrader(DegradationPolicy{});
  EXPECT_THROW(degrader.apply(snap4(), fresh_view(3)), util::CheckError);
}

// --- expiry queue vs the full walk. The oracle is a second Degrader fed
// the same views with no delta: it walks every pair on every apply, and its
// node-hysteresis state stays identical to the incremental one's. ---

using PairSet = std::set<std::pair<cluster::NodeId, cluster::NodeId>>;

std::string snapshot_bytes(const monitor::ClusterSnapshot& snapshot) {
  std::string out;
  monitor::encode_snapshot_binary(snapshot, out);
  return out;
}

void expect_same_outcome(const DegradationOutcome& incremental,
                         const DegradationOutcome& oracle,
                         const std::string& context) {
  EXPECT_EQ(PairSet(incremental.changed_pairs.begin(),
                    incremental.changed_pairs.end()),
            PairSet(oracle.changed_pairs.begin(), oracle.changed_pairs.end()))
      << context;
  EXPECT_EQ(incremental.changed_pairs.size(), oracle.changed_pairs.size())
      << context;
  EXPECT_EQ(incremental.pair_fallbacks, oracle.pair_fallbacks) << context;
  EXPECT_EQ(incremental.quarantined, oracle.quarantined) << context;
  EXPECT_EQ(incremental.quarantine_changed, oracle.quarantine_changed)
      << context;
  EXPECT_EQ(incremental.degraded, oracle.degraded) << context;
  EXPECT_EQ(snapshot_bytes(*incremental.snapshot),
            snapshot_bytes(*oracle.snapshot))
      << context;
}

struct TwinDegraders {
  explicit TwinDegraders(const DegradationPolicy& policy)
      : incremental(policy), oracle(policy) {}

  DegradationOutcome apply(
      std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
      const monitor::SnapshotDelta& delta,
      const monitor::StalenessView& view, const std::string& context) {
    DegradationOutcome out = incremental.apply(snapshot, delta, view);
    expect_same_outcome(out, oracle.apply(snapshot, view), context);
    return out;
  }

  /// assemble → drain_delta → staleness_view, then both applies.
  DegradationOutcome tick(monitor::MonitorStore& store, double now,
                          const std::string& context) {
    auto snapshot =
        std::make_shared<const monitor::ClusterSnapshot>(store.assemble(now));
    const monitor::SnapshotDelta delta = store.drain_delta();
    return apply(snapshot, delta, store.staleness_view(now), context);
  }

  Degrader incremental;
  Degrader oracle;
};

monitor::NodeSnapshot node_record(int id) {
  monitor::NodeSnapshot record;
  record.spec.id = id;
  record.spec.hostname = cluster::default_hostname(id);
  record.spec.switch_id = id / 4;
  record.spec.core_count = 8;
  record.spec.cpu_freq_ghz = 3.0;
  record.spec.total_mem_gb = 16.0;
  return record;
}

void write_pair(monitor::MonitorStore& store, double time, int u, int v) {
  store.write_latency(time, u, v, 100.0 + u + v, 120.0 + u);
  store.write_latency(time, v, u, 100.0 + u + v, 120.0 + v);
  store.write_bandwidth(time, u, v, 900.0 - u, 1000.0);
  store.write_bandwidth(time, v, u, 900.0 - v, 1000.0);
}

std::unique_ptr<monitor::MonitorStore> seeded_store(int n, double now) {
  auto store = std::make_unique<monitor::MonitorStore>(n);
  store->write_livehosts(now,
                         std::vector<bool>(static_cast<std::size_t>(n), true));
  for (int i = 0; i < n; ++i) store->write_node_record(now, node_record(i));
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) write_pair(*store, now, u, v);
  }
  return store;
}

TEST(DegraderExpiryTest, SeededSchedulesMatchTheFullWalk) {
  DegradationPolicy policy;
  policy.node_staleness_budget_s = 30.0;
  policy.node_readmit_s = 15.0;
  policy.pair_staleness_budget_s = 60.0;
  policy.block_quarantine_fraction = 0.75;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
    sim::Rng rng(seed);
    TwinDegraders twins(policy);
    int n = 10;
    double now = 100.0;
    auto store = seeded_store(n, now);
    std::size_t flips = 0;
    std::size_t max_fallbacks = 0;
    for (int step = 0; step < 150; ++step) {
      const std::string context =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      if (step == 100) {
        // Node-count change: a new store of a different size.
        n = 13;
        store = seeded_store(n, now);
      }
      if (step == 60) {
        now -= 25.0;  // the clock steps back (chaos skew)
      } else if (rng.chance(0.12)) {
        now += rng.uniform(61.0, 130.0);  // jump across the pair budget
      } else {
        now += rng.uniform(0.5, 9.0);
      }
      for (int i = 0; i < n; ++i) {
        if (rng.chance(0.6)) store->write_node_record(now, node_record(i));
      }
      const auto writes = rng.uniform_int(0, 5);
      for (std::int64_t w = 0; w < writes; ++w) {
        const auto u = static_cast<int>(rng.uniform_int(0, n - 1));
        const auto v = static_cast<int>(rng.uniform_int(0, n - 1));
        if (u == v) continue;
        // Any time up to now: some writes land already stale, and some are
        // older than entries already queued.
        const double time = now - rng.uniform(0.0, 90.0);
        if (rng.chance(0.5)) {
          write_pair(*store, time, u, v);
        } else if (rng.chance(0.5)) {
          store->write_latency(time, u, v, 70.0, 75.0);  // one direction
        } else {
          store->write_bandwidth(time, v, u, 800.0, 1000.0);
        }
      }
      if (step == 80) {
        // Warm restart: every measured pair is re-stamped at `now`, and
        // the delta comes back `full` without listing them.
        store->restore(store->assemble(now));
      }
      auto snapshot = std::make_shared<const monitor::ClusterSnapshot>(
          store->assemble(now));
      const monitor::SnapshotDelta delta = store->drain_delta();
      if (step == 40) continue;  // drained, never applied: 41 cannot chain
      EXPECT_EQ(delta.full, step == 80) << context;
      const DegradationOutcome out =
          twins.apply(snapshot, delta, store->staleness_view(now), context);
      flips += out.changed_pairs.size();
      max_fallbacks = std::max(max_fallbacks, out.pair_fallbacks);
      if (::testing::Test::HasFailure()) return;
    }
    // The schedule exercised the fallback in both directions.
    EXPECT_GT(flips, 20u) << "seed " << seed;
    EXPECT_GT(max_fallbacks, 10u) << "seed " << seed;
  }
}

TEST(DegraderExpiryTest, AgeEqualToTheBudgetIsNotAFallback) {
  DegradationPolicy policy;
  policy.node_staleness_budget_s = 1e6;
  policy.node_readmit_s = 1e6;
  policy.pair_staleness_budget_s = 600.0;
  TwinDegraders twins(policy);
  auto store = seeded_store(3, 100.0);
  twins.tick(*store, 100.0, "seed");

  // 700 − 100 is exactly the budget: not over it.
  DegradationOutcome out = twins.tick(*store, 700.0, "age == budget");
  EXPECT_EQ(out.pair_fallbacks, 0u);
  EXPECT_TRUE(out.changed_pairs.empty());

  // One ulp later every pair is over it.
  out = twins.tick(*store, std::nextafter(700.0, 1e9), "one ulp above");
  EXPECT_EQ(out.pair_fallbacks, 3u);
  EXPECT_EQ(out.changed_pairs.size(), 3u);
}

TEST(DegraderExpiryTest, RewriteOlderThanQueuedEntriesFlipsOnTime) {
  DegradationPolicy policy;
  policy.node_staleness_budget_s = 1e6;
  policy.node_readmit_s = 1e6;
  policy.pair_staleness_budget_s = 600.0;
  TwinDegraders twins(policy);
  auto store = seeded_store(4, 500.0);  // every pair queued at t = 500
  twins.tick(*store, 500.0, "seed");

  // Pair (0, 1) is rewritten with a time older than every queued entry.
  write_pair(*store, 200.0, 0, 1);
  DegradationOutcome out = twins.tick(*store, 510.0, "older rewrite");
  EXPECT_EQ(out.pair_fallbacks, 0u);

  // It crosses the budget at 800+ while the pairs stamped 500 stay fresh.
  out = twins.tick(*store, 801.0, "older rewrite expires");
  EXPECT_EQ(out.pair_fallbacks, 1u);
  ASSERT_EQ(out.changed_pairs.size(), 1u);
  EXPECT_EQ(out.changed_pairs[0],
            std::make_pair(cluster::NodeId(0), cluster::NodeId(1)));

  // A re-probe brings it back; the rest expire together after 1100.
  write_pair(*store, 900.0, 0, 1);
  out = twins.tick(*store, 1101.0, "re-probe and mass expiry");
  EXPECT_EQ(out.pair_fallbacks, 5u);
  EXPECT_EQ(out.changed_pairs.size(), 6u);
}

// A re-probed pair leaving the fallback is both a dirty pair and a flipped
// one. Its patch must apply once: the incremental epoch has to equal a full
// rebuild of the same degraded snapshot.
TEST(DegradedRefreshTest, ReprobedFallbackPairIsPatchedOnce) {
  DegradationPolicy policy;
  policy.node_staleness_budget_s = 1e6;
  policy.node_readmit_s = 1e6;
  policy.pair_staleness_budget_s = 60.0;
  policy.max_epoch_age_s = 1e6;
  AllocationRequest request;
  request.nprocs = 8;
  request.ppn = 4;
  request.job = JobWeights::balanced();
  const RequestProfile profile = RequestProfile::of(request);
  NetworkLoadAwareAllocator incremental_alloc;
  NetworkLoadAwareAllocator rebuilt_alloc;
  ResourceBroker incremental(incremental_alloc);
  ResourceBroker rebuilt(rebuilt_alloc);
  incremental.set_degradation(policy);
  rebuilt.set_degradation(policy);

  auto store = seeded_store(6, 0.0);
  const auto tick = [&](double now) {
    auto snapshot =
        std::make_shared<const monitor::ClusterSnapshot>(store->assemble(now));
    const monitor::SnapshotDelta delta = store->drain_delta();
    const monitor::StalenessView view = store->staleness_view(now);
    const bool applied =
        incremental.refresh_epoch(snapshot, delta, view, profile);
    rebuilt.refresh_epoch(snapshot, view, profile);
    const EpochPin a = incremental.pin_epoch();
    const EpochPin b = rebuilt.pin_epoch();
    EXPECT_TRUE(*a.prepared->nl == *b.prepared->nl) << "t=" << now;
    EXPECT_EQ(a.prepared->pair_fallbacks, b.prepared->pair_fallbacks);
    return applied;
  };
  tick(0.0);
  // Every pair but (0, 1) is re-probed: (0, 1) ages onto the fallback.
  for (int u = 0; u < 6; ++u) {
    for (int v = u + 1; v < 6; ++v) {
      if (u != 0 || v != 1) write_pair(*store, 100.0, u, v);
    }
  }
  EXPECT_TRUE(tick(100.0));
  EXPECT_EQ(incremental.pin_epoch().prepared->pair_fallbacks, 1u);
  // The re-probe brings new values and takes it off the fallback.
  store->write_latency(110.0, 0, 1, 40.0, 45.0);
  store->write_latency(110.0, 1, 0, 40.0, 45.0);
  EXPECT_TRUE(tick(110.0));
  EXPECT_EQ(incremental.pin_epoch().prepared->pair_fallbacks, 0u);
}

}  // namespace
}  // namespace nlarm::core
