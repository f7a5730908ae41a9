// Sharded admission front end (core/serve_shard.h): SIMD scoring bit-
// identity, ledger semantics, decision-cache replay/invalidation, request
// coalescing on a shard's lock, errors that reach the caller, and the
// multi-producer stress cases ThreadSanitizer covers (CI test regex
// includes "Serve" and "Cache").
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/broker.h"
#include "core/prepared.h"
#include "core/serve_shard.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/flat_matrix.h"

namespace nlarm::core {
namespace {

using nlarm::testing::TestNode;
using nlarm::testing::idle_nodes;
using nlarm::testing::make_snapshot;

AllocationRequest request_for(int nprocs, int ppn = 2, double alpha = 0.3) {
  AllocationRequest req;
  req.nprocs = nprocs;
  req.ppn = ppn;
  req.job = JobWeights{alpha, 1.0 - alpha};
  return req;
}

std::shared_ptr<const monitor::ClusterSnapshot> versioned_snapshot(
    int nodes, std::uint64_t version) {
  auto snap = make_snapshot(idle_nodes(nodes));
  snap.version = version;
  return std::make_shared<const monitor::ClusterSnapshot>(std::move(snap));
}

void expect_same_decision(const BrokerDecision& a, const BrokerDecision& b) {
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.allocation.nodes, b.allocation.nodes);
  EXPECT_EQ(a.allocation.procs_per_node, b.allocation.procs_per_node);
  EXPECT_EQ(a.allocation.total_cost, b.allocation.total_cost);
  EXPECT_EQ(a.effective_capacity, b.effective_capacity);
}

// --- SIMD scoring ---

TEST(ServeSimdTest, DispatchedKernelIsBitIdenticalToScalar) {
  // Every size from 1 to 41 exercises the vector body and every tail length
  // of both the AVX2 (stride 4) and NEON (stride 2) kernels.
  std::uint64_t state = 0x243f6a8885a308d3ULL;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state % 100000) / 997.0;
  };
  for (std::size_t n = 1; n <= 41; ++n) {
    std::vector<double> cl(n);
    std::vector<double> row(n);
    for (std::size_t i = 0; i < n; ++i) {
      cl[i] = next();
      row[i] = next();
    }
    for (const double alpha : {0.3, 0.5, 0.999}) {
      std::vector<double> got(n);
      std::vector<double> want(n);
      simd::score_addition_row(alpha, cl, row.data(), 1.0 - alpha, got);
      simd::score_addition_row_scalar(alpha, cl, row.data(), 1.0 - alpha,
                                      want);
      ASSERT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(double)), 0)
          << "kernel " << simd::active_kernel_name()
          << " diverged from scalar at n=" << n << " alpha=" << alpha;
    }
  }
}

TEST(ServeSimdTest, ActiveKernelIsReported) {
  const simd::Kernel kernel = simd::active_kernel();
  const char* name = simd::active_kernel_name();
  ASSERT_NE(name, nullptr);
  switch (kernel) {
    case simd::Kernel::kScalar:
      EXPECT_STREQ(name, "scalar");
      break;
    case simd::Kernel::kAvx2:
      EXPECT_STREQ(name, "avx2");
      break;
    case simd::Kernel::kNeon:
      EXPECT_STREQ(name, "neon");
      break;
  }
}

// --- AdmissionLedger ---

TEST(ServeLedgerTest, TryDebitIsAllOrNothing) {
  const std::vector<int> pc = {4, 4, 2};
  AdmissionLedger ledger(7, pc);
  EXPECT_EQ(ledger.epoch(), 7u);

  const std::vector<std::int32_t> positions = {0, 1, 2};
  const std::vector<int> takes = {2, 2, 2};
  EXPECT_TRUE(ledger.try_debit(positions, takes));

  // Position 2 is now empty; the whole debit must fail AND roll back the
  // partial reservations on positions 0 and 1.
  EXPECT_FALSE(ledger.try_debit(positions, takes));
  std::vector<int> remaining;
  std::vector<std::size_t> starts;
  EXPECT_EQ(ledger.snapshot(remaining, starts), 4);
  EXPECT_EQ(remaining, (std::vector<int>{2, 2, 0}));
  EXPECT_EQ(starts, (std::vector<std::size_t>{0, 1}));
}

TEST(ServeLedgerTest, DebitClampedFloorsAtZero) {
  const std::vector<int> pc = {3};
  AdmissionLedger ledger(1, pc);
  ledger.debit_clamped(0, 10);  // round-robin oversubscription grant
  std::vector<int> remaining;
  std::vector<std::size_t> starts;
  EXPECT_EQ(ledger.snapshot(remaining, starts), 0);
  EXPECT_EQ(remaining, (std::vector<int>{0}));
  EXPECT_TRUE(starts.empty());
}

// --- ServePlane determinism ---

TEST(ServePlaneTest, CacheOffSingleShardMatchesDecideBatch) {
  auto snapshot = versioned_snapshot(8, 3);
  const AllocationRequest probe = request_for(4);
  NetworkLoadAwareAllocator allocator;
  ResourceBroker broker(allocator);
  broker.refresh_epoch(snapshot, RequestProfile::of(probe));

  // Mixed shapes, including repeats — with the cache off every request is
  // fresh-scored against the ledger's post-debit capacities, which must
  // reproduce decide_batch's working-copy debits exactly.
  std::vector<AllocationRequest> requests;
  requests.push_back(request_for(4));
  requests.push_back(request_for(6, 2, 0.5));
  requests.push_back(request_for(4));
  requests.push_back(request_for(2, 2, 0.999));
  requests.push_back(request_for(8));

  EpochPin pin = broker.pin_epoch();
  const std::vector<BrokerDecision> batch = broker.decide_batch(pin, requests);

  ServeOptions options;
  options.shards = 1;
  options.decision_cache = false;
  ServePlane plane(broker, options);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const BrokerDecision served = plane.decide(requests[i]);
    SCOPED_TRACE("request " + std::to_string(i));
    expect_same_decision(served, batch[i]);
  }
  plane.stop();
  const ServeStats stats = plane.stats();
  EXPECT_EQ(stats.decisions, requests.size());
  EXPECT_EQ(stats.scoring_passes, requests.size());
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(ServePlaneCacheTest, ReplayIsByteIdenticalToTheScoringPass) {
  auto snapshot = versioned_snapshot(8, 9);
  const AllocationRequest request = request_for(4);
  NetworkLoadAwareAllocator allocator;
  ResourceBroker broker(allocator);
  broker.refresh_epoch(snapshot, RequestProfile::of(request));

  ServeOptions options;
  options.shards = 1;
  options.decision_cache = true;
  options.debit_capacity = false;  // advisory: headroom never blocks replay
  ServePlane plane(broker, options);

  const BrokerDecision first = plane.decide(request);
  ASSERT_EQ(first.action, BrokerDecision::Action::kAllocate);
  for (int i = 0; i < 10; ++i) {
    const BrokerDecision replayed = plane.decide(request);
    expect_same_decision(replayed, first);
    EXPECT_EQ(replayed.reason, first.reason);
  }
  plane.stop();
  const ServeStats stats = plane.stats();
  EXPECT_EQ(stats.decisions, 11u);
  EXPECT_EQ(stats.scoring_passes, 1u) << "all replays must share one pass";
  EXPECT_EQ(stats.cache_hits, 10u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_invalidations, 0u);
}

TEST(ServePlaneCacheTest, ReplaySurvivesEpochRepublishByRescoring) {
  const AllocationRequest request = request_for(4);
  NetworkLoadAwareAllocator allocator;
  ResourceBroker broker(allocator);
  broker.refresh_epoch(versioned_snapshot(8, 1), RequestProfile::of(request));

  ServeOptions options;
  options.shards = 1;
  options.debit_capacity = false;
  ServePlane plane(broker, options);

  const BrokerDecision before = plane.decide(request);
  ASSERT_EQ(before.action, BrokerDecision::Action::kAllocate);
  broker.refresh_epoch(versioned_snapshot(8, 2), RequestProfile::of(request));
  const BrokerDecision after = plane.decide(request);
  ASSERT_EQ(after.action, BrokerDecision::Action::kAllocate);
  plane.stop();

  // The cache is keyed on the epoch: the republish must force a fresh pass,
  // never replay a placement scored against the retired epoch.
  const ServeStats stats = plane.stats();
  EXPECT_EQ(stats.scoring_passes, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(ServePlaneCacheTest, CapacityInvalidationFallsThroughToFreshScore) {
  // 4 idle nodes at ppn=2 -> capacity 8. The first nprocs=6 allocation
  // reserves 3 nodes; a same-shape replay cannot re-prove headroom (only
  // one untouched node is left), so the entry must be invalidated and the
  // request fresh-scored over the remainder — where the gate says wait,
  // exactly as decide_batch does for the same sequence.
  auto snapshot = versioned_snapshot(4, 5);
  const AllocationRequest request = request_for(6);
  NetworkLoadAwareAllocator allocator;
  ResourceBroker broker(allocator);
  broker.refresh_epoch(snapshot, RequestProfile::of(request));

  const std::vector<AllocationRequest> requests = {request, request};
  EpochPin pin = broker.pin_epoch();
  const std::vector<BrokerDecision> batch = broker.decide_batch(pin, requests);
  ASSERT_EQ(batch[0].action, BrokerDecision::Action::kAllocate);
  ASSERT_EQ(batch[1].action, BrokerDecision::Action::kWait);

  ServeOptions options;
  options.shards = 1;
  options.decision_cache = true;
  options.debit_capacity = true;
  ServePlane plane(broker, options);
  const BrokerDecision first = plane.decide(request);
  const BrokerDecision second = plane.decide(request);
  plane.stop();

  expect_same_decision(first, batch[0]);
  expect_same_decision(second, batch[1]);
  const ServeStats stats = plane.stats();
  EXPECT_EQ(stats.cache_invalidations, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.scoring_passes, 2u);
}

TEST(ServePlaneCacheTest, CoalescingFansOneScoringPassToConcurrentWaiters) {
  // 1024 nodes: one scoring pass outlasts the release of a barrier burst,
  // so the rest of the burst queues on the shard's lock behind it.
  auto snapshot = versioned_snapshot(1024, 4);
  const AllocationRequest request = request_for(8);
  NetworkLoadAwareAllocator allocator;
  ResourceBroker broker(allocator);
  broker.refresh_epoch(snapshot, RequestProfile::of(request));

  ServeOptions options;
  options.shards = 1;  // one shard: every producer queues on one lock
  options.debit_capacity = false;
  ServePlane plane(broker, options);

  constexpr int kProducers = 8;
  constexpr int kPerProducer = 50;
  std::vector<BrokerDecision> firsts(kProducers);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      BrokerDecision mine = plane.decide(request);
      for (int i = 1; i < kPerProducer; ++i) {
        const BrokerDecision again = plane.decide(request);
        if (again.allocation.nodes != mine.allocation.nodes ||
            again.allocation.procs_per_node !=
                mine.allocation.procs_per_node) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      firsts[static_cast<std::size_t>(p)] = std::move(mine);
    });
  }
  for (std::thread& t : producers) t.join();

  // Same epoch + same shape: every waiter must receive the identical
  // placement whether it was scored or replayed.
  EXPECT_EQ(mismatches.load(), 0);
  for (int p = 1; p < kProducers; ++p) {
    expect_same_decision(firsts[static_cast<std::size_t>(p)], firsts[0]);
  }
  const ServeStats storm = plane.stats();
  EXPECT_EQ(storm.decisions,
            static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(storm.scoring_passes, 1u)
      << "one shape against one epoch needs exactly one pass";

  // Coalescing needs a same-shape request to arrive while the shape's
  // scoring pass runs. Under sanitizers, thread startup can serialize the
  // storm enough that the pass finishes before the others arrive; retry
  // barrier-released bursts on fresh shapes (distinct alpha bits ->
  // distinct cache keys) until one burst lands together.
  for (int attempt = 0; attempt < 10 && plane.stats().coalesced == 0;
       ++attempt) {
    AllocationRequest fresh = request;
    fresh.job.alpha += 1e-9 * static_cast<double>(attempt + 1);
    std::atomic<bool> go{false};
    std::vector<std::thread> burst;
    for (int p = 0; p < kProducers; ++p) {
      burst.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        for (int i = 0; i < 4; ++i) plane.decide(fresh);
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& t : burst) t.join();
  }
  plane.stop();
  EXPECT_GT(plane.stats().coalesced, 0u)
      << "concurrent same-shape requests should ride a queued-behind pass";
}

TEST(ServePlaneStressTest, ManyProducersManyShardsWithEpochChurn) {
  const AllocationRequest request = request_for(6);
  const RequestProfile profile = RequestProfile::of(request);
  NetworkLoadAwareAllocator allocator;
  ResourceBroker broker(allocator);
  broker.refresh_epoch(versioned_snapshot(10, 100), profile);

  ServeOptions options;
  options.shards = 3;
  options.decision_cache = true;
  options.debit_capacity = true;
  ServePlane plane(broker, options);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 300;
  std::atomic<bool> stop_churn{false};
  std::thread churn([&broker, &profile, &stop_churn] {
    std::uint64_t version = 101;
    while (!stop_churn.load(std::memory_order_relaxed)) {
      broker.refresh_epoch(versioned_snapshot(10, version++), profile);
      std::this_thread::yield();
    }
  });

  std::atomic<int> allocated{0};
  std::atomic<int> waited{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        const BrokerDecision decision = plane.decide(request);
        if (decision.action == BrokerDecision::Action::kAllocate) {
          NLARM_CHECK(!decision.allocation.nodes.empty());
          allocated.fetch_add(1, std::memory_order_relaxed);
        } else {
          waited.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  stop_churn.store(true, std::memory_order_relaxed);
  churn.join();
  plane.stop();

  EXPECT_EQ(allocated.load() + waited.load(), kProducers * kPerProducer);
  const ServeStats stats = plane.stats();
  EXPECT_EQ(stats.decisions,
            static_cast<std::uint64_t>(kProducers * kPerProducer));
  // Epoch churn resets the ledger on every publish, so fresh capacity keeps
  // arriving and most decisions should allocate.
  EXPECT_GT(allocated.load(), 0);
}

TEST(ServePlaneTest, OptionsAreValidated) {
  EXPECT_THROW(
      {
        ServeOptions bad;
        bad.shards = 0;
        bad.validate();
      },
      util::CheckError);
}

TEST(ServePlaneTest, MalformedRequestThrowsToTheCaller) {
  NetworkLoadAwareAllocator allocator;
  ResourceBroker broker(allocator);
  broker.refresh_epoch(versioned_snapshot(8, 1),
                       RequestProfile::of(request_for(4)));
  ServePlane plane(broker, ServeOptions{});

  EXPECT_THROW(plane.decide(request_for(0)), util::CheckError);
  // The shard is still usable after the throw.
  EXPECT_EQ(plane.decide(request_for(4)).action,
            BrokerDecision::Action::kAllocate);
  EXPECT_EQ(plane.stats().decisions, 1u);
}

TEST(ServePlaneTest, DecideAfterStopThrows) {
  NetworkLoadAwareAllocator allocator;
  ResourceBroker broker(allocator);
  const AllocationRequest request = request_for(4);
  broker.refresh_epoch(versioned_snapshot(8, 1), RequestProfile::of(request));
  ServeOptions options;
  options.shards = 2;
  ServePlane plane(broker, options);
  ASSERT_EQ(plane.decide(request).action, BrokerDecision::Action::kAllocate);

  plane.stop();
  EXPECT_THROW(plane.decide(request), util::CheckError);
  EXPECT_THROW(plane.decide(request), util::CheckError);  // the other shard
  plane.stop();  // idempotent
  EXPECT_EQ(plane.stats().decisions, 1u);
}

TEST(ServePlaneTest, RequiresPublishedEpoch) {
  NetworkLoadAwareAllocator allocator;
  ResourceBroker broker(allocator);
  EXPECT_THROW(ServePlane(broker, ServeOptions{}), util::CheckError);
}

}  // namespace
}  // namespace nlarm::core
