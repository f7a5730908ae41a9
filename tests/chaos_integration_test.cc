// End-to-end fault-injection acceptance: the monitor→degrade→epoch→decide
// pipeline under a chaos schedule. The headline scenario (ISSUE 4): stall
// 10% of the NodeStateD daemons and tear one snapshot write — every decide
// completes, stale nodes quarantine (visibly), incremental degraded
// refreshes stay bit-identical to a shadow full-rebuild pipeline, and the
// torn write never corrupts the on-disk snapshot.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/allocator.h"
#include "core/broker.h"
#include "core/degrade.h"
#include "exp/chaos_harness.h"
#include "exp/experiment.h"
#include "monitor/persistence.h"
#include "test_helpers.h"
#include "util/check.h"

namespace nlarm {
namespace {

core::AllocationRequest make_request() {
  core::AllocationRequest request;
  request.nprocs = 16;
  request.ppn = 4;
  request.job = core::JobWeights{0.3, 0.7};
  return request;
}

void expect_same_decision(const core::BrokerDecision& a,
                          const core::BrokerDecision& b) {
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.allocation.nodes, b.allocation.nodes);
  EXPECT_EQ(a.allocation.procs_per_node, b.allocation.procs_per_node);
  // Bit-exact cost equality, not a tolerance.
  EXPECT_EQ(a.allocation.total_cost, b.allocation.total_cost);
}

TEST(ChaosIntegrationTest, StalledDaemonsAndTornWriteZeroFailedDecides) {
  exp::Testbed::Options options;
  options.seed = 77;
  options.warmup_seconds = 400.0;
  options.cluster.fast_nodes = 12;  // small world, same structure
  options.cluster.slow_nodes = 6;
  options.cluster.switches = 2;
  auto testbed = exp::Testbed::make(options);
  sim::Simulation& sim = testbed->sim();

  core::NetworkLoadAwareAllocator allocator;       // incremental pipeline
  core::NetworkLoadAwareAllocator shadow_allocator;  // full-rebuild shadow
  core::ResourceBroker broker(allocator);
  core::ResourceBroker shadow(shadow_allocator);
  obs::AuditLog audit_log;
  broker.set_audit_log(&audit_log);

  core::DegradationPolicy degradation;
  degradation.node_staleness_budget_s = 30.0;
  degradation.node_readmit_s = 15.0;
  broker.set_degradation(degradation);
  shadow.set_degradation(degradation);

  const std::string dump_path =
      ::testing::TempDir() + "chaos_snapshot.txt";
  std::remove(dump_path.c_str());

  // 10% of the NodeStateDs wedge (alive but silent) for most of the run;
  // one snapshot write is torn mid-flight.
  exp::ChaosHarness harness(
      sim::ChaosSpec::parse("seed=7; stall:nodestate:0.1@10+400; "
                            "tear:snapshot@30"),
      sim, testbed->cluster(), testbed->monitor());
  harness.arm();

  const core::AllocationRequest request = make_request();
  const core::RequestProfile profile = core::RequestProfile::of(request);
  std::size_t max_quarantined = 0;
  std::size_t degraded_epochs = 0;
  int saves_failed = 0;
  core::EpochPin pin;
  core::EpochPin shadow_pin;
  const double end_time = sim.now() + 300.0;
  while (sim.now() < end_time) {
    sim.run_until(sim.now() + 5.0);
    const double now = sim.now() + harness.clock_skew();
    auto snapshot = std::make_shared<const monitor::ClusterSnapshot>(
        testbed->monitor().snapshot());
    const monitor::SnapshotDelta delta =
        testbed->monitor().store().drain_delta();
    const monitor::StalenessView staleness =
        testbed->monitor().store().staleness_view(now);

    broker.refresh_epoch(snapshot, delta, staleness, profile);
    shadow.refresh_epoch(snapshot, staleness, profile);  // always rebuilds
    broker.refresh_pin(pin);
    shadow.refresh_pin(shadow_pin);
    ASSERT_TRUE(pin.valid());

    max_quarantined = std::max(max_quarantined, pin.prepared->quarantined);
    if (pin.prepared->degraded) ++degraded_epochs;
    // Incremental degraded epochs must match the shadow full rebuild
    // bit-for-bit — including while nodes are quarantined.
    EXPECT_EQ(pin.prepared->quarantined, shadow_pin.prepared->quarantined);

    core::BrokerDecision decision;
    ASSERT_NO_THROW(decision = broker.decide(pin, request));
    const core::BrokerDecision shadow_decision =
        shadow.decide(shadow_pin, request);
    expect_same_decision(decision, shadow_decision);

    if (!monitor::save_snapshot_file(dump_path, *snapshot)) ++saves_failed;
  }

  // The stalled daemons' records aged out: quarantine was engaged and
  // visible on the published epochs.
  EXPECT_GT(max_quarantined, 0u);
  EXPECT_GT(degraded_epochs, 0u);
  // Zero failed decides: nothing threw (asserted above) and nothing was
  // refused.
  EXPECT_EQ(broker.stale_refusals(), 0);
  // Exactly the torn save failed; the file on disk still parses.
  EXPECT_EQ(saves_failed, 1);
  EXPECT_NO_THROW(monitor::load_snapshot_file(dump_path));

  // Degradation is visible in the audit trail.
  std::size_t degraded_records = 0;
  for (const obs::AuditRecord& record : audit_log.records()) {
    if (record.degradation == "degraded-epoch") {
      ++degraded_records;
      EXPECT_GT(record.quarantined_nodes, 0);
    }
  }
  EXPECT_GT(degraded_records, 0u);
  std::remove(dump_path.c_str());
}

TEST(ChaosIntegrationTest, PoisonedEpochFallsBackToLastGood) {
  core::NetworkLoadAwareAllocator allocator;
  core::ResourceBroker broker(allocator);
  obs::AuditLog audit_log;
  broker.set_audit_log(&audit_log);
  core::DegradationPolicy degradation;
  degradation.max_epoch_age_s = 120.0;
  broker.set_degradation(degradation);

  const core::AllocationRequest request = make_request();
  const core::RequestProfile profile = core::RequestProfile::of(request);
  const std::size_t n = 8;

  // Epoch 1: everything fresh — becomes the last-good epoch.
  auto good = std::make_shared<const monitor::ClusterSnapshot>(
      testing::make_snapshot(testing::idle_nodes(static_cast<int>(n))));
  monitor::StalenessView fresh;
  fresh.now = 1.0;
  fresh.node.assign(n, 1.0);
  testing::set_pair_ages(fresh, util::FlatMatrix(n, 1.0));
  broker.refresh_epoch(good, fresh, profile);
  core::EpochPin pin = broker.pin_epoch();
  const core::BrokerDecision healthy = broker.decide(pin, request);
  ASSERT_EQ(healthy.action, core::BrokerDecision::Action::kAllocate);

  // Epoch 2: every record over budget — all nodes quarantined, the epoch
  // is poisoned, but it is young enough to serve from the last-good one.
  auto poisoned_snap = std::make_shared<monitor::ClusterSnapshot>(*good);
  poisoned_snap->time = good->time + 60.0;
  monitor::StalenessView stale;
  stale.now = 1.0;
  stale.node.assign(n, 1000.0);
  testing::set_pair_ages(stale, util::FlatMatrix(n, 1.0));
  broker.refresh_epoch(poisoned_snap, stale, profile);
  broker.refresh_pin(pin);
  ASSERT_TRUE(pin.prepared->usable.empty());
  const core::BrokerDecision fallback = broker.decide(pin, request);
  EXPECT_EQ(fallback.action, core::BrokerDecision::Action::kAllocate);
  EXPECT_EQ(fallback.allocation.nodes, healthy.allocation.nodes);
  EXPECT_EQ(broker.fallback_decisions(), 1);
  EXPECT_EQ(audit_log.records().back().degradation, "last-good-fallback");

  // Epoch 3: still poisoned, but now the last-good epoch is older than the
  // hard bound — the broker refuses rather than deciding on ancient state.
  auto ancient = std::make_shared<monitor::ClusterSnapshot>(*good);
  ancient->time = good->time + 200.0;
  broker.refresh_epoch(ancient, stale, profile);
  broker.refresh_pin(pin);
  const core::BrokerDecision refused = broker.decide(pin, request);
  EXPECT_EQ(refused.action, core::BrokerDecision::Action::kWait);
  EXPECT_NE(refused.reason.find("refusing"), std::string::npos);
  EXPECT_EQ(broker.stale_refusals(), 1);
  EXPECT_EQ(audit_log.records().back().degradation, "refused-stale");

  // decide_batch refuses the whole batch the same way.
  const std::vector<core::AllocationRequest> batch(3, request);
  const std::vector<core::BrokerDecision> decisions =
      broker.decide_batch(pin, batch);
  ASSERT_EQ(decisions.size(), 3u);
  for (const core::BrokerDecision& d : decisions) {
    EXPECT_EQ(d.action, core::BrokerDecision::Action::kWait);
  }
  EXPECT_EQ(broker.stale_refusals(), 4);
}

TEST(ChaosIntegrationTest, SupervisorKillsAndFlapsKeepMonitorCoherent) {
  exp::Testbed::Options options;
  options.seed = 13;
  options.warmup_seconds = 200.0;
  options.cluster.fast_nodes = 8;
  options.cluster.slow_nodes = 4;
  options.cluster.switches = 2;
  auto testbed = exp::Testbed::make(options);
  sim::Simulation& sim = testbed->sim();

  exp::ChaosHarness harness(
      sim::ChaosSpec::parse(
          "seed=3; kill:master@5; flap:random@20+30; skew:4.5@40"),
      sim, testbed->cluster(), testbed->monitor());
  harness.arm();
  sim.run_until(sim.now() + 120.0);

  // Master killed → the slave noticed and was promoted.
  EXPECT_GE(testbed->monitor().central().promotion_count(), 1);
  EXPECT_FALSE(testbed->monitor().central().abandoned());
  EXPECT_DOUBLE_EQ(harness.clock_skew(), 4.5);
  EXPECT_EQ(harness.engine().fired().size(), 3u);
  // The flapped node came back and the world still assembles.
  EXPECT_EQ(testbed->cluster().alive_nodes().size(), 12u);
  const monitor::ClusterSnapshot snapshot = testbed->monitor().snapshot();
  EXPECT_EQ(snapshot.nodes.size(), 12u);
}

}  // namespace
}  // namespace nlarm
