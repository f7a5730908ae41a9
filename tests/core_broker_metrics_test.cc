// Integration: the broker pipeline's metrics and audit trail. Counters live
// in the process-global registry, so every assertion is a before/after delta
// rather than an absolute value.
#include <gtest/gtest.h>

#include <string>

#include "core/baselines.h"
#include "core/broker.h"
#include "obs/audit.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "test_helpers.h"

namespace nlarm::core {
namespace {

using nlarm::testing::TestNode;
using nlarm::testing::idle_nodes;
using nlarm::testing::make_snapshot;

AllocationRequest request_for(int nprocs, int ppn = 4) {
  AllocationRequest req;
  req.nprocs = nprocs;
  req.ppn = ppn;
  req.job = JobWeights{0.3, 0.7};
  return req;
}

TEST(BrokerMetricsTest, RepeatedDecideOnSameSnapshotHitsCaches) {
  auto snap = make_snapshot(idle_nodes(6));
  snap.version = 42;  // versioned like a MonitorStore snapshot
  NetworkLoadAwareAllocator allocator;
  ResourceBroker broker(allocator);
  obs::AuditLog audit;
  broker.set_audit_log(&audit);

  const std::uint64_t decisions0 = obs::metrics::broker_decisions().value();
  const std::uint64_t allocations0 =
      obs::metrics::broker_allocations().value();
  const std::uint64_t requests0 = obs::metrics::alloc_requests().value();

  const BrokerDecision first = broker.decide(snap, request_for(8));
  ASSERT_EQ(first.action, BrokerDecision::Action::kAllocate);

  const BrokerDecision second = broker.decide(snap, request_for(8));
  ASSERT_EQ(second.action, BrokerDecision::Action::kAllocate);

  EXPECT_EQ(obs::metrics::broker_decisions().value(), decisions0 + 2);
  EXPECT_EQ(obs::metrics::broker_allocations().value(), allocations0 + 2);
  EXPECT_EQ(obs::metrics::alloc_requests().value(), requests0 + 2);

  // Audit trail: one record per decide().
  ASSERT_EQ(audit.records().size(), 2u);
  const std::vector<obs::AuditRecord> records = audit.records();
  const obs::AuditRecord& r0 = records[0];
  const obs::AuditRecord& r1 = records[1];
  EXPECT_EQ(r0.action, "allocate");
  EXPECT_FALSE(r1.nodes.empty());
  EXPECT_EQ(r1.nodes.size(), r1.hostnames.size());
  EXPECT_EQ(r1.nodes.size(), r1.procs_per_node.size());
  EXPECT_EQ(r1.policy, "network-load-aware");
  EXPECT_EQ(r1.nprocs, 8);
  EXPECT_EQ(r1.snapshot_version, 42u);
  EXPECT_GE(r1.total_seconds, 0.0);
  EXPECT_GE(r1.gate_seconds, 0.0);
  EXPECT_GE(r1.prepare_seconds, 0.0);
  EXPECT_GE(r1.generate_seconds, 0.0);
  EXPECT_GE(r1.select_seconds, 0.0);
  EXPECT_GT(r1.candidates_generated, 0u);
}

TEST(BrokerMetricsTest, WaitVerdictIsCountedAndAudited) {
  std::vector<TestNode> nodes = idle_nodes(6);
  for (auto& n : nodes) n.cpu_load = 20.0;  // far over the gate threshold
  auto snap = make_snapshot(nodes);
  NetworkLoadAwareAllocator allocator;
  ResourceBroker broker(allocator);
  obs::AuditLog audit;
  broker.set_audit_log(&audit);

  const std::uint64_t waits0 = obs::metrics::broker_waits().value();
  const std::uint64_t allocations0 =
      obs::metrics::broker_allocations().value();

  const BrokerDecision decision = broker.decide(snap, request_for(8));
  ASSERT_EQ(decision.action, BrokerDecision::Action::kWait);
  EXPECT_EQ(obs::metrics::broker_waits().value(), waits0 + 1);
  EXPECT_EQ(obs::metrics::broker_allocations().value(), allocations0);

  ASSERT_EQ(audit.records().size(), 1u);
  const std::vector<obs::AuditRecord> records = audit.records();
  const obs::AuditRecord& r = records[0];
  EXPECT_EQ(r.action, "wait");
  EXPECT_FALSE(r.reason.empty());
  EXPECT_TRUE(r.nodes.empty());
  // Wait records still round-trip through JSON.
  const obs::AuditRecord back = obs::AuditRecord::from_json(r.to_json());
  EXPECT_EQ(back.action, "wait");
  EXPECT_EQ(back.reason, r.reason);
}

TEST(BrokerMetricsTest, StageHistogramsObserveEachAllocation) {
  auto snap = make_snapshot(idle_nodes(6));
  snap.version = 7;
  NetworkLoadAwareAllocator allocator;
  ResourceBroker broker(allocator);

  const std::uint64_t total0 = obs::metrics::alloc_total_seconds().count();
  const std::uint64_t gate0 = obs::metrics::broker_gate_seconds().count();

  ASSERT_EQ(broker.decide(snap, request_for(8)).action,
            BrokerDecision::Action::kAllocate);

  EXPECT_EQ(obs::metrics::alloc_total_seconds().count(), total0 + 1);
  EXPECT_EQ(obs::metrics::broker_gate_seconds().count(), gate0 + 1);
}

TEST(BrokerMetricsTest, BaselineAllocatorAuditsWithoutStats) {
  // Baselines expose no AllocStats; the audit record still names the nodes.
  auto snap = make_snapshot(idle_nodes(4));
  RandomAllocator random(9);
  ResourceBroker broker(random);
  obs::AuditLog audit;
  broker.set_audit_log(&audit);

  ASSERT_EQ(broker.decide(snap, request_for(8)).action,
            BrokerDecision::Action::kAllocate);
  ASSERT_EQ(audit.records().size(), 1u);
  const std::vector<obs::AuditRecord> records = audit.records();
  const obs::AuditRecord& r = records[0];
  EXPECT_EQ(r.policy, "random");
  EXPECT_FALSE(r.nodes.empty());
  EXPECT_EQ(r.candidates_generated, 0u);
}

TEST(BrokerMetricsTest, RegisterAllExposesEverySeries) {
  obs::metrics::register_all();
  const std::string text = obs::MetricsRegistry::global().prometheus_text();
  for (const char* name : {
           "nlarm_alloc_requests_total",
           "nlarm_alloc_total_seconds",
           "nlarm_broker_decisions_total",
           "nlarm_broker_gate_seconds",
           "nlarm_threadpool_threads",
           "nlarm_threadpool_tasks_total",
           "nlarm_monitor_daemons_running",
           "nlarm_monitor_node_samples_total",
           "nlarm_sim_events_total",
       }) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace nlarm::core
