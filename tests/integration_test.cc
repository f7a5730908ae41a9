// End-to-end tests: workload → monitor → allocator → execution, wired the
// way the bench harnesses use the system.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "apps/minimd.h"
#include "apps/synthetic.h"
#include "core/broker.h"
#include "exp/experiment.h"
#include "exp/report.h"
#include "mpisim/placement.h"
#include "util/check.h"

namespace nlarm::exp {
namespace {

Testbed::Options small_options(std::uint64_t seed,
                               workload::ScenarioKind kind =
                                   workload::ScenarioKind::kSharedLab) {
  Testbed::Options options;
  options.seed = seed;
  options.scenario = kind;
  options.cluster.fast_nodes = 8;
  options.cluster.slow_nodes = 4;
  options.cluster.switches = 3;
  options.warmup_seconds = 700.0;
  return options;
}

TEST(TestbedTest, WarmupPopulatesMonitor) {
  auto testbed = Testbed::make(small_options(1));
  const monitor::ClusterSnapshot snap = testbed->snapshot();
  EXPECT_EQ(snap.usable_nodes().size(), 12u);
  // Latency measured for every live pair after warm-up (period 60 s).
  EXPECT_GT(snap.net.latency_us[0][11], 0.0);
  // Bandwidth daemon runs at 300 s; one sweep fits in the warm-up.
  EXPECT_GT(snap.net.bandwidth_mbps[0][11], 0.0);
  // Node records carry running means.
  EXPECT_GE(snap.nodes[5].cpu_load_avg.fifteen_min, 0.0);
}

TEST(TestbedTest, MonitoredViewTracksGroundTruth) {
  auto testbed = Testbed::make(small_options(2));
  const monitor::ClusterSnapshot snap = testbed->snapshot();
  // Monitored instantaneous load should be within noise+staleness of truth.
  double total_truth = 0.0;
  double total_seen = 0.0;
  for (cluster::NodeId n = 0; n < testbed->cluster().size(); ++n) {
    total_truth += testbed->cluster().node(n).dyn.cpu_load;
    total_seen += snap.nodes[static_cast<std::size_t>(n)].cpu_load;
  }
  EXPECT_NEAR(total_seen, total_truth, std::max(2.0, total_truth * 0.5));
}

TEST(IntegrationTest, PolicyComparisonRunsAllPolicies) {
  auto testbed = Testbed::make(small_options(3));
  ComparisonConfig config;
  config.make_app = [](int nranks) {
    return apps::make_comm_bound_profile(nranks, 20);
  };
  config.nprocs = 8;
  config.ppn = 4;
  config.job = core::JobWeights::balanced();
  config.repetitions = 2;
  const ComparisonResult result = run_policy_comparison(*testbed, config);
  ASSERT_EQ(result.runs.size(), static_cast<std::size_t>(kPolicyCount));
  for (int p = 0; p < kPolicyCount; ++p) {
    ASSERT_EQ(result.runs[static_cast<std::size_t>(p)].size(), 2u);
    for (const PolicyRun& run : result.runs[static_cast<std::size_t>(p)]) {
      EXPECT_GT(run.execution.total_s, 0.0);
      EXPECT_EQ(std::accumulate(run.allocation.procs_per_node.begin(),
                                run.allocation.procs_per_node.end(), 0),
                8);
    }
  }
}

TEST(IntegrationTest, OursBeatsRandomOnHotspotCluster) {
  // On a loaded, congested cluster the paper's allocator should win against
  // random allocation on average. Pool a few seeds to damp variance.
  double ours_total = 0.0;
  double random_total = 0.0;
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    auto testbed =
        Testbed::make(small_options(seed, workload::ScenarioKind::kHotspot));
    ComparisonConfig config;
    config.make_app = [](int nranks) {
      return apps::make_comm_bound_profile(nranks, 15);
    };
    config.nprocs = 12;
    config.ppn = 4;
    config.job = core::JobWeights{0.3, 0.7};
    config.repetitions = 2;
    const ComparisonResult result = run_policy_comparison(*testbed, config);
    ours_total += result.mean_time(Policy::kNetworkLoadAware);
    random_total += result.mean_time(Policy::kRandom);
  }
  EXPECT_LT(ours_total, random_total);
}

TEST(IntegrationTest, GainStatsComputedOverPairs) {
  const std::vector<double> ours{1.0, 2.0};
  const std::vector<double> other{2.0, 2.0};
  const GainStats stats = gains_over(ours, other);
  EXPECT_DOUBLE_EQ(stats.average, 0.25);
  EXPECT_DOUBLE_EQ(stats.median, 0.25);
  EXPECT_DOUBLE_EQ(stats.max, 0.5);
  EXPECT_EQ(stats.samples, 2u);
  EXPECT_THROW(gains_over({1.0}, {1.0, 2.0}), util::CheckError);
}

TEST(IntegrationTest, BrokerWaitsOnHeavyCluster) {
  auto testbed =
      Testbed::make(small_options(21, workload::ScenarioKind::kHeavy));
  core::NetworkLoadAwareAllocator allocator;
  core::ResourceBroker broker(allocator);
  core::AllocationRequest request;
  request.nprocs = 8;
  request.ppn = 4;
  request.job = core::JobWeights::balanced();
  const core::BrokerDecision decision =
      broker.decide(testbed->snapshot(), request);
  EXPECT_EQ(decision.action, core::BrokerDecision::Action::kWait);
}

TEST(IntegrationTest, BrokerAllocatesOnQuietCluster) {
  auto testbed =
      Testbed::make(small_options(22, workload::ScenarioKind::kQuiet));
  core::NetworkLoadAwareAllocator allocator;
  core::ResourceBroker broker(allocator);
  core::AllocationRequest request;
  request.nprocs = 8;
  request.ppn = 4;
  request.job = core::JobWeights::balanced();
  const core::BrokerDecision decision =
      broker.decide(testbed->snapshot(), request);
  EXPECT_EQ(decision.action, core::BrokerDecision::Action::kAllocate);
}

TEST(IntegrationTest, AllocatorWorksOnMonitoredData) {
  auto testbed = Testbed::make(small_options(30));
  core::NetworkLoadAwareAllocator allocator;
  core::AllocationRequest request;
  request.nprocs = 16;
  request.ppn = 4;
  request.job = core::JobWeights::minimd_defaults();
  const core::Allocation alloc =
      allocator.allocate(testbed->snapshot(), request);
  EXPECT_EQ(alloc.nodes.size(), 4u);
  std::set<cluster::NodeId> unique(alloc.nodes.begin(), alloc.nodes.end());
  EXPECT_EQ(unique.size(), 4u);
  // Execute the job on the chosen nodes end-to-end.
  apps::MiniMdParams params;
  params.size = 8;
  params.nranks = 16;
  const auto app = apps::make_minimd_profile(params);
  const auto placement = mpisim::Placement::from_allocation(alloc);
  const auto result = testbed->runtime().run(testbed->sim(), app, placement);
  EXPECT_GT(result.total_s, 0.0);
  EXPECT_GT(result.comm_s, 0.0);
}

TEST(IntegrationTest, DeterministicEndToEnd) {
  auto run_once = [](std::uint64_t seed) {
    auto testbed = Testbed::make(small_options(seed));
    ComparisonConfig config;
    config.make_app = [](int nranks) {
      return apps::make_comm_bound_profile(nranks, 10);
    };
    config.nprocs = 8;
    config.repetitions = 1;
    const ComparisonResult result = run_policy_comparison(*testbed, config);
    return result.mean_time(Policy::kNetworkLoadAware);
  };
  EXPECT_DOUBLE_EQ(run_once(77), run_once(77));
  EXPECT_NE(run_once(77), run_once(78));
}

TEST(ReportTest, GainTableRenders) {
  std::ostringstream out;
  GainRow row;
  row.baseline = "Random";
  row.measured = GainStats{0.45, 0.5, 0.9, 10};
  row.paper_average = 0.499;
  row.paper_median = 0.507;
  row.paper_max = 0.878;
  print_gain_table(out, "Table 2", {row});
  EXPECT_NE(out.str().find("Random"), std::string::npos);
  EXPECT_NE(out.str().find("45.0%"), std::string::npos);
  EXPECT_NE(out.str().find("49.9%"), std::string::npos);
}

TEST(ReportTest, ShapeChecksCounted) {
  std::ostringstream out;
  EXPECT_EQ(print_shape_checks(out, {check("a", true, "ok"),
                                     check("b", false)}),
            1);
  EXPECT_NE(out.str().find("[PASS] a"), std::string::npos);
  EXPECT_NE(out.str().find("[FAIL] b"), std::string::npos);
  EXPECT_NE(out.str().find("1/2"), std::string::npos);
}

}  // namespace
}  // namespace nlarm::exp
