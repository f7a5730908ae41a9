// Ablation: how much does deciding on *monitored* (noisy, stale) data cost
// versus deciding on ground truth?
//
// The paper's allocator reads NFS records written seconds-to-minutes
// earlier. This ablation allocates twice from the same instant — once from
// the monitor snapshot, once from a perfect ground-truth snapshot — and
// executes both, quantifying the fidelity gap of the monitoring pipeline.
#include <iostream>

#include "apps/synthetic.h"
#include "exp/experiment.h"
#include "exp/report.h"
#include "monitor/snapshot.h"
#include "util/args.h"
#include "util/strings.h"
#include "util/table.h"

using namespace nlarm;

int main(int argc, char** argv) {
  util::ArgParser parser(
      "Ablation: allocation quality on monitored vs ground-truth data.",
      {{"trials", "independent testbeds (default 10)"},
       {"seed", "RNG seed (default 42)"}});
  if (!parser.parse(argc, argv)) return 0;
  const int trials = static_cast<int>(parser.get_long("trials", 10));
  const auto seed = static_cast<std::uint64_t>(parser.get_long("seed", 42));

  std::vector<double> monitored_times;
  std::vector<double> truth_times;
  int same_choice = 0;

  for (int trial = 0; trial < trials; ++trial) {
    exp::Testbed::Options options;
    options.seed = seed + static_cast<std::uint64_t>(trial) * 31;
    options.scenario = workload::ScenarioKind::kHotspot;
    auto testbed = exp::Testbed::make(options);

    core::AllocationRequest request;
    request.nprocs = 24;
    request.ppn = 4;
    request.job = core::JobWeights{0.3, 0.7};

    const monitor::ClusterSnapshot monitored = testbed->snapshot();
    const monitor::ClusterSnapshot truth = monitor::make_ground_truth_snapshot(
        testbed->cluster(), testbed->network(), testbed->sim().now());

    core::NetworkLoadAwareAllocator allocator_a;
    core::NetworkLoadAwareAllocator allocator_b;
    const core::Allocation from_monitored =
        allocator_a.allocate(monitored, request);
    const core::Allocation from_truth = allocator_b.allocate(truth, request);
    if (from_monitored.nodes == from_truth.nodes) ++same_choice;

    const auto app = apps::make_comm_bound_profile(24, 30);
    // Price both placements under identical (frozen) true conditions.
    monitored_times.push_back(
        testbed->runtime()
            .estimate(app,
                      mpisim::Placement::from_allocation(from_monitored))
            .total_s);
    truth_times.push_back(
        testbed->runtime()
            .estimate(app, mpisim::Placement::from_allocation(from_truth))
            .total_s);
  }

  const double mean_monitored = util::mean(monitored_times);
  const double mean_truth = util::mean(truth_times);
  const double penalty = (mean_monitored - mean_truth) / mean_truth;

  std::cout << "=== Ablation: monitored vs ground-truth allocation inputs "
               "===\n\n";
  util::TextTable table({"input", "mean exec time (s)"});
  table.add_row({"monitored snapshot (daemons, noise, staleness)",
                 util::format("%.3f", mean_monitored)});
  table.add_row(
      {"ground truth (oracle)", util::format("%.3f", mean_truth)});
  table.print(std::cout);
  std::cout << util::format(
      "\nidentical node choice in %d/%d trials; monitoring penalty %.1f%%\n\n",
      same_choice, trials, penalty * 100);

  std::vector<exp::ShapeCheck> checks;
  checks.push_back(exp::check(
      "monitored decisions are close to oracle (penalty < 15%)",
      penalty < 0.15, util::format("%.1f%%", penalty * 100)));
  checks.push_back(exp::check(
      "monitored pipeline usually picks a comparable group (>= half the "
      "trials within 5% of oracle time)",
      [&] {
        int close = 0;
        for (int i = 0; i < trials; ++i) {
          if (monitored_times[static_cast<std::size_t>(i)] <=
              truth_times[static_cast<std::size_t>(i)] * 1.05) {
            ++close;
          }
        }
        return close * 2 >= trials;
      }(),
      ""));
  return exp::print_shape_checks(std::cout, checks) == 0 ? 0 : 1;
}
