// Extension analysis: the baseline crossover of §5.1 — "Load-aware
// performed better than sequential for less number of nodes whereas worse
// for a large number of nodes. This is because when the node count is high,
// network dynamics impact the communication times more."
//
// This harness measures the load-aware/sequential time ratio as the node
// count grows and reports where (and whether) the crossover lands in the
// simulated cluster, together with the mechanism: the communication share
// of total time per scale.
#include <iostream>

#include "apps/minimd.h"
#include "sweep_common.h"

using namespace nlarm;

int main(int argc, char** argv) {
  auto parser = bench::make_sweep_parser(
      "Extension: load-aware vs sequential crossover across node counts "
      "(the mechanism behind the paper's §5.1 observation).");
  if (!parser.parse(argc, argv)) return 0;
  const bool full = parser.get_bool("full");

  bench::SweepOptions options;
  options.proc_counts = full ? std::vector<int>{8, 16, 24, 32, 48, 64}
                             : std::vector<int>{8, 32, 64};
  options.problem_sizes = {16};  // fixed problem, scale the nodes
  options.repetitions =
      static_cast<int>(parser.get_long("reps", full ? 5 : 4));
  options.seed = static_cast<std::uint64_t>(parser.get_long("seed", 45));
  options.scenario = workload::parse_scenario_kind(
      parser.get_string("scenario", "shared_lab"));
  options.job = core::JobWeights::minimd_defaults();

  const auto rows = bench::run_sweep(
      options, [](int size, int nranks) {
        apps::MiniMdParams params;
        params.size = size;
        params.nranks = nranks;
        return apps::make_minimd_profile(params);
      });

  std::cout << "=== Load-aware vs sequential across scale (miniMD s=16) "
               "===\n\n";
  util::TextTable table({"procs", "nodes", "load-aware (s)",
                         "sequential (s)", "LA/SEQ ratio",
                         "ours comm share"});
  std::vector<double> ratios;
  for (const auto& row : rows) {
    const auto& result = row.by_size[0];
    const double la = result.mean_time(exp::Policy::kLoadAware);
    const double seq = result.mean_time(exp::Policy::kSequential);
    ratios.push_back(la / seq);
    // Mean communication fraction of our policy's runs at this scale.
    double comm = 0.0;
    const auto& runs =
        result.runs[static_cast<std::size_t>(exp::Policy::kNetworkLoadAware)];
    for (const auto& run : runs) comm += run.execution.comm_fraction();
    comm /= static_cast<double>(runs.size());
    table.add_row({util::format("%d", row.nprocs),
                   util::format("%d", row.nprocs / 4),
                   util::format("%.2f", la), util::format("%.2f", seq),
                   util::format("%.2f", la / seq),
                   util::format("%.0f%%", comm * 100.0)});
  }
  table.print(std::cout);
  std::cout << "(ratio < 1: load-aware wins; the paper observed the ratio "
               "rising with node count)\n\n";

  std::vector<exp::ShapeCheck> checks;
  checks.push_back(exp::check(
      "load-aware's relative standing degrades as node count grows "
      "(last ratio > first)",
      ratios.back() > ratios.front(),
      util::format("%.2f at %d procs vs %.2f at %d procs", ratios.front(),
                   options.proc_counts.front(), ratios.back(),
                   options.proc_counts.back())));
  // Mechanism: communication dominates more at scale, which is what makes
  // network-blind load-aware fall behind.
  const auto& first_runs =
      rows.front().by_size[0]
          .runs[static_cast<std::size_t>(exp::Policy::kNetworkLoadAware)];
  const auto& last_runs =
      rows.back().by_size[0]
          .runs[static_cast<std::size_t>(exp::Policy::kNetworkLoadAware)];
  double first_comm = 0.0;
  double last_comm = 0.0;
  for (const auto& run : first_runs) {
    first_comm += run.execution.comm_fraction() / first_runs.size();
  }
  for (const auto& run : last_runs) {
    last_comm += run.execution.comm_fraction() / last_runs.size();
  }
  checks.push_back(exp::check(
      "communication share grows with node count (the paper's mechanism)",
      last_comm > first_comm,
      util::format("%.0f%% → %.0f%%", first_comm * 100, last_comm * 100)));
  return exp::print_shape_checks(std::cout, checks) == 0 ? 0 : 1;
}
