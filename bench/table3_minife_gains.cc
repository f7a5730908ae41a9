// Table 3: "Percentage gain in performance of network and load-aware
// allocation algorithm for miniFE executions".
#include <iostream>

#include "apps/minife.h"
#include "sweep_common.h"

using namespace nlarm;

int main(int argc, char** argv) {
  auto parser = bench::make_sweep_parser(
      "Table 3 reproduction: miniFE gains of the network-and-load-aware "
      "policy over the three baselines.");
  if (!parser.parse(argc, argv)) return 0;
  const bool full = parser.get_bool("full");

  bench::SweepOptions options;
  options.proc_counts = full ? std::vector<int>{8, 16, 32, 48}
                             : std::vector<int>{16, 48};
  options.problem_sizes = full ? std::vector<int>{48, 96, 144, 256, 384}
                               : std::vector<int>{48, 144, 384};
  options.repetitions =
      static_cast<int>(parser.get_long("reps", full ? 5 : 3));
  options.seed = static_cast<std::uint64_t>(parser.get_long("seed", 43));
  options.scenario = workload::parse_scenario_kind(
      parser.get_string("scenario", "shared_lab"));
  options.job = core::JobWeights::minife_defaults();

  const auto rows = bench::run_sweep(
      options, [](int nx, int nranks) {
        apps::MiniFeParams params;
        params.nx = nx;
        params.nranks = nranks;
        return apps::make_minife_profile(params);
      });
  const auto all = bench::flatten(rows);

  std::vector<exp::GainRow> table;
  {
    exp::GainRow row;
    row.baseline = "Random";
    row.measured = exp::pooled_gains(all, exp::Policy::kRandom);
    row.paper_average = 0.479;
    row.paper_median = 0.504;
    row.paper_max = 0.921;
    table.push_back(row);
  }
  {
    exp::GainRow row;
    row.baseline = "Sequential";
    row.measured = exp::pooled_gains(all, exp::Policy::kSequential);
    row.paper_average = 0.311;
    row.paper_median = 0.280;
    row.paper_max = 0.804;
    table.push_back(row);
  }
  {
    exp::GainRow row;
    row.baseline = "Load-Aware";
    row.measured = exp::pooled_gains(all, exp::Policy::kLoadAware);
    row.paper_average = 0.348;
    row.paper_median = 0.387;
    row.paper_max = 0.910;
    table.push_back(row);
  }

  exp::print_gain_table(
      std::cout,
      "=== Table 3: miniFE percentage gain of network-and-load-aware "
      "allocation ===",
      table);

  std::vector<exp::ShapeCheck> checks;
  for (const auto& row : table) {
    checks.push_back(exp::check(
        util::format("positive average gain over %s", row.baseline.c_str()),
        row.measured.average > 0.0,
        util::format("%.1f%% (paper %.1f%%)", row.measured.average * 100,
                     row.paper_average * 100)));
  }
  return exp::print_shape_checks(std::cout, checks) == 0 ? 0 : 1;
}
