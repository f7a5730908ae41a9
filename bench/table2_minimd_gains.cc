// Table 2: "Percentage gain in performance of network and load-aware
// allocation algorithm for miniMD executions" — average / median / maximum
// gain over random, sequential and load-aware allocation, pooled over the
// Figure-4 grid.
#include <iostream>

#include "apps/minimd.h"
#include "sweep_common.h"

using namespace nlarm;

int main(int argc, char** argv) {
  auto parser = bench::make_sweep_parser(
      "Table 2 reproduction: miniMD gains of the network-and-load-aware "
      "policy over the three baselines.");
  if (!parser.parse(argc, argv)) return 0;
  const bool full = parser.get_bool("full");

  bench::SweepOptions options;
  options.proc_counts = full ? std::vector<int>{8, 16, 32, 64}
                             : std::vector<int>{16, 64};
  options.problem_sizes = full ? std::vector<int>{8, 16, 24, 32, 40, 48}
                               : std::vector<int>{8, 24, 48};
  options.repetitions =
      static_cast<int>(parser.get_long("reps", full ? 5 : 3));
  options.seed = static_cast<std::uint64_t>(parser.get_long("seed", 42));
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
  const auto all = bench::flatten(rows);

  std::vector<exp::GainRow> table;
  {
    exp::GainRow row;
    row.baseline = "Random";
    row.measured = exp::pooled_gains(all, exp::Policy::kRandom);
    row.paper_average = 0.499;
    row.paper_median = 0.507;
    row.paper_max = 0.878;
    table.push_back(row);
  }
  {
    exp::GainRow row;
    row.baseline = "Sequential";
    row.measured = exp::pooled_gains(all, exp::Policy::kSequential);
    row.paper_average = 0.431;
    row.paper_median = 0.421;
    row.paper_max = 0.845;
    table.push_back(row);
  }
  {
    exp::GainRow row;
    row.baseline = "Load-Aware";
    row.measured = exp::pooled_gains(all, exp::Policy::kLoadAware);
    row.paper_average = 0.324;
    row.paper_median = 0.298;
    row.paper_max = 0.877;
    table.push_back(row);
  }

  exp::print_gain_table(
      std::cout,
      "=== Table 2: miniMD percentage gain of network-and-load-aware "
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
  checks.push_back(exp::check(
      "maximum gains are large (> 30%) for every baseline",
      table[0].measured.max > 0.3 && table[1].measured.max > 0.3 &&
          table[2].measured.max > 0.3,
      util::format("%.0f%% / %.0f%% / %.0f%%", table[0].measured.max * 100,
                   table[1].measured.max * 100,
                   table[2].measured.max * 100)));
  return exp::print_shape_checks(std::cout, checks) == 0 ? 0 : 1;
}
