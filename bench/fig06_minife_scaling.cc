// Figure 6: miniFE strong scaling under the four allocation policies.
//
// Grid: processes ∈ {8,16,32,48} (4 per node), nx ∈ {48,96,144,256,384}
// with ny = nz = nx.
#include <iostream>

#include "apps/minife.h"
#include "sweep_common.h"

using namespace nlarm;

int main(int argc, char** argv) {
  auto parser = bench::make_sweep_parser(
      "Figure 6 reproduction: miniFE execution times under random, "
      "sequential, load-aware and network-and-load-aware allocation.");
  if (!parser.parse(argc, argv)) return 0;
  const bool full = parser.get_bool("full");

  bench::SweepOptions options;
  options.proc_counts = {8, 16, 32, 48};
  options.problem_sizes = full ? std::vector<int>{48, 96, 144, 256, 384}
                               : std::vector<int>{48, 144, 384};
  options.repetitions =
      static_cast<int>(parser.get_long("reps", full ? 5 : 3));
  options.seed = static_cast<std::uint64_t>(parser.get_long("seed", 43));
  options.scenario = workload::parse_scenario_kind(
      parser.get_string("scenario", "shared_lab"));
  options.job = core::JobWeights::minife_defaults();  // α=0.4, β=0.6

  const auto rows = bench::run_sweep(
      options, [](int nx, int nranks) {
        apps::MiniFeParams params;
        params.nx = nx;
        params.nranks = nranks;
        return apps::make_minife_profile(params);
      });

  std::cout << "=== Figure 6: miniFE strong scaling (" << options.repetitions
            << " repetitions, 4 processes/node, scenario "
            << workload::to_string(options.scenario) << ") ===\n\n";
  std::vector<double> sizes(options.problem_sizes.begin(),
                            options.problem_sizes.end());
  for (const auto& row : rows) {
    exp::print_time_table(
        std::cout,
        util::format("#procs = %d  (execution time vs problem size nx)",
                     row.nprocs),
        "nx", sizes, row.by_size);
  }

  const auto all = bench::flatten(rows);
  int ours_best = 0;
  for (const auto& result : all) {
    const double ours = result.mean_time(exp::Policy::kNetworkLoadAware);
    if (ours <= result.mean_time(exp::Policy::kRandom) &&
        ours <= result.mean_time(exp::Policy::kSequential) &&
        ours <= result.mean_time(exp::Policy::kLoadAware)) {
      ++ours_best;
    }
  }
  const exp::GainStats vs_random =
      exp::pooled_gains(all, exp::Policy::kRandom);
  const exp::GainStats vs_sequential =
      exp::pooled_gains(all, exp::Policy::kSequential);
  const exp::GainStats vs_load =
      exp::pooled_gains(all, exp::Policy::kLoadAware);

  // The paper's comm-fraction comparison: ~40% for miniFE at 48 procs,
  // > 50% for miniMD (§5.2) — checked in apps_test; here we verify the
  // cheaper comm makes miniFE gains smaller than pure-network would give.
  std::vector<exp::ShapeCheck> checks;
  checks.push_back(exp::check(
      "network-and-load-aware best in most configurations",
      ours_best * 2 > static_cast<int>(all.size()),
      util::format("best in %d/%zu", ours_best, all.size())));
  checks.push_back(exp::check(
      "positive average gain over random (paper: 47.9%)",
      vs_random.average > 0.0,
      util::format("%.1f%%", vs_random.average * 100)));
  checks.push_back(exp::check(
      "positive average gain over sequential (paper: 31.1%)",
      vs_sequential.average > 0.0,
      util::format("%.1f%%", vs_sequential.average * 100)));
  checks.push_back(exp::check(
      "positive average gain over load-aware (paper: 34.8%)",
      vs_load.average > 0.0, util::format("%.1f%%", vs_load.average * 100)));
  return exp::print_shape_checks(std::cout, checks) == 0 ? 0 : 1;
}
