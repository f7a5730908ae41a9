// Figure 4: miniMD strong scaling under the four allocation policies.
//
// Grid: processes ∈ {8,16,32,64} (4 per node), problem size s ∈ {8..48},
// each configuration run for all policies in sequence and repeated. Prints
// one mean-execution-time table per process count plus the paper's
// qualitative findings as shape checks.
#include <iostream>

#include "apps/minimd.h"
#include "sweep_common.h"

using namespace nlarm;

int main(int argc, char** argv) {
  auto parser = bench::make_sweep_parser(
      "Figure 4 reproduction: miniMD execution times under random, "
      "sequential, load-aware and network-and-load-aware allocation.");
  if (!parser.parse(argc, argv)) return 0;
  const bool full = parser.get_bool("full");

  bench::SweepOptions options;
  options.proc_counts = {8, 16, 32, 64};
  options.problem_sizes =
      full ? std::vector<int>{8, 16, 24, 32, 40, 48}
           : std::vector<int>{8, 24, 48};
  options.repetitions =
      static_cast<int>(parser.get_long("reps", full ? 5 : 3));
  options.seed = static_cast<std::uint64_t>(parser.get_long("seed", 42));
  options.scenario = workload::parse_scenario_kind(
      parser.get_string("scenario", "shared_lab"));
  options.job = core::JobWeights::minimd_defaults();  // α=0.3, β=0.7

  const auto rows = bench::run_sweep(
      options, [](int size, int nranks) {
        apps::MiniMdParams params;
        params.size = size;
        params.nranks = nranks;
        return apps::make_minimd_profile(params);
      });

  std::cout << "=== Figure 4: miniMD strong scaling (" << options.repetitions
            << " repetitions, 4 processes/node, scenario "
            << workload::to_string(options.scenario) << ") ===\n\n";
  std::vector<double> sizes(options.problem_sizes.begin(),
                            options.problem_sizes.end());
  for (const auto& row : rows) {
    exp::print_time_table(
        std::cout,
        util::format("#procs = %d  (execution time vs problem size s)",
                     row.nprocs),
        "s", sizes, row.by_size);
  }

  // Shape checks against the paper's qualitative findings (§5.1).
  const auto all = bench::flatten(rows);
  int ours_best = 0;
  int random_worst = 0;
  for (const auto& result : all) {
    const double ours = result.mean_time(exp::Policy::kNetworkLoadAware);
    const double random = result.mean_time(exp::Policy::kRandom);
    const double sequential = result.mean_time(exp::Policy::kSequential);
    const double load_aware = result.mean_time(exp::Policy::kLoadAware);
    if (ours <= random && ours <= sequential && ours <= load_aware) {
      ++ours_best;
    }
    if (random >= sequential && random >= load_aware) ++random_worst;
  }

  // CoV of our policy vs the others (the paper's stability claim).
  auto pooled_cov = [&](exp::Policy policy) {
    std::vector<double> covs;
    for (const auto& result : all) {
      const auto times = result.times(policy);
      covs.push_back(util::coefficient_of_variation(times));
    }
    return util::mean(covs);
  };
  const double cov_ours = pooled_cov(exp::Policy::kNetworkLoadAware);
  const double cov_load = pooled_cov(exp::Policy::kLoadAware);
  const double cov_seq = pooled_cov(exp::Policy::kSequential);

  const exp::GainStats vs_random =
      exp::pooled_gains(all, exp::Policy::kRandom);
  const exp::GainStats vs_load =
      exp::pooled_gains(all, exp::Policy::kLoadAware);

  std::vector<exp::ShapeCheck> checks;
  checks.push_back(exp::check(
      "network-and-load-aware is the best policy in most configurations",
      ours_best * 2 > static_cast<int>(all.size()),
      util::format("best in %d/%zu", ours_best, all.size())));
  checks.push_back(exp::check(
      "random allocation is the worst policy in most configurations",
      random_worst * 2 > static_cast<int>(all.size()),
      util::format("worst in %d/%zu", random_worst, all.size())));
  checks.push_back(exp::check(
      "positive average gain over random (paper: 49.9%)",
      vs_random.average > 0.0,
      util::format("%.1f%%", vs_random.average * 100)));
  checks.push_back(exp::check(
      "positive average gain over load-aware (paper: 32.4%)",
      vs_load.average > 0.0, util::format("%.1f%%", vs_load.average * 100)));
  checks.push_back(exp::check(
      "our runs are more stable than sequential (lower CoV; paper: 0.07 vs "
      "0.27)",
      cov_ours < cov_seq,
      util::format("ours %.3f, load-aware %.3f, sequential %.3f", cov_ours,
                   cov_load, cov_seq)));
  return exp::print_shape_checks(std::cout, checks) == 0 ? 0 : 1;
}
