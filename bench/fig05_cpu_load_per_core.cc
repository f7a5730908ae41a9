// Figure 5: "Average CPU load per logical core for the allocation
// algorithms across several runs of miniMD".
//
// Paper values: network-and-load-aware 0.43, load-aware 0.31, sequential
// 0.68, random 0.72 — and crucially ours beats load-aware on execution time
// *despite* the higher CPU load, because its nodes are better connected.
#include <iostream>

#include "apps/minimd.h"
#include "sweep_common.h"

using namespace nlarm;

int main(int argc, char** argv) {
  auto parser = bench::make_sweep_parser(
      "Figure 5 reproduction: mean CPU load per logical core of the nodes "
      "each policy selects (miniMD runs).");
  if (!parser.parse(argc, argv)) return 0;
  const bool full = parser.get_bool("full");

  bench::SweepOptions options;
  options.proc_counts = {32};
  options.problem_sizes = full ? std::vector<int>{8, 16, 24, 32, 40, 48}
                               : std::vector<int>{8, 16, 32};
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

  auto pooled_load = [&](exp::Policy policy) {
    std::vector<double> loads;
    for (const auto& result : all) {
      const auto policy_loads = result.loads_per_core(policy);
      loads.insert(loads.end(), policy_loads.begin(), policy_loads.end());
    }
    return util::mean(loads);
  };
  auto pooled_time = [&](exp::Policy policy) {
    std::vector<double> times;
    for (const auto& result : all) {
      const auto t = result.times(policy);
      times.insert(times.end(), t.begin(), t.end());
    }
    return util::mean(times);
  };

  const double load_ours = pooled_load(exp::Policy::kNetworkLoadAware);
  const double load_load_aware = pooled_load(exp::Policy::kLoadAware);
  const double load_sequential = pooled_load(exp::Policy::kSequential);
  const double load_random = pooled_load(exp::Policy::kRandom);

  std::cout << "=== Figure 5: average CPU load per logical core of selected "
               "nodes ===\n\n";
  util::TextTable table(
      {"policy", "measured load/core", "paper load/core", "mean exec (s)"});
  table.add_row({"random", util::format("%.3f", load_random), "0.72",
                 util::format("%.2f", pooled_time(exp::Policy::kRandom))});
  table.add_row({"sequential", util::format("%.3f", load_sequential), "0.68",
                 util::format("%.2f",
                              pooled_time(exp::Policy::kSequential))});
  table.add_row({"load-aware", util::format("%.3f", load_load_aware), "0.31",
                 util::format("%.2f", pooled_time(exp::Policy::kLoadAware))});
  table.add_row(
      {"network-load-aware", util::format("%.3f", load_ours), "0.43",
       util::format("%.2f",
                    pooled_time(exp::Policy::kNetworkLoadAware))});
  table.print(std::cout);
  std::cout << "\n";

  std::vector<exp::ShapeCheck> checks;
  checks.push_back(exp::check(
      "load-aware selects the least-loaded nodes",
      load_load_aware <= load_ours && load_load_aware <= load_sequential &&
          load_load_aware <= load_random,
      util::format("load-aware %.3f vs ours %.3f", load_load_aware,
                   load_ours)));
  checks.push_back(exp::check(
      "ours accepts somewhat more load than load-aware (connectivity trade)",
      load_ours >= load_load_aware,
      util::format("%.3f vs %.3f", load_ours, load_load_aware)));
  checks.push_back(exp::check(
      "random and sequential pick more-loaded nodes than ours",
      load_random > load_ours && load_sequential > load_ours,
      util::format("random %.3f, sequential %.3f, ours %.3f", load_random,
                   load_sequential, load_ours)));
  checks.push_back(exp::check(
      "ours is still faster than load-aware despite the extra load",
      pooled_time(exp::Policy::kNetworkLoadAware) <
          pooled_time(exp::Policy::kLoadAware),
      util::format("%.2f s vs %.2f s",
                   pooled_time(exp::Policy::kNetworkLoadAware),
                   pooled_time(exp::Policy::kLoadAware))));
  return exp::print_shape_checks(std::cout, checks) == 0 ? 0 : 1;
}
