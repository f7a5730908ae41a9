// Extension experiment (beyond the paper): miniFFT — a bisection-bandwidth-
// bound all-to-all workload — under the four allocation policies, plus the
// block-vs-cyclic rank-placement question the paper leaves to the process
// manager.
//
// Expectation: the transpose's all-pairs traffic makes network awareness
// matter even more than for miniMD's halos, and block placement beats
// cyclic for halo apps while the alltoall is placement-order-insensitive.
#include <iostream>

#include "apps/minifft.h"
#include "apps/minimd.h"
#include "sweep_common.h"

using namespace nlarm;

int main(int argc, char** argv) {
  auto parser = bench::make_sweep_parser(
      "Extension: miniFFT (all-to-all transposes) under the four policies, "
      "and block vs cyclic rank placement.");
  if (!parser.parse(argc, argv)) return 0;
  const bool full = parser.get_bool("full");

  bench::SweepOptions options;
  options.proc_counts = full ? std::vector<int>{8, 16, 32, 48}
                             : std::vector<int>{16, 32};
  options.problem_sizes = full ? std::vector<int>{64, 128, 192, 256}
                               : std::vector<int>{64, 192};
  options.repetitions =
      static_cast<int>(parser.get_long("reps", full ? 5 : 3));
  options.seed = static_cast<std::uint64_t>(parser.get_long("seed", 44));
  options.scenario = workload::parse_scenario_kind(
      parser.get_string("scenario", "shared_lab"));
  options.job = core::JobWeights{0.2, 0.8};  // transpose-dominated

  const auto rows = bench::run_sweep(
      options, [](int n, int nranks) {
        apps::MiniFftParams params;
        params.n = n;
        params.nranks = nranks;
        return apps::make_minifft_profile(params);
      });

  std::cout << "=== Extension: miniFFT all-to-all under the four policies "
               "===\n\n";
  std::vector<double> sizes(options.problem_sizes.begin(),
                            options.problem_sizes.end());
  for (const auto& row : rows) {
    exp::print_time_table(
        std::cout,
        util::format("#procs = %d  (execution time vs grid size n)",
                     row.nprocs),
        "n", sizes, row.by_size);
  }

  const auto all = bench::flatten(rows);
  const exp::GainStats vs_random =
      exp::pooled_gains(all, exp::Policy::kRandom);
  const exp::GainStats vs_load =
      exp::pooled_gains(all, exp::Policy::kLoadAware);

  // --- block vs cyclic placement on a fixed allocation --------------------
  exp::Testbed::Options testbed_options;
  testbed_options.seed = options.seed + 999;
  testbed_options.scenario = options.scenario;
  auto testbed = exp::Testbed::make(testbed_options);
  core::AllocationRequest request;
  request.nprocs = 32;
  request.ppn = 4;
  request.job = core::JobWeights{0.3, 0.7};
  core::NetworkLoadAwareAllocator allocator;
  const core::Allocation alloc =
      allocator.allocate(testbed->snapshot(), request);

  apps::MiniMdParams md;
  md.size = 16;
  md.nranks = 32;
  const auto md_app = apps::make_minimd_profile(md);
  apps::MiniFftParams fft;
  fft.n = 128;
  fft.nranks = 32;
  const auto fft_app = apps::make_minifft_profile(fft);

  const auto block = mpisim::Placement::from_allocation(alloc);
  const auto cyclic = mpisim::Placement::round_robin_from_allocation(alloc);
  const double md_block = testbed->runtime().estimate(md_app, block).total_s;
  const double md_cyclic =
      testbed->runtime().estimate(md_app, cyclic).total_s;
  const double fft_block =
      testbed->runtime().estimate(fft_app, block).total_s;
  const double fft_cyclic =
      testbed->runtime().estimate(fft_app, cyclic).total_s;

  util::TextTable placement_table(
      {"app", "block placement (s)", "cyclic placement (s)"});
  placement_table.add_row({"miniMD (halo)", util::format("%.3f", md_block),
                           util::format("%.3f", md_cyclic)});
  placement_table.add_row({"miniFFT (alltoall)",
                           util::format("%.3f", fft_block),
                           util::format("%.3f", fft_cyclic)});
  placement_table.print(std::cout);
  std::cout << "\n";

  std::vector<exp::ShapeCheck> checks;
  checks.push_back(exp::check(
      "network-aware allocation still wins for the alltoall workload",
      vs_random.average > 0.0 && vs_load.average > 0.0,
      util::format("gain vs random %.1f%%, vs load-aware %.1f%%",
                   vs_random.average * 100, vs_load.average * 100)));
  checks.push_back(exp::check(
      "block placement is no worse than cyclic for the halo app",
      md_block <= md_cyclic * 1.02,
      util::format("%.3f vs %.3f s", md_block, md_cyclic)));
  checks.push_back(exp::check(
      "alltoall is placement-order insensitive (within 5%)",
      std::abs(fft_block - fft_cyclic) <= 0.05 * fft_block,
      util::format("%.3f vs %.3f s", fft_block, fft_cyclic)));
  return exp::print_shape_checks(std::cout, checks) == 0 ? 0 : 1;
}
