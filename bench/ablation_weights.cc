// Ablation: sensitivity of the allocator to the α/β split (Eq. 4).
//
// §5 sets (α, β) empirically per application; §6 calls choosing them "a
// challenging problem". This ablation sweeps α for a communication-heavy
// and a compute-heavy job and reports mean execution time per setting —
// the minimum should sit at low α for the former and high α for the latter.
#include <iostream>

#include "apps/synthetic.h"
#include "exp/experiment.h"
#include "exp/report.h"
#include "util/args.h"
#include "util/strings.h"
#include "util/table.h"

using namespace nlarm;

namespace {

double mean_time_for_alpha(double alpha, bool comm_heavy, std::uint64_t seed,
                           int reps) {
  exp::Testbed::Options options;
  options.seed = seed;
  options.scenario = workload::ScenarioKind::kHotspot;
  auto testbed = exp::Testbed::make(options);

  core::AllocationRequest request;
  request.nprocs = 24;
  request.ppn = 4;
  request.job = core::JobWeights{alpha, 1.0 - alpha};
  core::NetworkLoadAwareAllocator allocator;

  const auto app = comm_heavy ? apps::make_comm_bound_profile(24, 30)
                              : apps::make_compute_bound_profile(24, 30);
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const core::Allocation alloc =
        allocator.allocate(testbed->snapshot(), request);
    const auto result = testbed->runtime().run(
        testbed->sim(), app, mpisim::Placement::from_allocation(alloc));
    times.push_back(result.total_s);
    testbed->sim().run_until(testbed->sim().now() + 30.0);
  }
  return util::mean(times);
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser(
      "Ablation: execution time as a function of the alpha/beta job weights.",
      {{"reps", "repetitions per alpha (default 3)"},
       {"seed", "RNG seed (default 42)"}});
  if (!parser.parse(argc, argv)) return 0;
  const int reps = static_cast<int>(parser.get_long("reps", 3));
  const auto seed = static_cast<std::uint64_t>(parser.get_long("seed", 42));

  const std::vector<double> alphas{0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  std::cout << "=== Ablation: alpha/beta sensitivity (hotspot scenario) "
               "===\n\n";
  util::TextTable table({"alpha (compute wt)", "comm-heavy app (s)",
                         "compute-heavy app (s)"});
  std::vector<double> comm_times;
  std::vector<double> comp_times;
  for (double alpha : alphas) {
    const double comm = mean_time_for_alpha(alpha, true, seed, reps);
    const double comp = mean_time_for_alpha(alpha, false, seed + 1, reps);
    comm_times.push_back(comm);
    comp_times.push_back(comp);
    table.add_row({util::format("%.1f", alpha), util::format("%.3f", comm),
                   util::format("%.3f", comp)});
  }
  table.print(std::cout);
  std::cout << "\n";

  // Where does each app run fastest?
  const auto comm_best = static_cast<std::size_t>(
      std::min_element(comm_times.begin(), comm_times.end()) -
      comm_times.begin());
  const auto comp_best = static_cast<std::size_t>(
      std::min_element(comp_times.begin(), comp_times.end()) -
      comp_times.begin());

  std::vector<exp::ShapeCheck> checks;
  checks.push_back(exp::check(
      "comm-heavy app prefers network-weighted allocation (best alpha <= "
      "0.4)",
      alphas[comm_best] <= 0.4,
      util::format("best alpha %.1f", alphas[comm_best])));
  checks.push_back(exp::check(
      "compute-heavy app tolerates (or prefers) compute-weighted allocation "
      "(best alpha >= comm-heavy's)",
      alphas[comp_best] >= alphas[comm_best],
      util::format("best alpha %.1f vs %.1f", alphas[comp_best],
                   alphas[comm_best])));
  checks.push_back(exp::check(
      "pure-compute weighting hurts the comm-heavy app vs best",
      comm_times.back() >= comm_times[comm_best],
      util::format("alpha=1: %.3f s, best %.3f s", comm_times.back(),
                   comm_times[comm_best])));
  return exp::print_shape_checks(std::cout, checks) == 0 ? 0 : 1;
}
