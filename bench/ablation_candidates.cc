// Ablation: is generating |V| candidate sub-graphs (Algorithm 1 from every
// start node) worth it?
//
// Compares three strategies on identical snapshots:
//  * paper     — |V| candidates + Algorithm 2 selection;
//  * single    — one candidate started at the globally least-loaded node;
//  * brute     — exhaustive best subset of the required size under the same
//                T_Gv objective (small clusters only; the paper notes the
//                brute force "would not scale", §3.3.1).
#include <algorithm>
#include <iostream>
#include <numeric>

#include "core/allocator.h"
#include "core/baselines.h"
#include "core/compute_load.h"
#include "core/network_load.h"
#include "exp/experiment.h"
#include "exp/report.h"
#include "util/args.h"
#include "util/strings.h"
#include "util/table.h"

using namespace nlarm;

namespace {

struct GroupScore {
  double compute = 0.0;
  double network = 0.0;
};

GroupScore score_group(const std::vector<std::size_t>& members,
                       const std::vector<double>& cl,
                       const util::FlatMatrix& nl) {
  GroupScore s;
  for (std::size_t m : members) s.compute += cl[m];
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      s.network += nl[members[i]][members[j]];
    }
  }
  return s;
}

/// Raw weighted objective (no cross-candidate normalization) used to compare
/// strategies on equal footing.
double raw_objective(const GroupScore& s, const core::JobWeights& job) {
  return job.alpha * s.compute + job.beta * s.network;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser(
      "Ablation: |V|-start candidate generation vs single-start greedy vs "
      "exhaustive search.",
      {{"trials", "snapshots to evaluate (default 20)"},
       {"nodes", "cluster size for the comparison (default 12)"},
       {"group", "nodes per allocation (default 4)"},
       {"seed", "RNG seed (default 42)"}});
  if (!parser.parse(argc, argv)) return 0;
  const int trials = static_cast<int>(parser.get_long("trials", 20));
  const int node_count = static_cast<int>(parser.get_long("nodes", 12));
  const int group = static_cast<int>(parser.get_long("group", 4));
  const auto seed = static_cast<std::uint64_t>(parser.get_long("seed", 42));

  const core::JobWeights job{0.3, 0.7};
  const int nprocs = group * 4;

  int paper_matches_brute = 0;
  int single_matches_brute = 0;
  double paper_excess = 0.0;
  double single_excess = 0.0;

  for (int trial = 0; trial < trials; ++trial) {
    exp::Testbed::Options options;
    options.seed = seed + static_cast<std::uint64_t>(trial);
    options.scenario = workload::ScenarioKind::kHotspot;
    options.cluster.fast_nodes = node_count * 2 / 3;
    options.cluster.slow_nodes = node_count - options.cluster.fast_nodes;
    options.cluster.switches = 3;
    auto testbed = exp::Testbed::make(options);
    const monitor::ClusterSnapshot snap = testbed->snapshot();
    const std::vector<cluster::NodeId> usable = snap.usable_nodes();
    const std::size_t n = usable.size();

    const auto cl =
        core::compute_loads(snap, usable, core::ComputeLoadWeights{});
    const auto nl =
        core::network_loads(snap, usable, core::NetworkLoadWeights{});
    const std::vector<int> pc(n, 4);

    // Paper: all |V| candidates + selection.
    auto candidates = core::generate_all_candidates(cl, nl, pc, nprocs, job);
    const auto selection =
        core::select_best_candidate(std::move(candidates), cl, nl, job);
    const auto& paper_members =
        selection.scored[selection.best_index].candidate.members;
    const double paper_cost =
        raw_objective(score_group(paper_members, cl, nl), job);

    // Single-start: greedy from the minimum-CL node only.
    const auto min_cl = static_cast<std::size_t>(
        std::min_element(cl.begin(), cl.end()) - cl.begin());
    const auto single =
        core::generate_candidate(min_cl, cl, nl, pc, nprocs, job);
    const double single_cost =
        raw_objective(score_group(single.members, cl, nl), job);

    // Brute force: every subset of size `group` containing any node.
    std::vector<std::size_t> indices(n);
    std::iota(indices.begin(), indices.end(), 0);
    std::vector<bool> mask(n, false);
    std::fill(mask.begin(), mask.begin() + group, true);
    std::sort(mask.begin(), mask.end());  // lexicographically first
    double brute_cost = 0.0;
    bool first = true;
    do {
      std::vector<std::size_t> members;
      for (std::size_t i = 0; i < n; ++i) {
        if (mask[i]) members.push_back(i);
      }
      const double cost = raw_objective(score_group(members, cl, nl), job);
      if (first || cost < brute_cost) {
        brute_cost = cost;
        first = false;
      }
    } while (std::next_permutation(mask.begin(), mask.end()));

    if (paper_cost <= brute_cost * 1.0001) ++paper_matches_brute;
    if (single_cost <= brute_cost * 1.0001) ++single_matches_brute;
    paper_excess += (paper_cost - brute_cost) / std::max(brute_cost, 1e-12);
    single_excess += (single_cost - brute_cost) / std::max(brute_cost, 1e-12);
  }

  std::cout << "=== Ablation: candidate-generation strategies vs exhaustive "
               "search ===\n";
  std::cout << "(" << trials << " monitored snapshots, " << node_count
            << "-node cluster, groups of " << group << " nodes)\n\n";
  util::TextTable table(
      {"strategy", "optimal picks", "mean excess cost vs optimal"});
  table.add_row({"paper (|V| candidates)",
                 util::format("%d/%d", paper_matches_brute, trials),
                 util::format("%.2f%%", paper_excess / trials * 100)});
  table.add_row({"single-start greedy",
                 util::format("%d/%d", single_matches_brute, trials),
                 util::format("%.2f%%", single_excess / trials * 100)});
  table.add_row({"brute force", util::format("%d/%d", trials, trials),
                 "0.00% (reference)"});
  table.print(std::cout);
  std::cout << "\n";

  std::vector<exp::ShapeCheck> checks;
  // Algorithm 2 selects by the cross-candidate-normalized T, not by the raw
  // objective we audit with, so the two greedy variants can land within a
  // percent of each other either way; the claim is "not meaningfully worse".
  checks.push_back(exp::check(
      "|V|-start candidates within 1% of single-start on average",
      paper_excess <= single_excess + 0.01 * trials,
      util::format("excess %.2f%% vs %.2f%%", paper_excess / trials * 100,
                   single_excess / trials * 100)));
  checks.push_back(exp::check(
      "greedy is near-optimal (mean excess < 10%)",
      paper_excess / trials < 0.10,
      util::format("%.2f%%", paper_excess / trials * 100)));
  return exp::print_shape_checks(std::cout, checks) == 0 ? 0 : 1;
}
