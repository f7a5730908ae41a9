// Ablation: flat (paper) vs hierarchical (the paper's §3.3.2/§6 scaling
// sketch) allocation — decision quality and decision latency as the cluster
// grows. The hierarchical variant should be drastically cheaper at large V
// while conceding little execution time at the paper's scale.
#include <chrono>
#include <iostream>

#include "apps/synthetic.h"
#include "core/hierarchical.h"
#include "core/prepared.h"
#include "exp/experiment.h"
#include "exp/report.h"
#include "util/args.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

using namespace nlarm;

namespace {

struct Row {
  int nodes = 0;
  double flat_ms = 0.0;
  double hier_ms = 0.0;
  double two_phase_ms = 0.0;
  double flat_exec_s = 0.0;
  double hier_exec_s = 0.0;
  double two_phase_exec_s = 0.0;
};

Row run_scale(int fast_nodes, int slow_nodes, int switches,
              std::uint64_t seed, int reps) {
  exp::Testbed::Options options;
  options.seed = seed;
  options.scenario = workload::ScenarioKind::kHotspot;
  options.cluster.fast_nodes = fast_nodes;
  options.cluster.slow_nodes = slow_nodes;
  options.cluster.switches = switches;
  // Monitoring a big cluster is expensive in wall-clock; trim the warm-up.
  options.warmup_seconds = 700.0;
  auto testbed = exp::Testbed::make(options);

  core::AllocationRequest request;
  request.nprocs = 32;
  request.ppn = 4;
  request.job = core::JobWeights{0.3, 0.7};
  const auto app = apps::make_comm_bound_profile(32, 20);

  Row row;
  row.nodes = fast_nodes + slow_nodes;
  core::NetworkLoadAwareAllocator flat;
  core::HierarchicalAllocator hier;
  // The tiled serving path: the monitor thread maintains a tiled
  // PreparedBuilder (dense_nl_limit=0 forces tile-only epochs) and decide()
  // runs the two-phase hot path. Builder maintenance happens outside the
  // timed window — it is the refresh cadence's cost, not the decide's.
  core::PreparedBuilder builder(core::RequestProfile::of(request),
                                core::TilingOptions{/*dense_nl_limit=*/0,
                                                    /*block_size=*/0});
  core::HierarchicalOptions two_phase;
  two_phase.two_phase_min_nodes = 0;  // prune whenever there are > 1 groups
  for (int rep = 0; rep < reps; ++rep) {
    const monitor::ClusterSnapshot snap = testbed->snapshot();
    builder.rebuild(std::make_shared<const monitor::ClusterSnapshot>(snap));
    const auto epoch = builder.build();

    const auto t0 = std::chrono::steady_clock::now();
    const core::Allocation flat_alloc = flat.allocate(snap, request);
    const auto t1 = std::chrono::steady_clock::now();
    const core::Allocation hier_alloc = hier.allocate(snap, request);
    const auto t2 = std::chrono::steady_clock::now();
    const core::Allocation two_phase_alloc =
        core::allocate_two_phase(*epoch, request, two_phase);
    const auto t3 = std::chrono::steady_clock::now();

    row.flat_ms +=
        std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;
    row.hier_ms +=
        std::chrono::duration<double, std::milli>(t2 - t1).count() / reps;
    row.two_phase_ms +=
        std::chrono::duration<double, std::milli>(t3 - t2).count() / reps;
    row.flat_exec_s +=
        testbed->runtime()
            .estimate(app, mpisim::Placement::from_allocation(flat_alloc))
            .total_s /
        reps;
    row.hier_exec_s +=
        testbed->runtime()
            .estimate(app, mpisim::Placement::from_allocation(hier_alloc))
            .total_s /
        reps;
    row.two_phase_exec_s +=
        testbed->runtime()
            .estimate(app,
                      mpisim::Placement::from_allocation(two_phase_alloc))
            .total_s /
        reps;
    testbed->sim().run_until(testbed->sim().now() + 30.0);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser(
      "Ablation: flat vs hierarchical allocation at growing cluster sizes.",
      {{"reps", "allocations per size (default 3)"},
       {"seed", "RNG seed (default 42)"},
       {"full", "include the 480-node point"}});
  if (!parser.parse(argc, argv)) return 0;
  const int reps = static_cast<int>(parser.get_long("reps", 3));
  const auto seed = static_cast<std::uint64_t>(parser.get_long("seed", 42));

  std::vector<Row> rows;
  rows.push_back(run_scale(40, 20, 4, seed, reps));      // the paper's 60
  rows.push_back(run_scale(80, 40, 8, seed + 1, reps));  // 120
  rows.push_back(run_scale(160, 80, 16, seed + 2, reps));  // 240
  if (parser.get_bool("full")) {
    rows.push_back(run_scale(320, 160, 32, seed + 3, reps));  // 480
  }

  std::cout << "=== Ablation: flat vs hierarchical allocation ===\n\n";
  util::TextTable table({"nodes", "flat (ms)", "hierarchical (ms)",
                         "two-phase (ms)", "speedup", "flat exec (s)",
                         "hier exec (s)", "2p exec (s)", "exec penalty"});
  for (const Row& row : rows) {
    table.add_row(
        {util::format("%d", row.nodes), util::format("%.2f", row.flat_ms),
         util::format("%.2f", row.hier_ms),
         util::format("%.2f", row.two_phase_ms),
         util::format("%.1fx", row.flat_ms / std::max(row.hier_ms, 1e-9)),
         util::format("%.3f", row.flat_exec_s),
         util::format("%.3f", row.hier_exec_s),
         util::format("%.3f", row.two_phase_exec_s),
         util::format("%+.1f%%", (row.hier_exec_s / row.flat_exec_s - 1.0) *
                                     100.0)});
  }
  table.print(std::cout);
  std::cout << "\n";

  const Row& largest = rows.back();
  const Row& paper_scale = rows.front();
  std::vector<exp::ShapeCheck> checks;
  checks.push_back(exp::check(
      "hierarchical is faster to decide at the largest size",
      largest.hier_ms < largest.flat_ms,
      util::format("%.2f vs %.2f ms", largest.hier_ms, largest.flat_ms)));
  checks.push_back(exp::check(
      "hierarchical speedup grows with cluster size",
      largest.flat_ms / std::max(largest.hier_ms, 1e-9) >
          paper_scale.flat_ms / std::max(paper_scale.hier_ms, 1e-9),
      ""));
  checks.push_back(exp::check(
      "two-phase decide beats the flat path at the largest size",
      largest.two_phase_ms < largest.flat_ms,
      util::format("%.2f vs %.2f ms", largest.two_phase_ms,
                   largest.flat_ms)));
  checks.push_back(exp::check(
      "two-phase execution-time penalty is small (< 25% mean)",
      [&] {
        double penalty = 0.0;
        for (const Row& row : rows) {
          penalty += row.two_phase_exec_s / row.flat_exec_s - 1.0;
        }
        return penalty / static_cast<double>(rows.size()) < 0.25;
      }(),
      ""));
  checks.push_back(exp::check(
      "execution-time penalty of the hierarchy is small (< 25% mean)",
      [&] {
        double penalty = 0.0;
        for (const Row& row : rows) {
          penalty += row.hier_exec_s / row.flat_exec_s - 1.0;
        }
        return penalty / static_cast<double>(rows.size()) < 0.25;
      }(),
      ""));
  return exp::print_shape_checks(std::cout, checks) == 0 ? 0 : 1;
}
