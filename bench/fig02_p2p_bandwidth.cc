// Figure 2: "P2P Bandwidth variation across node pairs".
//
// (a) heatmap of measured P2P bandwidth between 30 nodes, averaged over ten
//     measurement sweeps — nodes numbered by physical proximity should show
//     brighter (higher-bandwidth) blocks near the diagonal;
// (b) bandwidth of three node pairs sampled over several hours — each
//     fluctuates around a base value set by its topology.
#include <cstdio>
#include <iostream>

#include "cluster/cluster.h"
#include "exp/report.h"
#include "net/flows.h"
#include "net/network_model.h"
#include "sim/simulation.h"
#include "util/args.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "workload/scenario.h"

using namespace nlarm;

int main(int argc, char** argv) {
  util::ArgParser parser(
      "Figure 2 reproduction: P2P bandwidth across pairs and time.",
      {{"nodes", "cluster size (default 30, as in Figure 2(a))"},
       {"sweeps", "measurement sweeps to average (default 10)"},
       {"hours", "hours for the time-series panel (default 6)"},
       {"seed", "RNG seed (default 42)"}});
  if (!parser.parse(argc, argv)) return 0;
  const int node_count = static_cast<int>(parser.get_long("nodes", 30));
  const int sweeps = static_cast<int>(parser.get_long("sweeps", 10));
  const double hours = parser.get_double("hours", 6.0);
  const auto seed = static_cast<std::uint64_t>(parser.get_long("seed", 42));

  // 30 nodes over 4 chained switches, like the left half of the testbed.
  cluster::IitkClusterOptions cluster_options;
  cluster_options.fast_nodes = node_count;
  cluster_options.slow_nodes = 0;
  cluster::Cluster cluster = cluster::make_iitk_cluster(cluster_options);
  net::FlowSet flows;
  net::NetworkModel network(cluster, flows);
  sim::Simulation sim(seed);
  workload::ScenarioOptions scenario_options;
  scenario_options.seed = seed;
  workload::Scenario scenario(cluster, flows, network, scenario_options);
  scenario.attach(sim);
  sim.run_until(900.0);  // let traffic develop

  sim::Rng probe_rng(seed ^ 0xbeef);

  // ---- Panel (a): pairwise bandwidth averaged over `sweeps` sweeps ----
  std::vector<std::vector<double>> bw(
      node_count, std::vector<double>(node_count, 0.0));
  for (int s = 0; s < sweeps; ++s) {
    for (int u = 0; u < node_count; ++u) {
      for (int v = 0; v < node_count; ++v) {
        if (u == v) continue;
        bw[u][v] += network.measure_bandwidth_mbps(u, v, probe_rng) /
                    static_cast<double>(sweeps);
      }
    }
    sim.run_until(sim.now() + 120.0);  // conditions drift between sweeps
  }
  for (int u = 0; u < node_count; ++u) bw[u][u] = 0.0;

  std::cout << "=== Figure 2(a): P2P bandwidth heatmap (" << node_count
            << " nodes, avg of " << sweeps << " sweeps) ===\n";
  std::cout << "light = high available bandwidth, dark = low\n\n";
  util::HeatmapOptions heat;
  heat.invert = true;  // high bandwidth → light
  std::cout << util::render_heatmap(bw, heat) << "\n";

  // Proximity statistics: mean bandwidth by hop count.
  std::vector<util::StreamingStats> by_hops(5);
  for (int u = 0; u < node_count; ++u) {
    for (int v = u + 1; v < node_count; ++v) {
      const int hops = cluster.topology().hops(u, v);
      by_hops[static_cast<std::size_t>(hops)].add(bw[u][v]);
    }
  }
  util::TextTable hop_table({"hops", "pairs", "mean bandwidth (Mbit/s)"});
  for (int h = 1; h <= 4; ++h) {
    const auto& stats = by_hops[static_cast<std::size_t>(h)];
    if (stats.count() == 0) continue;
    hop_table.add_row({util::format("%d", h),
                       util::format("%zu", stats.count()),
                       util::format("%.1f", stats.mean())});
  }
  hop_table.print(std::cout);

  // ---- Panel (b): three pairs over time ----
  struct TrackedPair {
    cluster::NodeId u, v;
    std::vector<double> samples;
  };
  // One same-switch pair, one adjacent-switch pair, one distant pair.
  std::vector<TrackedPair> pairs{{0, 3, {}},
                                 {2, node_count / 3 + 1, {}},
                                 {1, node_count - 1, {}}};
  const double step = 300.0;  // the paper's 5-minute bandwidth period
  const int samples = static_cast<int>(hours * 3600.0 / step);
  std::vector<double> sample_hours;
  for (int i = 0; i < samples; ++i) {
    sim.run_until(sim.now() + step);
    sample_hours.push_back(sim.now() / 3600.0);
    for (auto& pair : pairs) {
      pair.samples.push_back(
          network.measure_bandwidth_mbps(pair.u, pair.v, probe_rng));
    }
  }

  std::cout << "\n=== Figure 2(b): P2P bandwidth of three pairs across time "
               "===\n\n";
  std::cout << "hour";
  for (const auto& pair : pairs) {
    std::cout << "," << cluster.node(pair.u).spec.hostname << "-"
              << cluster.node(pair.v).spec.hostname;
  }
  std::cout << "\n";
  for (int i = 0; i < samples; ++i) {
    std::printf("%.2f", sample_hours[static_cast<std::size_t>(i)]);
    for (const auto& pair : pairs) {
      std::printf(",%.1f", pair.samples[static_cast<std::size_t>(i)]);
    }
    std::printf("\n");
  }

  std::cout << "\nPer-pair statistics:\n";
  std::vector<double> pair_means;
  std::vector<double> pair_covs;
  for (const auto& pair : pairs) {
    const util::Summary s = util::summarize(pair.samples);
    pair_means.push_back(s.mean);
    pair_covs.push_back(s.cov);
    std::printf("  %s-%s (%d hops): mean %.1f Mbit/s, CoV %.3f\n",
                cluster.node(pair.u).spec.hostname.c_str(),
                cluster.node(pair.v).spec.hostname.c_str(),
                cluster.topology().hops(pair.u, pair.v), s.mean, s.cov);
  }

  std::vector<exp::ShapeCheck> checks;
  const bool proximity_ordered =
      by_hops[1].mean() > by_hops[2].mean() &&
      by_hops[2].mean() >= by_hops[3].mean();
  checks.push_back(exp::check(
      "closer proximity → higher mean bandwidth (hops 1 > 2 >= 3)",
      proximity_ordered,
      util::format("%.0f / %.0f / %.0f Mbit/s", by_hops[1].mean(),
                   by_hops[2].mean(), by_hops[3].mean())));
  bool variation = true;
  for (double cov : pair_covs) variation = variation && cov > 0.02;
  checks.push_back(exp::check(
      "every tracked pair fluctuates over time (CoV > 0.02)", variation,
      util::format("CoVs %.3f / %.3f / %.3f", pair_covs[0], pair_covs[1],
                   pair_covs[2])));
  checks.push_back(exp::check(
      "pairs differ in their base bandwidth (topology-determined)",
      util::max_value(pair_means) > 1.05 * util::min_value(pair_means),
      util::format("means %.0f / %.0f / %.0f", pair_means[0], pair_means[1],
                   pair_means[2])));
  std::cout << "\n";
  return exp::print_shape_checks(std::cout, checks) == 0 ? 0 : 1;
}
