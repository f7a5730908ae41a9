// Figure 1: "Variation in node resource usage in a shared cluster".
//
// Simulates two days of the shared-lab background workload on 20 nodes and
// prints (a) CPU load of two nodes + the 20-node average, (b) network I/O
// of two nodes + average, (c) average CPU utilization and memory usage —
// the same three panels as the paper's Figure 1, as hourly CSV rows.
#include <algorithm>
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
#include "workload/scenario.h"
#include "workload/trace.h"

using namespace nlarm;

int main(int argc, char** argv) {
  util::ArgParser parser(
      "Figure 1 reproduction: two days of node resource usage variation.",
      {{"hours", "simulated hours (default 48, the paper's 2 days)"},
       {"nodes", "cluster size (default 20, as in Figure 1)"},
       {"seed", "RNG seed (default 42)"}});
  if (!parser.parse(argc, argv)) return 0;
  const double hours = parser.get_double("hours", 48.0);
  const int node_count = static_cast<int>(parser.get_long("nodes", 20));
  const auto seed = static_cast<std::uint64_t>(parser.get_long("seed", 42));

  cluster::Cluster cluster =
      cluster::make_uniform_cluster(node_count, 2, /*cores=*/12, 4.6);
  net::FlowSet flows;
  net::NetworkModel network(cluster, flows);
  sim::Simulation sim(seed);
  workload::ScenarioOptions scenario_options;
  scenario_options.kind = workload::ScenarioKind::kSharedLab;
  scenario_options.seed = seed;
  workload::Scenario scenario(cluster, flows, network, scenario_options);
  scenario.attach(sim);

  // The paper picks two random nodes; we fix A=2, B=7 for reproducibility.
  const cluster::NodeId node_a = 2 % node_count;
  const cluster::NodeId node_b = 7 % node_count;

  workload::TraceRecorder recorder;
  recorder.add_channel("load_A", [&] { return cluster.node(node_a).dyn.cpu_load; });
  recorder.add_channel("load_B", [&] { return cluster.node(node_b).dyn.cpu_load; });
  recorder.add_channel("load_avg", [&] {
    double sum = 0.0;
    for (cluster::NodeId n = 0; n < cluster.size(); ++n) {
      sum += cluster.node(n).dyn.cpu_load;
    }
    return sum / cluster.size();
  });
  recorder.add_channel("netio_A",
                       [&] { return cluster.node(node_a).dyn.net_flow_mbps; });
  recorder.add_channel("netio_B",
                       [&] { return cluster.node(node_b).dyn.net_flow_mbps; });
  recorder.add_channel("netio_avg", [&] {
    double sum = 0.0;
    for (cluster::NodeId n = 0; n < cluster.size(); ++n) {
      sum += cluster.node(n).dyn.net_flow_mbps;
    }
    return sum / cluster.size();
  });
  recorder.add_channel("util_avg", [&] {
    double sum = 0.0;
    for (cluster::NodeId n = 0; n < cluster.size(); ++n) {
      sum += cluster.node(n).dyn.cpu_util;
    }
    return sum / cluster.size() * 100.0;  // percent, like Fig. 1(c)
  });
  recorder.add_channel("mem_avg_pct", [&] {
    double sum = 0.0;
    for (cluster::NodeId n = 0; n < cluster.size(); ++n) {
      sum += cluster.node(n).dyn.mem_used_gb /
             cluster.node(n).spec.total_mem_gb;
    }
    return sum / cluster.size() * 100.0;
  });
  recorder.attach(sim, 300.0);  // 5-minute samples

  sim.run_until(hours * 3600.0);

  std::cout << "=== Figure 1: node resource usage variation ("
            << hours << " h, " << node_count << " nodes) ===\n\n";
  std::cout << "hour,load_A,load_B,load_avg,netio_A_mbps,netio_B_mbps,"
               "netio_avg_mbps,util_avg_pct,mem_avg_pct\n";
  const auto& times = recorder.series("load_A").times;
  for (std::size_t i = 0; i < times.size(); i += 12) {  // hourly rows
    std::printf("%.1f,%.2f,%.2f,%.2f,%.1f,%.1f,%.1f,%.1f,%.1f\n",
                times[i] / 3600.0, recorder.series("load_A").values[i],
                recorder.series("load_B").values[i],
                recorder.series("load_avg").values[i],
                recorder.series("netio_A").values[i],
                recorder.series("netio_B").values[i],
                recorder.series("netio_avg").values[i],
                recorder.series("util_avg").values[i],
                recorder.series("mem_avg_pct").values[i]);
  }

  const util::Summary load_avg =
      util::summarize(recorder.series("load_avg").values);
  const util::Summary load_a = util::summarize(recorder.series("load_A").values);
  const util::Summary util_avg =
      util::summarize(recorder.series("util_avg").values);
  const util::Summary mem_avg =
      util::summarize(recorder.series("mem_avg_pct").values);
  const util::Summary netio_avg =
      util::summarize(recorder.series("netio_avg").values);

  std::cout << "\nSummary:\n";
  std::printf("  avg CPU load (cluster mean over time): %.2f (max %.2f)\n",
              load_avg.mean, load_avg.max);
  std::printf("  node A CPU load: mean %.2f, max %.2f (spikes)\n",
              load_a.mean, load_a.max);
  std::printf("  avg CPU utilization: %.1f%% (paper: 20-35%%)\n",
              util_avg.mean);
  std::printf("  avg memory usage: %.1f%% (paper: ~25%% of 16 GB)\n",
              mem_avg.mean);
  std::printf("  avg network I/O: %.1f Mbit/s (CoV %.2f)\n", netio_avg.mean,
              netio_avg.cov);

  std::vector<exp::ShapeCheck> checks;
  checks.push_back(exp::check(
      "average CPU load is mostly low (< 1.5)", load_avg.mean < 1.5,
      util::format("mean %.2f", load_avg.mean)));
  checks.push_back(exp::check(
      "occasional CPU-load spikes occur (node max > 4x node mean)",
      load_a.max > 4.0 * std::max(load_a.mean, 0.05),
      util::format("node A mean %.2f max %.2f", load_a.mean, load_a.max)));
  checks.push_back(exp::check(
      "CPU utilization in the paper's 15-40% band",
      util_avg.mean >= 15.0 && util_avg.mean <= 40.0,
      util::format("%.1f%%", util_avg.mean)));
  checks.push_back(exp::check(
      "memory usage near 25% (15-40%)",
      mem_avg.mean >= 15.0 && mem_avg.mean <= 40.0,
      util::format("%.1f%%", mem_avg.mean)));
  checks.push_back(exp::check(
      "network I/O varies a lot over time (CoV > 0.3)", netio_avg.cov > 0.3,
      util::format("CoV %.2f", netio_avg.cov)));
  std::cout << "\n";
  return exp::print_shape_checks(std::cout, checks) == 0 ? 0 : 1;
}
