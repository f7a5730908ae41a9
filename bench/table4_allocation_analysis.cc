// Table 4 + Figure 7: resource-allocation analysis for one job.
//
// The paper's §5.3 case study: miniMD, 32 processes (4/node, 8 nodes),
// s = 16 (16K atoms). All four policies allocate against the same cluster
// state; Table 4 reports the allocated groups' average CPU load, average
// complement of available bandwidth and average latency, and Figure 7 shows
// the P2P bandwidth heatmap with each policy's selection and the per-node
// CPU load row.
#include <algorithm>
#include <iostream>

#include "apps/minimd.h"
#include "core/baselines.h"
#include "core/network_load.h"
#include "exp/experiment.h"
#include "exp/report.h"
#include "mpisim/placement.h"
#include "util/args.h"
#include "util/strings.h"
#include "util/table.h"

using namespace nlarm;

int main(int argc, char** argv) {
  util::ArgParser parser(
      "Table 4 + Figure 7 reproduction: state of the resource groups chosen "
      "by each policy for one miniMD job (32 procs, s=16).",
      {{"seed", "RNG seed (default 46)"},
       {"scenario", "workload scenario (default hotspot, for contrast)"}});
  if (!parser.parse(argc, argv)) return 0;

  exp::Testbed::Options testbed_options;
  testbed_options.seed =
      static_cast<std::uint64_t>(parser.get_long("seed", 46));
  testbed_options.scenario = workload::parse_scenario_kind(
      parser.get_string("scenario", "hotspot"));
  auto testbed = exp::Testbed::make(testbed_options);
  const monitor::ClusterSnapshot snap = testbed->snapshot();

  core::AllocationRequest request;
  request.nprocs = 32;
  request.ppn = 4;
  request.job = core::JobWeights::minimd_defaults();
  request.validate();

  core::RandomAllocator random_alloc(7);
  core::SequentialAllocator sequential_alloc(7);
  core::LoadAwareAllocator load_aware_alloc;
  core::NetworkLoadAwareAllocator ours;
  struct Entry {
    std::string label;
    core::Allocator* allocator;
    core::Allocation allocation;
    double exec_s = 0.0;
  };
  std::vector<Entry> entries{{"Random", &random_alloc, {}, 0.0},
                             {"Sequential", &sequential_alloc, {}, 0.0},
                             {"Load Aware", &load_aware_alloc, {}, 0.0},
                             {"Network and load-aware", &ours, {}, 0.0}};

  apps::MiniMdParams app_params;
  app_params.size = 16;
  app_params.nranks = 32;
  const auto app = apps::make_minimd_profile(app_params);

  for (Entry& entry : entries) {
    entry.allocation = entry.allocator->allocate(snap, request);
    // Execute on a frozen copy of the conditions so every policy faces the
    // exact same cluster state (the paper ran them back-to-back).
    entry.exec_s =
        testbed->runtime()
            .estimate(app,
                      mpisim::Placement::from_allocation(entry.allocation))
            .total_s;
  }

  std::cout << "=== Table 4: usage of allocated resource group during "
               "allocation ===\n";
  std::cout << "(miniMD, 32 processes, 4/node, s=16; complement of available "
               "bandwidth in MB/s as in the paper)\n\n";
  util::TextTable table({"Algorithm", "Avg. CPU load", "Avg. bandwidth",
                         "Avg. latency (us)", "Exec time (s)"});
  for (const Entry& entry : entries) {
    table.add_row({entry.label,
                   util::format("%.3f", entry.allocation.avg_cpu_load),
                   util::format("%.2f",
                                entry.allocation.avg_bw_complement_mbps / 8.0),
                   util::format("%.2f", entry.allocation.avg_latency_us),
                   util::format("%.2f", entry.exec_s)});
  }
  table.print(std::cout);
  std::cout << "\nPaper's Table 4 (for shape comparison):\n"
               "  Random                  1.242  17.07  546.46\n"
               "  Sequential              1.262  10.72  304.25\n"
               "  Load Aware              0.453  18.64  354.51\n"
               "  Network and load-aware  0.633   5.36   82.90\n\n";

  // ---- Figure 7: heatmap + selections + CPU load row ----
  // Show the sub-cluster covering every selected node (plus context).
  std::vector<cluster::NodeId> shown;
  for (const Entry& entry : entries) {
    for (cluster::NodeId id : entry.allocation.nodes) shown.push_back(id);
  }
  std::sort(shown.begin(), shown.end());
  shown.erase(std::unique(shown.begin(), shown.end()), shown.end());

  std::vector<std::vector<double>> complement(
      shown.size(), std::vector<double>(shown.size(), 0.0));
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < shown.size(); ++i) {
    labels.push_back(snap.nodes[static_cast<std::size_t>(shown[i])]
                         .spec.hostname);
    for (std::size_t j = 0; j < shown.size(); ++j) {
      if (i == j) continue;
      const core::PairMetrics m = core::pair_metrics(snap, shown[i], shown[j]);
      complement[i][j] =
          m.bandwidth_complement_mbps >= 0 ? m.bandwidth_complement_mbps : 0;
    }
  }

  std::cout << "=== Figure 7: P2P bandwidth (complement) heatmap over the "
               "selected nodes ===\n";
  std::cout << "darker = lower available bandwidth (larger complement)\n\n";
  util::HeatmapOptions heat;
  heat.labels = labels;
  std::cout << util::render_heatmap(complement, heat) << "\n";

  std::cout << "Selections (x = node chosen by the policy):\n";
  const std::size_t label_width = 24;
  for (const Entry& entry : entries) {
    std::string line = entry.label;
    line.resize(label_width, ' ');
    for (cluster::NodeId id : shown) {
      const bool chosen =
          std::find(entry.allocation.nodes.begin(),
                    entry.allocation.nodes.end(),
                    id) != entry.allocation.nodes.end();
      line += chosen ? " x" : " .";
    }
    std::cout << line << "\n";
  }
  std::string load_line = "CPU load";
  load_line.resize(label_width, ' ');
  std::cout << load_line;
  for (cluster::NodeId id : shown) {
    std::printf(" %.0f",
                snap.nodes[static_cast<std::size_t>(id)].cpu_load_avg.one_min);
  }
  std::cout << "\nSwitch    ";
  std::cout << std::string(label_width - 10, ' ');
  for (cluster::NodeId id : shown) {
    std::printf(" %d", testbed->cluster().topology().switch_of(id));
  }
  std::cout << "\n\n";

  const Entry& ours_entry = entries[3];
  const Entry& load_entry = entries[2];
  std::vector<exp::ShapeCheck> checks;
  checks.push_back(exp::check(
      "ours has the lowest average bandwidth complement (most headroom)",
      ours_entry.allocation.avg_bw_complement_mbps <=
          entries[0].allocation.avg_bw_complement_mbps &&
          ours_entry.allocation.avg_bw_complement_mbps <=
              entries[1].allocation.avg_bw_complement_mbps &&
          ours_entry.allocation.avg_bw_complement_mbps <=
              load_entry.allocation.avg_bw_complement_mbps,
      util::format("%.1f Mbit/s",
                   ours_entry.allocation.avg_bw_complement_mbps)));
  checks.push_back(exp::check(
      "ours has the lowest average latency",
      ours_entry.allocation.avg_latency_us <=
          entries[0].allocation.avg_latency_us &&
          ours_entry.allocation.avg_latency_us <=
              entries[1].allocation.avg_latency_us &&
          ours_entry.allocation.avg_latency_us <=
              load_entry.allocation.avg_latency_us,
      util::format("%.1f us", ours_entry.allocation.avg_latency_us)));
  checks.push_back(exp::check(
      "load-aware's CPU load is at most ours plus noise (it optimizes only "
      "that)",
      load_entry.allocation.avg_cpu_load <=
          ours_entry.allocation.avg_cpu_load + 0.15,
      util::format("%.3f vs ours %.3f", load_entry.allocation.avg_cpu_load,
                   ours_entry.allocation.avg_cpu_load)));
  checks.push_back(exp::check(
      "ours is the fastest despite not having the lowest CPU load",
      ours_entry.exec_s <= entries[0].exec_s &&
          ours_entry.exec_s <= entries[1].exec_s &&
          ours_entry.exec_s <= load_entry.exec_s,
      util::format("%.2f s vs load-aware %.2f s", ours_entry.exec_s,
                   load_entry.exec_s)));
  // Topology capture: all our nodes within few switch hops.
  int max_hops = 0;
  for (std::size_t i = 0; i < ours_entry.allocation.nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < ours_entry.allocation.nodes.size(); ++j) {
      max_hops = std::max(
          max_hops, testbed->cluster().topology().hops(
                        ours_entry.allocation.nodes[i],
                        ours_entry.allocation.nodes[j]));
    }
  }
  checks.push_back(exp::check(
      "ours automatically captures topology (selection does not span the "
      "whole 4-switch chain)",
      max_hops <= 3, util::format("max hops %d", max_hops)));
  return exp::print_shape_checks(std::cout, checks) == 0 ? 0 : 1;
}
