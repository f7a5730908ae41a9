#include "pipeline.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "cluster/node.h"
#include "monitor/daemons.h"
#include "monitor/resource_monitor.h"
#include "sim/rng.h"

namespace perfbench {

namespace nc = nlarm::cluster;
namespace nm = nlarm::monitor;
namespace core = nlarm::core;

namespace {

constexpr int kNodesPerSwitch = 32;
constexpr double kPeakMbps = 1000.0;

nc::NodeSpec make_spec(nc::NodeId id, nlarm::sim::Rng& rng) {
  nc::NodeSpec spec;
  spec.id = id;
  spec.hostname = nc::default_hostname(id);
  spec.switch_id = id / kNodesPerSwitch;
  spec.core_count = rng.chance(0.5) ? 8 : 12;
  spec.cpu_freq_ghz = rng.uniform(2.0, 4.5);
  spec.total_mem_gb = rng.chance(0.5) ? 16.0 : 32.0;
  return spec;
}

nm::NodeSnapshot sample_node(const nc::NodeSpec& spec, nlarm::sim::Rng& rng) {
  nm::NodeSnapshot record;
  record.spec = spec;
  const double cores = spec.core_count;
  const double load = rng.uniform(0.0, 0.6) * cores;
  record.cpu_load = load;
  record.cpu_load_avg = {load, load * 0.95, load * 0.9};
  const double util = std::min(1.0, load / cores + rng.uniform(0.0, 0.1));
  record.cpu_util = util;
  record.cpu_util_avg = {util, util, util};
  const double flow = rng.uniform(0.0, 400.0);
  record.net_flow_mbps = flow;
  record.net_flow_avg = {flow, flow, flow};
  record.mem_used_gb = rng.uniform(1.0, spec.total_mem_gb - 2.0);
  const double avail = spec.total_mem_gb - record.mem_used_gb;
  record.mem_avail_avg = {avail, avail, avail};
  record.users = static_cast<int>(rng.uniform_int(0, 4));
  return record;
}

PairProbe probe(nc::NodeId u, nc::NodeId v, nlarm::sim::Rng& rng) {
  const bool same_switch = u / kNodesPerSwitch == v / kNodesPerSwitch;
  PairProbe pair;
  pair.u = std::min(u, v);
  pair.v = std::max(u, v);
  pair.latency_us =
      same_switch ? rng.uniform(20.0, 60.0) : rng.uniform(80.0, 400.0);
  pair.bandwidth_mbps = rng.uniform(100.0, kPeakMbps);
  return pair;
}

/// Two write calls each, both orders of the pair, as the probe daemons make.
void write_latency_pair(nm::MonitorStore& store, double now,
                        const PairProbe& pair) {
  store.write_latency(now, pair.u, pair.v, pair.latency_us,
                      pair.latency_us * 1.1);
  store.write_latency(now, pair.v, pair.u, pair.latency_us,
                      pair.latency_us * 1.1);
}

void write_bandwidth_pair(nm::MonitorStore& store, double now,
                          const PairProbe& pair) {
  store.write_bandwidth(now, pair.u, pair.v, pair.bandwidth_mbps, kPeakMbps);
  store.write_bandwidth(now, pair.v, pair.u, pair.bandwidth_mbps, kPeakMbps);
}

/// One probe daemon in sparse mode: every `period` seconds it measures one
/// tournament round (n/2 disjoint pairs), walking the rounds with a cursor.
struct ProbeSchedule {
  double period = 0.0;  ///< 0 = no probes
  double next_due = 0.0;
  std::size_t cursor = 0;
};

std::size_t file_bytes(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<std::size_t>(size);
}

}  // namespace

ClusterPlan make_cluster_plan(std::uint64_t seed, int node_count,
                              const TrafficOptions& traffic) {
  nlarm::sim::Rng root(seed);
  nlarm::sim::Rng spec_rng = root.fork("specs");
  nlarm::sim::Rng node_rng = root.fork("nodes");
  nlarm::sim::Rng pair_rng = root.fork("pairs");
  nlarm::sim::Rng schedule_rng = root.fork("schedule");

  ClusterPlan plan;
  plan.node_count = node_count;
  plan.start_time = 100.0;
  const auto n = static_cast<std::size_t>(node_count);

  std::vector<nc::NodeSpec> specs;
  specs.reserve(n);
  for (int i = 0; i < node_count; ++i) specs.push_back(make_spec(i, spec_rng));
  plan.nodes.reserve(n);
  for (const nc::NodeSpec& spec : specs) {
    plan.nodes.push_back(sample_node(spec, node_rng));
  }
  plan.pairs.reserve(n * (n - 1) / 2);
  for (int u = 0; u < node_count; ++u) {
    for (int v = u + 1; v < node_count; ++v) {
      plan.pairs.push_back(probe(u, v, pair_rng));
    }
  }

  // NodeStateD cadence: each node on its own 3–10 s period, random phase.
  std::vector<double> period(n);
  std::vector<double> next_due(n);
  for (std::size_t i = 0; i < n; ++i) {
    period[i] = schedule_rng.uniform(3.0, 10.0);
    next_due[i] = plan.start_time + schedule_rng.uniform(0.0, period[i]);
  }
  // Livehosts changes at evenly spaced ticks: one node goes down, the next
  // change brings it back.
  std::vector<int> change_ticks;
  for (int c = 0; c < traffic.livehost_changes; ++c) {
    change_ticks.push_back(traffic.ticks * (c + 1) /
                           (traffic.livehost_changes + 1));
  }
  std::vector<bool> livehosts(n, true);
  nc::NodeId down = nc::kInvalidNode;

  // Pair probes follow MonitorConfig in sparse mode, the only mode that runs
  // at V=2048: a dense daemon walks all n-1 tournament rounds within one
  // period, probe_round_spacing_s apart, and 2047 × 0.05 s exceeds the 60 s
  // latency period. LatencyD measures one round every latency_period_s,
  // BandwidthD one every bandwidth_period_s, each from a seeded phase and
  // round cursor. The sparse estimator's reconstruction of unmeasured pairs
  // is not modelled.
  const nm::MonitorConfig monitor;
  std::vector<std::vector<std::pair<nc::NodeId, nc::NodeId>>> rounds;
  ProbeSchedule latency;
  ProbeSchedule bandwidth;
  if (traffic.pair_probes) {
    rounds = nm::tournament_rounds(node_count);
    const auto start = [&](double probe_period) {
      ProbeSchedule schedule;
      schedule.period = probe_period;
      schedule.next_due =
          plan.start_time + schedule_rng.uniform(0.0, probe_period);
      schedule.cursor = static_cast<std::size_t>(schedule_rng.uniform_int(
          0, static_cast<std::int64_t>(rounds.size()) - 1));
      return schedule;
    };
    latency = start(monitor.latency_period_s);
    bandwidth = start(monitor.bandwidth_period_s);
  }
  const auto due_rounds = [&](double now, ProbeSchedule& schedule,
                              std::vector<PairProbe>& out) {
    if (schedule.period <= 0.0) return;
    for (; schedule.next_due <= now; schedule.next_due += schedule.period) {
      for (const auto& [u, v] : rounds[schedule.cursor++ % rounds.size()]) {
        // PairProbeDaemon::run_round skips pairs with a dead node.
        if (!livehosts[static_cast<std::size_t>(u)] ||
            !livehosts[static_cast<std::size_t>(v)]) {
          continue;
        }
        out.push_back(probe(u, v, pair_rng));
      }
    }
  };

  plan.ticks.resize(static_cast<std::size_t>(traffic.ticks));
  for (int k = 0; k < traffic.ticks; ++k) {
    TickPlan& tick = plan.ticks[static_cast<std::size_t>(k)];
    tick.now = plan.start_time + traffic.tick_s * (k + 1);
    for (std::size_t i = 0; i < n; ++i) {
      if (next_due[i] > tick.now) continue;
      tick.nodes.push_back(sample_node(specs[i], node_rng));
      while (next_due[i] <= tick.now) next_due[i] += period[i];
    }
    if (std::find(change_ticks.begin(), change_ticks.end(), k) !=
        change_ticks.end()) {
      if (down == nc::kInvalidNode) {
        down = static_cast<nc::NodeId>(
            schedule_rng.uniform_int(0, node_count - 1));
        livehosts[static_cast<std::size_t>(down)] = false;
      } else {
        livehosts[static_cast<std::size_t>(down)] = true;
        down = nc::kInvalidNode;
      }
      tick.livehosts_change = true;
      tick.livehosts = livehosts;
    }
    due_rounds(tick.now, latency, tick.latency_pairs);
    due_rounds(tick.now, bandwidth, tick.bandwidth_pairs);
  }
  return plan;
}

double assemble_bytes(int node_count) {
  const double n = node_count;
  return 4.0 * n * n * sizeof(double) + n * sizeof(nm::NodeSnapshot) + n / 8.0;
}

Pipeline::Pipeline(const ClusterPlan& plan, const PipelineOptions& options)
    : options_(options),
      store_(plan.node_count),
      writer_(options.log_path),
      leader_(leader_allocator_) {
  std::remove(options_.log_path.c_str());
  leader_.set_degradation(options_.degradation);
  leader_.set_refresh_threads(options_.refresh_threads);

  const double now = plan.start_time;
  store_.write_livehosts(
      now, std::vector<bool>(static_cast<std::size_t>(plan.node_count), true));
  for (const nm::NodeSnapshot& record : plan.nodes) {
    store_.write_node_record(now, record);
  }
  for (const PairProbe& pair : plan.pairs) {
    write_latency_pair(store_, now, pair);
    write_bandwidth_pair(store_, now, pair);
  }

  last_snapshot_ =
      std::make_shared<const nm::ClusterSnapshot>(store_.assemble(now));
  const nm::SnapshotDelta delta = store_.drain_delta();
  writer_.append(*last_snapshot_, delta);
  leader_.refresh_epoch(last_snapshot_, delta, store_.staleness_view(now),
                        options_.profile);

  // The follower refreshes serially and decodes inline, so a tick never
  // runs more threads than the leader's refresh pool.
  core::ReplicaOptions replica;
  replica.refresh_threads = 1;
  replica.decode_ahead = false;
  follower_ = std::make_unique<core::FollowerBroker>(
      follower_allocator_, options_.log_path, options_.profile, replica);
  follower_->set_degradation(options_.degradation);
  follower_->poll_once(now);
}

Pipeline::~Pipeline() {
  follower_.reset();
  std::remove(options_.log_path.c_str());
}

PublishResult Pipeline::publish(const TickPlan& tick, SpanBuffer& spans,
                                 std::uint64_t parent, std::int64_t tick_id) {
  PublishResult out;
  out.start_s = wall_s();
  {
    Span span(spans, "monitor.store.write", parent, tick_id);
    if (tick.livehosts_change) {
      store_.write_livehosts(tick.now, tick.livehosts);
      ++out.writes;
    }
    for (const nm::NodeSnapshot& record : tick.nodes) {
      store_.write_node_record(tick.now, record);
    }
    for (const PairProbe& pair : tick.latency_pairs) {
      write_latency_pair(store_, tick.now, pair);
    }
    for (const PairProbe& pair : tick.bandwidth_pairs) {
      write_bandwidth_pair(store_, tick.now, pair);
    }
    out.writes += static_cast<long>(
        tick.nodes.size() +
        2 * (tick.latency_pairs.size() + tick.bandwidth_pairs.size()));
  }
  {
    Span span(spans, "monitor.store.assemble", parent, tick_id);
    last_snapshot_ =
        std::make_shared<const nm::ClusterSnapshot>(store_.assemble(tick.now));
  }
  nm::SnapshotDelta delta;
  {
    Span span(spans, "monitor.store.drain_delta", parent, tick_id);
    delta = store_.drain_delta();
  }
  out.dirty_nodes = delta.dirty_nodes.size();
  out.dirty_pairs = delta.dirty_pairs.size();
  {
    const std::size_t before = file_bytes(options_.log_path);
    const int compactions = writer_.compactions();
    const double wall_start = wall_s();
    const double cpu_start = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
    Span span(spans, "monitor.delta_log.append", parent, tick_id);
    writer_.append(*last_snapshot_, delta);
    span.end();
    out.append_cpu_s = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID) - cpu_start;
    out.append_wall_s = wall_s() - wall_start;
    out.full_frame = writer_.compactions() != compactions;
    const std::size_t after = file_bytes(options_.log_path);
    out.frame_bytes = out.full_frame ? after : after - before;
  }
  out.append_end_s = wall_s();
  nm::StalenessView staleness;
  {
    Span span(spans, "monitor.store.staleness_view", parent, tick_id);
    staleness = store_.staleness_view(tick.now);
  }
  {
    Span span(spans, "core.broker.refresh", parent, tick_id);
    out.incremental = leader_.refresh_epoch(last_snapshot_, delta, staleness,
                                            options_.profile);
  }
  out.publish_end_s = wall_s();
  return out;
}

double Pipeline::replicate(double now, SpanBuffer& spans, std::uint64_t parent,
                           std::int64_t tick_id) {
  const double start = wall_s();
  Span span(spans, "core.replica.poll", parent, tick_id);
  follower_->poll_once(now);
  span.end();
  return wall_s() - start;
}

}  // namespace perfbench
