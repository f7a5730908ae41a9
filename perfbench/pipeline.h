// The broker's serving pipeline as the benchmark drives it, through the
// library's public API only:
//
//   store writes → assemble → drain_delta → delta-log append
//     → staleness_view → degraded refresh_epoch (leader epoch published)
//     → FollowerBroker::poll_once (follower epoch published)
//
// plus the seeded inputs that feed it. A ClusterPlan holds every store write
// of a run, generated before anything is timed: the initial records, an
// initial probe of every pair, and one TickPlan per tick following the
// monitor's cadences (each node re-sampled on its own 3–10 s period, the
// latency and bandwidth probe rounds of MonitorConfig's sparse mode,
// livehosts changes at fixed ticks).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/allocator.h"
#include "core/broker.h"
#include "core/degrade.h"
#include "core/prepared.h"
#include "core/replica.h"
#include "monitor/delta_log.h"
#include "monitor/snapshot.h"
#include "monitor/store.h"
#include "trace.h"

namespace perfbench {

/// One symmetric probe result; written for both orders of the pair.
struct PairProbe {
  nlarm::cluster::NodeId u = 0;
  nlarm::cluster::NodeId v = 0;
  double latency_us = 0.0;      ///< 1-min mean; the 5-min mean is 1.1×
  double bandwidth_mbps = 0.0;  ///< against a 1000 Mbit/s peak
};

struct TickPlan {
  double now = 0.0;  ///< simulated seconds
  std::vector<nlarm::monitor::NodeSnapshot> nodes;  ///< records due this tick
  std::vector<PairProbe> latency_pairs;    ///< LatencyD round, if one is due
  std::vector<PairProbe> bandwidth_pairs;  ///< BandwidthD round, if one is due
  bool livehosts_change = false;
  std::vector<bool> livehosts;  ///< the new view when livehosts_change
};

struct TrafficOptions {
  int ticks = 0;
  double tick_s = 1.0;        ///< simulated seconds between ticks
  bool pair_probes = false;   ///< sparse-mode latency/bandwidth rounds
  int livehost_changes = 0;   ///< livehosts rewrites (full rebuilds) per run
};

struct ClusterPlan {
  int node_count = 0;
  double start_time = 0.0;
  std::vector<nlarm::monitor::NodeSnapshot> nodes;  ///< initial records
  std::vector<PairProbe> pairs;  ///< every unordered pair, probed at start
  std::vector<TickPlan> ticks;
};

/// Seeded cluster: 32 nodes per switch, 8 or 12 cores, loads averaging 0.3
/// per core so the broker's 0.5 wait gate stays open.
ClusterPlan make_cluster_plan(std::uint64_t seed, int node_count,
                              const TrafficOptions& traffic);

/// Bytes one MonitorStore::assemble copies, computed from the sizes of what
/// it copies (four dense V×V matrices, the node records, livehosts).
double assemble_bytes(int node_count);

struct PipelineOptions {
  nlarm::core::RequestProfile profile;
  nlarm::core::DegradationPolicy degradation;
  int refresh_threads = 1;  ///< leader refresh pool, caller included
  std::string log_path;
};

/// What one tick's leader half did.
struct PublishResult {
  double start_s = 0.0;       ///< first store write (steady clock)
  double append_end_s = 0.0;  ///< frame appended to the log
  double append_wall_s = 0.0; ///< the append's wall time, fsync included
  double append_cpu_s = 0.0;  ///< the append's thread CPU time
  double publish_end_s = 0.0; ///< leader epoch published
  long writes = 0;            ///< store write calls
  std::size_t dirty_nodes = 0;
  std::size_t dirty_pairs = 0;
  std::size_t frame_bytes = 0;
  bool full_frame = false;
  bool incremental = false;   ///< leader applied the delta in O(dirty)
};

/// One leader (store, log writer, degraded ResourceBroker) and one follower
/// (degraded FollowerBroker tailing the same log). Constructing it is the
/// benchmark's set-up: populate the store, append the first (full) frame,
/// publish the first full epoch and let the follower ingest it.
class Pipeline {
 public:
  Pipeline(const ClusterPlan& plan, const PipelineOptions& options);
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Leader half of a tick: writes through leader epoch publish.
  PublishResult publish(const TickPlan& tick, SpanBuffer& spans,
                        std::uint64_t parent, std::int64_t tick_id);

  /// Follower half: one poll_once at `now`. Returns its wall seconds.
  double replicate(double now, SpanBuffer& spans, std::uint64_t parent,
                   std::int64_t tick_id);

  nlarm::core::ResourceBroker& leader() { return leader_; }
  nlarm::core::FollowerBroker& follower() { return *follower_; }
  const nlarm::monitor::ClusterSnapshot& last_snapshot() const {
    return *last_snapshot_;
  }
  const std::string& log_path() const { return options_.log_path; }

 private:
  PipelineOptions options_;
  nlarm::monitor::MonitorStore store_;
  nlarm::monitor::DeltaLogWriter writer_;
  nlarm::core::NetworkLoadAwareAllocator leader_allocator_;
  nlarm::core::NetworkLoadAwareAllocator follower_allocator_;
  nlarm::core::ResourceBroker leader_;
  std::unique_ptr<nlarm::core::FollowerBroker> follower_;
  std::shared_ptr<const nlarm::monitor::ClusterSnapshot> last_snapshot_;
};

}  // namespace perfbench
