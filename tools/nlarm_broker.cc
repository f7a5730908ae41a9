// nlarm_broker — the command-line face of the resource manager.
//
// Builds a cluster (the paper's testbed or a user --cluster spec), runs the
// background workload and the Resource Monitor for a warm-up period, then
// serves one allocation request and prints the result in a launcher-ready
// format. One process = one brokered decision, like invoking the paper's
// tool before an mpiexec.
//
// Examples:
//   nlarm_broker --procs 32 --ppn 4 --beta 0.7 --format srun
//   nlarm_broker --cluster "8x12c@4.6;8x8c@2.8" --procs 16 --format openmpi
//   nlarm_broker --procs 64 --scenario heavy            # → wait advice
//   nlarm_broker --procs 32 --policy hierarchical --explain
//   nlarm_broker --procs 32 --metrics-out metrics.prom --audit-out audit.jsonl
//   nlarm_broker --procs 32 --serve-threads 4 --serve-requests 20000
//   nlarm_broker --serve-threads 4 --telemetry-port 0 --telemetry-hold 30
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>

#include "apps/minimd.h"
#include "cluster/spec_loader.h"
#include "core/baselines.h"
#include "core/broker.h"
#include "core/epoch.h"
#include "core/explain.h"
#include "core/hierarchical.h"
#include "core/prepared.h"
#include "core/launcher_export.h"
#include "core/replica.h"
#include "core/serve_shard.h"
#include "monitor/delta_log.h"
#include "exp/chaos_harness.h"
#include "exp/experiment.h"
#include "monitor/persistence.h"
#include "sim/chaos.h"
#include "util/check.h"
#include "obs/audit.h"
#include "obs/catalog.h"
#include "obs/flusher.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"
#include "obs/trace.h"
#include "util/args.h"
#include "util/logging.h"
#include "util/strings.h"

namespace {

/// Writes the full Prometheus exposition (every catalog series — they are
/// all registered at startup), the audit JSONL, and the span-ring JSONL,
/// if requested.
void write_observability_outputs(const std::string& metrics_path,
                                 const std::string& audit_path,
                                 const std::string& trace_path,
                                 const nlarm::obs::AuditLog& audit_log) {
  if (!metrics_path.empty()) {
    nlarm::obs::metrics::export_quantile_gauges();
    std::ofstream out(metrics_path);
    if (!out) {
      std::cerr << "cannot write metrics to " << metrics_path << "\n";
    } else {
      out << nlarm::obs::MetricsRegistry::global().prometheus_text();
      std::cerr << "metrics written to " << metrics_path << "\n";
    }
  }
  if (!audit_path.empty()) {
    std::ofstream out(audit_path, std::ios::app);
    if (!out) {
      std::cerr << "cannot write audit log to " << audit_path << "\n";
    } else {
      out << audit_log.jsonl();
      std::cerr << "audit record(s) appended to " << audit_path << "\n";
    }
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "cannot write trace spans to " << trace_path << "\n";
    } else {
      out << nlarm::obs::SpanTracer::global().jsonl();
      std::cerr << "trace spans written to " << trace_path << "\n";
    }
  }
}

}  // namespace

using namespace nlarm;

namespace {

/// The classic-path allocator for a --policy name; nullptr for an unknown
/// name. The hierarchical policy takes the parsed --pair-sample,
/// --block-size and --two-phase-min-nodes.
std::unique_ptr<core::Allocator> make_policy_allocator(
    const std::string& policy, std::uint64_t seed,
    const core::HierarchicalOptions& hierarchical) {
  if (policy == "network-load-aware")
    return std::make_unique<core::NetworkLoadAwareAllocator>();
  if (policy == "hierarchical")
    return std::make_unique<core::HierarchicalAllocator>(hierarchical);
  if (policy == "load-aware")
    return std::make_unique<core::LoadAwareAllocator>();
  if (policy == "sequential")
    return std::make_unique<core::SequentialAllocator>(seed);
  if (policy == "random") return std::make_unique<core::RandomAllocator>(seed);
  return nullptr;
}

/// Bitwise decision parity: the drill requires the follower's decision at
/// epoch E to reproduce the leader's exactly, diagnostics included.
bool decisions_equal(const core::BrokerDecision& a,
                     const core::BrokerDecision& b) {
  return a.action == b.action && a.reason == b.reason &&
         a.cluster_load_per_core == b.cluster_load_per_core &&
         a.effective_capacity == b.effective_capacity &&
         a.allocation.policy == b.allocation.policy &&
         a.allocation.nodes == b.allocation.nodes &&
         a.allocation.procs_per_node == b.allocation.procs_per_node &&
         a.allocation.total_procs == b.allocation.total_procs &&
         a.allocation.avg_cpu_load == b.allocation.avg_cpu_load &&
         a.allocation.avg_bw_complement_mbps ==
             b.allocation.avg_bw_complement_mbps &&
         a.allocation.avg_latency_us == b.allocation.avg_latency_us &&
         a.allocation.total_cost == b.allocation.total_cost;
}

/// In-process leader-failover drill: a leader broker replicates every tick
/// through a delta log to a FollowerBroker; seeded chaos kills the leader
/// mid-compaction (its full-frame rewrite is torn); the follower promotes
/// from the last-good frame after the silence threshold and takes over the
/// append side. Both sides decide every tick on the non-degraded epoch
/// path so follower decisions must be bit-identical to the leader's at the
/// same replicated version. Returns the process exit code (0 pass, 3 fail).
int run_failover_drill(sim::Simulation& sim, monitor::ResourceMonitor& monitor,
                       exp::ChaosHarness& harness, bool* kill_pending,
                       const std::string& policy_name, std::uint64_t seed,
                       const core::HierarchicalOptions& hier_options,
                       const core::BrokerPolicy& broker_policy,
                       const core::AllocationRequest& request,
                       const std::string& log_path_arg, double drill_seconds,
                       double promote_after, double max_epoch_age,
                       int refresh_threads,
                       std::atomic<double>& telemetry_now) {
  const std::string log_path =
      log_path_arg.empty() ? "nlarm_failover_drill.nlarmd" : log_path_arg;
  std::remove(log_path.c_str());

  const core::RequestProfile profile = core::RequestProfile::of(request);
  // Separate allocator instances: the classic-path allocator carries shared
  // mutable scratch, and the drill's two brokers decide in the same tick.
  const auto leader_allocator =
      make_policy_allocator(policy_name, seed, hier_options);
  const auto follower_allocator =
      make_policy_allocator(policy_name, seed, hier_options);
  core::ResourceBroker leader(*leader_allocator, broker_policy);
  if (refresh_threads > 1) leader.set_refresh_threads(refresh_threads);
  monitor::DeltaLogWriter writer(log_path);

  core::ReplicaOptions replica_options;
  replica_options.max_epoch_age_s = max_epoch_age;
  replica_options.promote_after_s = promote_after;
  replica_options.refresh_threads = refresh_threads;
  core::FollowerBroker follower(*follower_allocator, log_path, profile,
                                replica_options, broker_policy);

  const double tick_s = 5.0;
  const double end_time = sim.now() + drill_seconds;
  bool leader_alive = true;
  long parity_checks = 0;
  long mismatches = 0;
  long refused = 0;
  long follower_decides = 0;
  long decides_after_promotion = 0;
  std::unique_ptr<monitor::DeltaLogWriter> takeover_writer;
  double now = sim.now();
  while (sim.now() < end_time) {
    sim.run_until(std::min(end_time, sim.now() + tick_s));
    now = sim.now();
    telemetry_now.store(now, std::memory_order_relaxed);

    std::optional<core::BrokerDecision> leader_decision;
    std::uint64_t leader_version = 0;
    if (leader_alive) {
      auto tick_snapshot = std::make_shared<const monitor::ClusterSnapshot>(
          monitor.snapshot());
      const monitor::SnapshotDelta delta = monitor.store().drain_delta();
      if (*kill_pending) {
        // The leader dies mid-compaction: the chaos hook armed a torn
        // write, so this full-frame rewrite attempt is truncated before
        // the rename and the log keeps only the pre-kill frames.
        (void)writer.write_full(*tick_snapshot);
        leader_alive = false;
        std::cerr << "drill: leader died at t=" << now
                  << " (in-flight compaction frame torn)\n";
      } else {
        writer.append(*tick_snapshot, delta);
        leader.refresh_epoch(tick_snapshot, delta, profile);
        leader_decision = leader.decide(leader.pin_epoch(), request);
        leader_version = tick_snapshot->version;
      }
    } else if (follower.role() == core::ReplicaStatus::Role::kLeader) {
      // The promoted follower is the new leader: it takes over the append
      // side of the same log (and keeps tailing its own appends below).
      auto tick_snapshot = std::make_shared<const monitor::ClusterSnapshot>(
          monitor.snapshot());
      const monitor::SnapshotDelta delta = monitor.store().drain_delta();
      takeover_writer->append(*tick_snapshot, delta);
    }

    follower.poll_once(now);
    const double silence = follower.seconds_since_progress(now);
    if (follower.maybe_promote(now)) {
      takeover_writer = std::make_unique<monitor::DeltaLogWriter>(log_path);
      std::cerr << "drill: follower promoted at t=" << now << " after "
                << silence << " s of log silence\n";
    }
    if (follower.have_state()) {
      const core::BrokerDecision decision = follower.decide(request, now);
      ++follower_decides;
      if (decision.reason.rfind("replica", 0) == 0) ++refused;
      if (follower.role() == core::ReplicaStatus::Role::kLeader) {
        ++decides_after_promotion;
      }
      if (leader_decision.has_value() &&
          follower.status(now).state_version == leader_version) {
        ++parity_checks;
        if (!decisions_equal(*leader_decision, decision)) ++mismatches;
      }
    }
  }

  const core::ReplicaStatus status = follower.status(now);
  bool log_ok = false;
  std::uint64_t replayed_version = 0;
  try {
    // The promoted follower healed the torn tail and kept appending: the
    // log on disk must replay cleanly to the follower's final state.
    replayed_version = monitor::replay_delta_log(log_path).version;
    log_ok = replayed_version == status.state_version;
  } catch (const util::CheckError& error) {
    std::cerr << "drill: final log replay failed: " << error.what() << "\n";
  }

  const bool ok = status.promotions == 1 && parity_checks > 0 &&
                  mismatches == 0 && refused == 0 &&
                  decides_after_promotion > 0 && log_ok &&
                  !harness.engine().fired().empty();
  std::fprintf(
      stderr,
      "failover drill: %ld parity check(s), %ld mismatch(es), %ld follower "
      "decide(s) (%ld after promotion, %ld replica-refused), %d "
      "promotion(s), %ld frame(s) ingested, log replay %s (version %llu vs "
      "replica %llu) -> %s\n",
      parity_checks, mismatches, follower_decides, decides_after_promotion,
      refused, status.promotions, status.frames_ingested,
      log_ok ? "ok" : "FAILED",
      static_cast<unsigned long long>(replayed_version),
      static_cast<unsigned long long>(status.state_version),
      ok ? "PASS" : "FAIL");
  return ok ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser(
      "nlarm_broker: network- and load-aware node allocation for one MPI "
      "job on a (simulated) shared cluster.",
      {{"procs", "total MPI processes (default 32)"},
       {"ppn", "processes per node; 0 derives from Eq. 3 (default 4)"},
       {"alpha", "compute weight; beta = 1 - alpha (default 0.3)"},
       {"beta", "network weight (overrides alpha if given)"},
       {"policy",
        "network-load-aware|hierarchical|load-aware|sequential|random "
        "(default network-load-aware)"},
       {"allocator",
        "flat|hierarchical epoch serving path (default flat); hierarchical "
        "keeps tiled pair state and decides via the two-phase hot path"},
       {"block-size",
        "tiled mode: fixed nodes per block; 0 groups by switch (default 0)"},
       {"pair-sample",
        "--policy hierarchical: sampled pairs per group pair; 0 = exact "
        "tile aggregation (default 4)"},
       {"two-phase-min-nodes",
        "tiled mode: prune blocks only at or above this many usable nodes; "
        "0 always prunes (default 0)"},
       {"format", "hostfile|openmpi|srun|nodelist (default hostfile)"},
       {"cluster", "cluster spec string (default: the paper's testbed)"},
       {"scenario", "quiet|shared_lab|hotspot|heavy (default shared_lab)"},
       {"seed", "simulation seed (default 2020)"},
       {"warmup", "simulated warm-up seconds before deciding (default 1500)"},
       {"max-load", "broker wait threshold, load per core (default 0.5)"},
       {"explain", "print the decision rationale"},
       {"topology-conf", "also print SLURM topology.conf"},
       {"snapshot", "decide offline from a saved snapshot file"},
       {"dump-snapshot", "save the monitored snapshot to a file and exit"},
       {"snapshot-format",
        "text|binary artifact format for --dump-snapshot (default text; "
        "loading auto-detects either)"},
       {"metrics-out", "write Prometheus text exposition to this file"},
       {"audit-out", "append one decision-audit JSON line to this file"},
       {"trace-out", "write the span-tracer ring as JSONL to this file"},
       {"telemetry-port",
        "serve live telemetry over HTTP on this port (/metrics /healthz "
        "/readyz /spans /epoch); 0 picks an ephemeral port"},
       {"telemetry-port-file",
        "write the bound telemetry port to this file (for scripts using "
        "--telemetry-port 0)"},
       {"telemetry-hold",
        "keep the telemetry server up this many wall seconds after the "
        "work finishes (default 0)"},
       {"metrics-jsonl",
        "append one JSONL metrics frame per --metrics-interval to this "
        "file (live time series; .1 rotation via --metrics-rotate-bytes)"},
       {"metrics-interval",
        "wall seconds between JSONL metrics frames (default 1)"},
       {"metrics-rotate-bytes",
        "rotate the JSONL metrics file above this size; 0 never (default 0)"},
       {"serve-threads",
        "serve decisions concurrently from a published epoch on this many "
        "threads, print throughput, and exit"},
       {"serve-requests", "total decisions to serve in serve mode "
                          "(default 10000)"},
       {"refresh-threads",
        "threads for epoch refreshes (full rebuilds, delta applies) and for "
        "the candidate generation of epoch-path decides over 192 or more "
        "usable nodes; 1 = serial (default). Published epochs and decisions "
        "are bit-identical at any count; followers also use this for "
        "replicated rebuilds and their decides"},
       {"serve-shards",
        "route serve mode through the sharded admission front end with this "
        "many shards (0 = direct decide(pin) per thread)"},
       {"decision-cache",
        "1|0: serve-shard decision cache on/off (default 1; only with "
        "--serve-shards)"},
       {"chaos-spec",
        "fault-injection schedule (see sim/chaos.h), e.g. "
        "\"seed=7; stall:nodestate:0.1@30+120; tear:snapshot@60\"; runs the "
        "chaos loop instead of a single decision"},
       {"chaos-seconds",
        "simulated seconds to run the chaos loop (default 300)"},
       {"role",
        "leader|follower replication role: leader runs the chaos loop, "
        "appends one delta-log frame per tick to --delta-log and dies when "
        "kill:leader fires; follower tails --follow read-only, promotes "
        "itself after --promote-after seconds of log silence, and serves "
        "one decision"},
       {"delta-log",
        "leader mode / failover drill: replicate state through this delta "
        "append-log file"},
       {"follow",
        "follower mode: tail this delta log (defaults to --delta-log)"},
       {"promote-after",
        "follower/drill: promote once the log has been silent this many "
        "seconds (default 15)"},
       {"follow-seconds",
        "follower mode: wall seconds to keep tailing before serving "
        "(default 30; a promotion serves immediately)"},
       {"failover-drill",
        "run the in-process leader-failover drill — kill:leader chaos, "
        "follower promotion from the last-good compaction frame, per-epoch "
        "decision parity — and exit 0/3"},
       {"sparse-probes",
        "pair daemons probe one tournament round (n/2 disjoint pairs, O(V) "
        "traffic) per period and reconstruct stale pairs from per-link "
        "topology estimates instead of walking all O(V^2) pairs"},
       {"staleness-budget",
        "quarantine nodes whose record is older than this many seconds in "
        "chaos mode (default 30)"},
       {"max-epoch-age",
        "refuse decisions once even the last-good epoch is this many "
        "seconds stale (default 120)"},
       {"log-level", "debug|info|warn|error|off (default warn)"}});
  if (!parser.parse(argc, argv)) return 0;

  util::set_log_level(
      util::parse_log_level(parser.get_string("log-level", "warn")));

  // Register every catalog series up front so the live /metrics endpoint
  // (and any exposition dump) is complete from the first scrape, not just
  // for code paths that happened to run.
  obs::metrics::register_all();

  const std::string role = parser.get_string("role", "");
  if (!role.empty() && role != "leader" && role != "follower") {
    std::cerr << "unknown --role '" << role << "' (leader|follower)\n";
    return 1;
  }
  const std::string delta_log_path = parser.get_string("delta-log", "");
  if (role == "leader" && delta_log_path.empty()) {
    std::cerr << "--role leader needs --delta-log <file> to replicate into\n";
    return 1;
  }

  exp::Testbed::Options options;
  options.seed = static_cast<std::uint64_t>(parser.get_long("seed", 2020));
  options.scenario = workload::parse_scenario_kind(
      parser.get_string("scenario", "shared_lab"));
  options.warmup_seconds = parser.get_double("warmup", 1500.0);
  options.monitor.sparse_probes = parser.get_bool("sparse-probes");
  const std::string cluster_spec = parser.get_string("cluster", "");
  if (!cluster_spec.empty()) {
    // Translate the spec into factory options via a spec-built cluster: the
    // testbed factory only knows the two-kind layout, so for a custom spec
    // we rebuild the whole world around it below.
  }

  // Custom specs need their own wiring; the Testbed covers the default.
  std::unique_ptr<exp::Testbed> testbed;
  std::unique_ptr<cluster::Cluster> custom_cluster;
  std::unique_ptr<net::NetworkModel> custom_network;
  std::unique_ptr<sim::Simulation> custom_sim;
  std::unique_ptr<workload::Scenario> custom_scenario;
  std::unique_ptr<monitor::ResourceMonitor> custom_monitor;
  net::FlowSet custom_flows;

  std::string chaos_text = parser.get_string("chaos-spec", "");
  // A leader without an explicit schedule still has to die: the role exists
  // to exercise follower promotion from the other process.
  if ((role == "leader" || parser.get_bool("failover-drill")) &&
      chaos_text.empty()) {
    chaos_text = "seed=11; kill:leader@40";
  }
  sim::ChaosSpec chaos_spec;
  if (!chaos_text.empty()) {
    try {
      chaos_spec = sim::ChaosSpec::parse(chaos_text);
    } catch (const util::CheckError& error) {
      std::cerr << "bad --chaos-spec: " << error.what() << "\n";
      return 1;
    }
    if (parser.has("snapshot")) {
      std::cerr << "--chaos-spec needs a live simulation; it cannot run "
                   "against a saved --snapshot file\n";
      return 1;
    }
  }

  monitor::ClusterSnapshot snapshot;
  const std::string snapshot_path = parser.get_string("snapshot", "");
  if (!snapshot_path.empty()) {
    // Offline decision from a dumped snapshot — no simulation at all.
    try {
      snapshot = monitor::load_snapshot_file(snapshot_path);
    } catch (const util::CheckError& error) {
      std::cerr << "cannot load snapshot '" << snapshot_path
                << "': " << error.what() << "\n";
      return 1;
    }
  } else if (role == "follower") {
    // No simulated world: the replicated log is the follower's only input.
    // `snapshot` stays empty; nothing below the follower block reads it.
  } else if (cluster_spec.empty()) {
    testbed = exp::Testbed::make(options);
    snapshot = testbed->snapshot();
  } else {
    custom_cluster = std::make_unique<cluster::Cluster>(
        cluster::make_cluster(cluster::parse_cluster_spec(cluster_spec)));
    custom_network = std::make_unique<net::NetworkModel>(*custom_cluster,
                                                         custom_flows);
    custom_sim = std::make_unique<sim::Simulation>(options.seed);
    workload::ScenarioOptions scenario_options;
    scenario_options.kind = options.scenario;
    scenario_options.seed = options.seed ^ 0x5ce9a210ULL;
    custom_scenario = std::make_unique<workload::Scenario>(
        *custom_cluster, custom_flows, *custom_network, scenario_options);
    custom_scenario->attach(*custom_sim);
    custom_monitor = std::make_unique<monitor::ResourceMonitor>(
        *custom_cluster, *custom_network, *custom_sim, options.monitor);
    custom_monitor->start();
    custom_sim->run_until(options.warmup_seconds);
    snapshot = custom_monitor->snapshot();
  }

  const std::string dump_path = parser.get_string("dump-snapshot", "");
  const monitor::SnapshotFormat dump_format = monitor::parse_snapshot_format(
      parser.get_string("snapshot-format", "text"));
  if (!dump_path.empty() && chaos_text.empty()) {
    if (monitor::save_snapshot_file(dump_path, snapshot, dump_format)) {
      std::cerr << "snapshot written to " << dump_path << "\n";
      return 0;
    }
    std::cerr << "snapshot save to " << dump_path << " failed\n";
    return 1;
  }

  core::AllocationRequest request;
  request.nprocs = static_cast<int>(parser.get_long("procs", 32));
  request.ppn = static_cast<int>(parser.get_long("ppn", 4));
  double alpha = parser.get_double("alpha", 0.3);
  if (parser.has("beta")) alpha = 1.0 - parser.get_double("beta", 0.7);
  request.job = core::JobWeights{alpha, 1.0 - alpha};
  try {
    request.validate();
  } catch (const util::CheckError& error) {
    std::cerr << "bad request: " << error.what() << "\n";
    return 1;
  }

  // Hierarchical options, read by both --policy hierarchical (the classic
  // allocator) and --allocator hierarchical (the epoch serving path).
  core::HierarchicalOptions hier_options;
  hier_options.pair_sample =
      static_cast<int>(parser.get_long("pair-sample", 4));
  hier_options.two_phase_min_nodes = static_cast<std::size_t>(
      parser.get_long("two-phase-min-nodes", 0));
  hier_options.block_size =
      static_cast<std::size_t>(parser.get_long("block-size", 0));
  try {
    hier_options.validate();
  } catch (const util::CheckError& error) {
    std::cerr << "bad hierarchical options: " << error.what() << "\n";
    return 1;
  }

  // Pick the policy.
  const std::string policy_name =
      parser.get_string("policy", "network-load-aware");
  const std::unique_ptr<core::Allocator> allocator =
      make_policy_allocator(policy_name, options.seed, hier_options);
  if (allocator == nullptr) {
    std::cerr << "unknown --policy '" << policy_name << "'\n";
    return 1;
  }

  core::BrokerPolicy broker_policy;
  broker_policy.max_load_per_core = parser.get_double("max-load", 0.5);
  core::ResourceBroker broker(*allocator, broker_policy);
  obs::AuditLog audit_log;
  broker.set_audit_log(&audit_log);

  const int refresh_threads =
      static_cast<int>(parser.get_long("refresh-threads", 1));
  if (refresh_threads < 1) {
    std::cerr << "--refresh-threads must be >= 1\n";
    return 1;
  }
  if (refresh_threads > 1) broker.set_refresh_threads(refresh_threads);

  // Serving-path selection, orthogonal to --policy (which picks the classic
  // one-shot allocator): hierarchical keeps tiled pair state in the epoch
  // builder and routes decide() through allocate_two_phase.
  const std::string allocator_mode = parser.get_string("allocator", "flat");
  if (allocator_mode == "hierarchical") {
    core::TilingOptions tiling;
    tiling.block_size = hier_options.block_size;
    broker.set_hierarchy(hier_options, tiling);
  } else if (allocator_mode != "flat") {
    std::cerr << "unknown --allocator '" << allocator_mode << "'\n";
    return 1;
  }

  const std::string metrics_path = parser.get_string("metrics-out", "");
  const std::string audit_path = parser.get_string("audit-out", "");
  const std::string trace_path = parser.get_string("trace-out", "");

  // --- live telemetry plane (obs/telemetry_server.h) ---
  // The epoch provider pins the broker's current epoch (thread-safe, lock-
  // free fast path) and ages it against `telemetry_now`, which the driving
  // loop keeps current on whichever clock it runs (sim time in chaos mode,
  // snapshot time otherwise).
  const double max_epoch_age = parser.get_double("max-epoch-age", 120.0);
  auto telemetry_now = std::make_shared<std::atomic<double>>(snapshot.time);
  // Follower mode publishes its replica through here so /readyz reflects
  // replication health (the epoch age becomes the replication lag).
  std::atomic<core::FollowerBroker*> follower_ptr{nullptr};
  obs::TelemetryServer::EpochProvider epoch_provider =
      [&broker, telemetry_now, max_epoch_age, &follower_ptr]() {
        if (core::FollowerBroker* replica =
                follower_ptr.load(std::memory_order_acquire)) {
          obs::EpochStatus replica_status = replica->epoch_status(
              telemetry_now->load(std::memory_order_relaxed));
          obs::metrics::epoch_staleness_burn_ratio().set(
              replica_status.staleness_burn());
          return replica_status;
        }
        obs::EpochStatus status;
        const core::EpochPin pin = broker.pin_epoch();
        if (!pin.valid()) return status;
        const core::PreparedSnapshot& prepared = *pin.prepared;
        status.published = true;
        status.epoch = prepared.epoch;
        status.age_seconds =
            std::max(0.0, telemetry_now->load(std::memory_order_relaxed) -
                              prepared.time);
        status.max_age_seconds = max_epoch_age;
        status.usable_nodes = prepared.usable.size();
        status.quarantined = prepared.quarantined;
        status.pair_fallbacks = prepared.pair_fallbacks;
        status.degraded = prepared.degraded;
        status.tiled_state_bytes =
            prepared.tiles != nullptr ? prepared.tiles->memory_bytes() : 0;
        obs::metrics::epoch_staleness_burn_ratio().set(
            status.staleness_burn());
        return status;
      };
  std::unique_ptr<obs::TelemetryServer> telemetry;
  if (parser.has("telemetry-port")) {
    obs::TelemetryOptions telemetry_options;
    telemetry_options.port =
        static_cast<int>(parser.get_long("telemetry-port", 0));
    telemetry = std::make_unique<obs::TelemetryServer>(telemetry_options,
                                                       epoch_provider);
    if (!telemetry->start()) {
      std::cerr << "cannot start telemetry server on port "
                << telemetry_options.port << "\n";
      return 1;
    }
    std::cerr << "telemetry: http://127.0.0.1:" << telemetry->port()
              << " (/metrics /healthz /readyz /spans /epoch)\n";
    const std::string port_file =
        parser.get_string("telemetry-port-file", "");
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << telemetry->port() << "\n";
    }
  }
  std::unique_ptr<obs::MetricsFlusher> flusher;
  const std::string metrics_jsonl = parser.get_string("metrics-jsonl", "");
  if (!metrics_jsonl.empty()) {
    obs::FlusherOptions flusher_options;
    flusher_options.path = metrics_jsonl;
    flusher_options.interval_s = parser.get_double("metrics-interval", 1.0);
    flusher_options.rotate_bytes = static_cast<std::uint64_t>(
        parser.get_long("metrics-rotate-bytes", 0));
    flusher = std::make_unique<obs::MetricsFlusher>(flusher_options);
    if (!flusher->start()) {
      std::cerr << "cannot open --metrics-jsonl " << metrics_jsonl << "\n";
      return 1;
    }
  }
  // Keeps the exposition endpoints scrapeable after the work completes
  // (CI smoke and operators attach nlarm_top to short runs this way).
  const double telemetry_hold = parser.get_double("telemetry-hold", 0.0);
  const auto hold_telemetry = [&telemetry, telemetry_hold] {
    if (telemetry != nullptr && telemetry_hold > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(telemetry_hold));
    }
  };

  // Follower mode: no simulation — tail a leader's delta log, serve a
  // read-only decision, and promote if the log goes silent long enough.
  if (role == "follower") {
    const std::string follow_override = parser.get_string("follow", "");
    const std::string follow_path =
        follow_override.empty() ? delta_log_path : follow_override;
    if (follow_path.empty()) {
      std::cerr << "--role follower needs --follow <log> "
                   "(or --delta-log)\n";
      return 1;
    }
    core::ReplicaOptions replica_options;
    replica_options.max_epoch_age_s = max_epoch_age;
    replica_options.promote_after_s =
        parser.get_double("promote-after", 15.0);
    replica_options.refresh_threads = refresh_threads;
    core::FollowerBroker follower(*allocator, follow_path,
                                  core::RequestProfile::of(request),
                                  replica_options, broker_policy);
    follower.set_audit_log(&audit_log);
    follower_ptr.store(&follower, std::memory_order_release);

    const double run_seconds = parser.get_double("follow-seconds", 30.0);
    const auto wall_start = std::chrono::steady_clock::now();
    const auto wall_elapsed = [&wall_start] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           wall_start)
          .count();
    };
    // The log carries the leader's clock (sim time); pin it on the first
    // ingested frame and advance with wall time from there, so lag,
    // fencing and the promotion threshold all read in log seconds.
    bool have_base = false;
    double base_wall = 0.0;
    double base_state_time = 0.0;
    double now = 0.0;
    while (wall_elapsed() < run_seconds) {
      const double wall = wall_elapsed();
      now = have_base ? base_state_time + (wall - base_wall) : 0.0;
      follower.poll_once(now);
      if (!have_base && follower.have_state()) {
        have_base = true;
        base_wall = wall;
        base_state_time = follower.status(now).state_time;
        now = base_state_time;
      }
      telemetry_now->store(now, std::memory_order_relaxed);
      const double silence = follower.seconds_since_progress(now);
      if (follower.maybe_promote(now)) {
        std::cerr << "follower: promoted to leader after " << silence
                  << " s of log silence\n";
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    const core::BrokerDecision served = follower.decide(request, now);
    const core::ReplicaStatus replica_status = follower.status(now);
    std::fprintf(
        stderr,
        "follower: role=%s frames=%ld epochs=%ld version=%llu lag=%.1f s "
        "fenced=%ld promotions=%d decision=%s\n",
        replica_status.role == core::ReplicaStatus::Role::kLeader
            ? "leader"
            : "follower",
        replica_status.frames_ingested, replica_status.epochs_published,
        static_cast<unsigned long long>(replica_status.state_version),
        replica_status.lag_seconds, replica_status.fenced_decides,
        replica_status.promotions,
        served.action == core::BrokerDecision::Action::kAllocate
            ? "allocate"
            : "wait");
    if (served.action == core::BrokerDecision::Action::kWait) {
      std::cerr << "follower decision reason: " << served.reason << "\n";
    }
    write_observability_outputs(metrics_path, audit_path, trace_path,
                                audit_log);
    hold_telemetry();
    // Stop the server before the stack-allocated follower goes away.
    telemetry.reset();
    follower_ptr.store(nullptr, std::memory_order_release);
    const bool replica_refused = served.reason.rfind("replica", 0) == 0;
    return (!replica_status.have_state || replica_refused) ? 3 : 0;
  }

  // In-process failover drill (see run_failover_drill above).
  if (parser.get_bool("failover-drill")) {
    if (!snapshot_path.empty()) {
      std::cerr << "--failover-drill needs a live simulation\n";
      return 1;
    }
    const bool has_kill_leader = std::any_of(
        chaos_spec.events.begin(), chaos_spec.events.end(),
        [](const sim::ChaosEvent& event) {
          return event.kind == sim::ChaosEvent::Kind::kKillLeader;
        });
    if (!has_kill_leader) {
      std::cerr << "--failover-drill needs a kill:leader@<t> event in "
                   "--chaos-spec\n";
      return 1;
    }
    sim::Simulation& sim = testbed ? testbed->sim() : *custom_sim;
    cluster::Cluster& drill_cluster =
        testbed ? testbed->cluster() : *custom_cluster;
    monitor::ResourceMonitor& drill_monitor =
        testbed ? testbed->monitor() : *custom_monitor;
    exp::ChaosHarness harness(chaos_spec, sim, drill_cluster, drill_monitor);
    bool kill_pending = false;
    harness.on_kill_leader([&kill_pending] { kill_pending = true; });
    harness.arm();
    const int code = run_failover_drill(
        sim, drill_monitor, harness, &kill_pending, policy_name, options.seed,
        hier_options, broker_policy, request, delta_log_path,
        parser.get_double("chaos-seconds", 150.0),
        parser.get_double("promote-after", 15.0), max_epoch_age,
        refresh_threads, *telemetry_now);
    write_observability_outputs(metrics_path, audit_path, trace_path,
                                audit_log);
    hold_telemetry();
    return code;
  }

  // Chaos mode: arm the fault schedule, then keep the monitor→epoch→decide
  // pipeline running under it. The degradation policy quarantines nodes
  // with over-budget records and falls back to the last-good epoch, so a
  // well-behaved run completes every decide without a refusal or a throw.
  if (!chaos_text.empty()) {
    sim::Simulation& sim = testbed ? testbed->sim() : *custom_sim;
    cluster::Cluster& chaos_cluster =
        testbed ? testbed->cluster() : *custom_cluster;
    monitor::ResourceMonitor& chaos_monitor =
        testbed ? testbed->monitor() : *custom_monitor;

    core::DegradationPolicy degradation;
    degradation.node_staleness_budget_s =
        parser.get_double("staleness-budget", 30.0);
    degradation.node_readmit_s = degradation.node_staleness_budget_s / 2.0;
    degradation.max_epoch_age_s = parser.get_double("max-epoch-age", 120.0);
    broker.set_degradation(degradation);

    exp::ChaosHarness harness(chaos_spec, sim, chaos_cluster, chaos_monitor);
    // Leader role: replicate every tick into the delta log so followers
    // (other processes) can tail it, and die when kill:leader fires.
    std::unique_ptr<monitor::DeltaLogWriter> delta_writer;
    if (!delta_log_path.empty()) {
      std::remove(delta_log_path.c_str());
      delta_writer = std::make_unique<monitor::DeltaLogWriter>(
          delta_log_path);
    }
    bool leader_killed = false;
    harness.on_kill_leader([&leader_killed] { leader_killed = true; });
    harness.arm();

    const double chaos_seconds = parser.get_double("chaos-seconds", 300.0);
    const double tick_s = 5.0;
    const core::RequestProfile profile = core::RequestProfile::of(request);
    const double end_time = sim.now() + chaos_seconds;
    long decides = 0;
    long allocates = 0;
    long fallbacks = 0;
    long failures = 0;
    core::EpochPin pin;
    while (sim.now() < end_time) {
      sim.run_until(std::min(end_time, sim.now() + tick_s));
      const double now = sim.now() + harness.clock_skew();
      telemetry_now->store(now, std::memory_order_relaxed);
      auto tick_snapshot = std::make_shared<const monitor::ClusterSnapshot>(
          chaos_monitor.snapshot());
      const monitor::SnapshotDelta delta =
          chaos_monitor.store().drain_delta();
      if (leader_killed) {
        if (delta_writer != nullptr) {
          // Die mid-compaction: the chaos hook armed a torn write, so this
          // full-frame rewrite is truncated before the rename — followers
          // keep the pre-kill frames and must promote from them.
          (void)delta_writer->write_full(*tick_snapshot);
        }
        std::cerr << "chaos: leader killed at t=" << sim.now()
                  << "; exiting as the dead leader\n";
        break;
      }
      if (delta_writer != nullptr) {
        delta_writer->append(*tick_snapshot, delta);
      }
      const monitor::StalenessView staleness =
          chaos_monitor.store().staleness_view(now);
      broker.refresh_epoch(tick_snapshot, delta, staleness, profile);
      broker.refresh_pin(pin);
      try {
        const core::BrokerDecision served = broker.decide(pin, request);
        ++decides;
        if (served.action == core::BrokerDecision::Action::kAllocate) {
          ++allocates;
        }
      } catch (const util::CheckError& error) {
        ++failures;
        std::cerr << "chaos decide failed: " << error.what() << "\n";
      }
      if (!dump_path.empty()) {
        monitor::save_snapshot_file(dump_path, *tick_snapshot, dump_format);
      }
    }
    fallbacks = broker.fallback_decisions();
    const long refusals = broker.stale_refusals();

    if (!dump_path.empty()) {
      // A torn write must never have replaced a good snapshot: whatever is
      // on disk at the end still parses.
      try {
        monitor::load_snapshot_file(dump_path);
        std::cerr << "final snapshot file " << dump_path
                  << " loads cleanly\n";
      } catch (const util::CheckError& error) {
        ++failures;
        std::cerr << "final snapshot file is corrupt: " << error.what()
                  << "\n";
      }
    }

    std::fprintf(stderr,
                 "chaos run: %zu event(s) fired, %ld decide(s) "
                 "(%ld allocate, %ld last-good fallback, %ld refusal(s), "
                 "%ld failure(s)), %d node(s) quarantined at end\n",
                 harness.engine().fired().size(), decides, allocates,
                 fallbacks, refusals, failures,
                 static_cast<int>(
                     pin.valid() ? pin.prepared->quarantined : 0));
    write_observability_outputs(metrics_path, audit_path, trace_path,
                                audit_log);
    hold_telemetry();
    return (failures > 0 || refusals > 0) ? 3 : 0;
  }

  // Serve mode: publish one epoch from the monitored snapshot and hammer it
  // with concurrent decide() calls — the multi-threaded front-door the
  // epoch machinery exists for, runnable from the command line.
  const int serve_threads =
      static_cast<int>(parser.get_long("serve-threads", 0));
  if (serve_threads > 0) {
    const long serve_requests = parser.get_long("serve-requests", 10000);
    const int serve_shards =
        static_cast<int>(parser.get_long("serve-shards", 0));
    broker.refresh_epoch(
        std::make_shared<const monitor::ClusterSnapshot>(snapshot),
        core::RequestProfile::of(request));
    std::atomic<long> remaining{serve_requests};
    std::atomic<long> allocated{0};
    obs::metrics::serve_threads().set(static_cast<double>(serve_threads));
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> servers;
    servers.reserve(static_cast<std::size_t>(serve_threads));
    std::unique_ptr<core::ServePlane> plane;
    if (serve_shards > 0) {
      // Sharded front end: each serve thread scores (or cache-replays)
      // against the epoch under one shard's lock. Advisory serving like the
      // direct mode — the closed-loop hammer would otherwise drain one
      // epoch's capacity in milliseconds.
      core::ServeOptions serve_options;
      serve_options.shards = serve_shards;
      serve_options.decision_cache = parser.get_long("decision-cache", 1) != 0;
      serve_options.debit_capacity = false;
      plane = std::make_unique<core::ServePlane>(broker, serve_options);
    }
    for (int t = 0; t < serve_threads; ++t) {
      servers.emplace_back([&broker, &request, &remaining, &allocated,
                            &plane] {
        core::EpochPin pin = broker.pin_epoch();
        while (remaining.fetch_sub(1, std::memory_order_relaxed) > 0) {
          obs::metrics::serve_inflight().add(1.0);
          core::BrokerDecision served;
          if (plane != nullptr) {
            served = plane->decide(request);
          } else {
            broker.refresh_pin(pin);
            served = broker.decide(pin, request);
          }
          obs::metrics::serve_inflight().add(-1.0);
          if (served.action == core::BrokerDecision::Action::kAllocate) {
            allocated.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& server : servers) server.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    obs::metrics::serve_threads().set(0.0);
    std::fprintf(stderr,
                 "served %ld decisions (%ld allocate) on %d thread(s) in "
                 "%.3f s -> %.0f decisions/s\n",
                 serve_requests, allocated.load(), serve_threads, seconds,
                 seconds > 0.0 ? static_cast<double>(serve_requests) / seconds
                               : 0.0);
    if (plane != nullptr) {
      plane->stop();
      const core::ServeStats stats = plane->stats();
      const double hit_rate =
          stats.decisions > 0
              ? 100.0 * static_cast<double>(stats.cache_hits) /
                    static_cast<double>(stats.decisions)
              : 0.0;
      std::fprintf(stderr,
                   "serve plane: %d shard(s), cache %llu hit / %llu miss / "
                   "%llu invalidation(s) (%.1f%% hit), %llu coalesced, %llu "
                   "scoring pass(es), simd=%s\n",
                   serve_shards,
                   static_cast<unsigned long long>(stats.cache_hits),
                   static_cast<unsigned long long>(stats.cache_misses),
                   static_cast<unsigned long long>(stats.cache_invalidations),
                   hit_rate,
                   static_cast<unsigned long long>(stats.coalesced),
                   static_cast<unsigned long long>(stats.scoring_passes),
                   core::simd::active_kernel_name());
      plane.reset();
    }
    write_observability_outputs(metrics_path, audit_path, trace_path,
                                audit_log);
    hold_telemetry();
    return 0;
  }

  const core::BrokerDecision decision = broker.decide(snapshot, request);
  write_observability_outputs(metrics_path, audit_path, trace_path,
                              audit_log);
  hold_telemetry();

  if (decision.action == core::BrokerDecision::Action::kWait) {
    std::cerr << "WAIT: " << decision.reason << "\n";
    return 2;  // scripts can retry later
  }

  const std::string format = parser.get_string("format", "hostfile");
  if (format == "hostfile") {
    std::cout << core::to_mpich_machinefile(decision.allocation, snapshot);
  } else if (format == "openmpi") {
    std::cout << core::to_openmpi_hostfile(decision.allocation, snapshot);
  } else if (format == "srun") {
    std::cout << core::to_srun_command(decision.allocation, snapshot,
                                       "<your-binary>")
              << "\n";
  } else if (format == "nodelist") {
    std::cout << core::to_slurm_nodelist(decision.allocation, snapshot)
              << "\n";
  } else {
    std::cerr << "unknown --format '" << format << "'\n";
    return 1;
  }

  if (parser.get_bool("explain")) {
    std::cerr << "\n"
              << core::explain_allocation(
                     snapshot, request, decision.allocation,
                     dynamic_cast<const core::NetworkLoadAwareAllocator*>(
                         allocator.get()));
  }
  if (parser.get_bool("topology-conf")) {
    if (!snapshot_path.empty()) {
      std::cerr << "--topology-conf needs a live cluster (snapshots carry "
                   "no switch tree)\n";
    } else {
      const cluster::Topology& topo = cluster_spec.empty()
                                          ? testbed->cluster().topology()
                                          : custom_cluster->topology();
      std::cerr << "\n" << core::to_slurm_topology_conf(topo, snapshot);
    }
  }
  return 0;
}
