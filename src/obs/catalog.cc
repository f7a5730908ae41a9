#include "obs/catalog.h"

namespace nlarm::obs::metrics {

namespace {
MetricsRegistry& reg() { return MetricsRegistry::global(); }
}  // namespace

#define NLARM_CATALOG_COUNTER(fn, name, help)      \
  Counter& fn() {                                  \
    static Counter& metric = reg().counter(name, help); \
    return metric;                                 \
  }
#define NLARM_CATALOG_GAUGE(fn, name, help)        \
  Gauge& fn() {                                    \
    static Gauge& metric = reg().gauge(name, help); \
    return metric;                                 \
  }
#define NLARM_CATALOG_HISTOGRAM(fn, name, help)    \
  Histogram& fn() {                                \
    static Histogram& metric = reg().histogram(name, help); \
    return metric;                                 \
  }
// Hot-path latency histograms use the fine 1-1.5-2-3-5-7.5 grid: the
// default 1-2-5 grid put the whole ~1.5 ms V=16384 decide in one bucket.
#define NLARM_CATALOG_FINE_HISTOGRAM(fn, name, help)                  \
  Histogram& fn() {                                                   \
    static Histogram& metric =                                        \
        reg().histogram(name, help, fine_latency_seconds_bounds());   \
    return metric;                                                    \
  }

NLARM_CATALOG_COUNTER(alloc_requests, "nlarm_alloc_requests_total",
                      "Allocation requests served by the network-load-aware "
                      "allocator.")
NLARM_CATALOG_COUNTER(alloc_candidates_generated,
                      "nlarm_alloc_candidates_generated_total",
                      "Candidate sub-graphs generated (one per start node "
                      "per request).")
NLARM_CATALOG_COUNTER(alloc_fill_overflows, "nlarm_alloc_fill_overflows_total",
                      "Candidates whose process fill overflowed capacity and "
                      "fell back to round-robin oversubscription.")
NLARM_CATALOG_FINE_HISTOGRAM(alloc_prepare_seconds, "nlarm_alloc_prepare_seconds",
                        "Wall time of the input-preparation stage "
                        "(normalized CL/NL/pc).")
NLARM_CATALOG_FINE_HISTOGRAM(alloc_generate_seconds, "nlarm_alloc_generate_seconds",
                        "Wall time of candidate generation (Algorithm 1 over "
                        "all start nodes).")
NLARM_CATALOG_FINE_HISTOGRAM(alloc_select_seconds, "nlarm_alloc_select_seconds",
                        "Wall time of best-candidate selection "
                        "(Algorithm 2).")
NLARM_CATALOG_FINE_HISTOGRAM(alloc_total_seconds, "nlarm_alloc_total_seconds",
                        "End-to-end wall time of allocate().")

NLARM_CATALOG_COUNTER(prepared_full_rebuilds,
                      "nlarm_prepared_full_rebuilds_total",
                      "Full O(V^2) prepared-state rebuilds (initial builds "
                      "and incremental fallbacks).")
NLARM_CATALOG_COUNTER(prepared_incremental_updates,
                      "nlarm_prepared_incremental_updates_total",
                      "Snapshot deltas applied incrementally to prepared "
                      "state.")
NLARM_CATALOG_COUNTER(prepared_incremental_fallbacks,
                      "nlarm_prepared_incremental_fallbacks_total",
                      "Delta applications that could not prove continuity "
                      "and fell back to a full rebuild.")
NLARM_CATALOG_COUNTER(prepared_nl_materializations,
                      "nlarm_prepared_nl_materializations_total",
                      "Epoch builds that materialized a fresh O(V^2) NL "
                      "matrix.")
NLARM_CATALOG_COUNTER(prepared_nl_reuses, "nlarm_prepared_nl_reuses_total",
                      "Epoch builds that shared the previous NL matrix "
                      "(no pair state changed).")
NLARM_CATALOG_FINE_HISTOGRAM(prepared_update_seconds,
                        "nlarm_prepared_update_seconds",
                        "Wall time of one incremental delta application.")
NLARM_CATALOG_HISTOGRAM(prepared_rebuild_seconds,
                        "nlarm_prepared_rebuild_seconds",
                        "Wall time of one full prepared-state rebuild.")

NLARM_CATALOG_COUNTER(epoch_publishes, "nlarm_epoch_publishes_total",
                      "Prepared epochs published to concurrent readers.")
NLARM_CATALOG_GAUGE(epoch_age_seconds, "nlarm_epoch_age_seconds",
                    "Snapshot-time gap between the last two published "
                    "epochs (how stale the previous epoch had become).")
NLARM_CATALOG_GAUGE(epoch_refresh_lag_seconds,
                    "nlarm_epoch_refresh_lag_seconds",
                    "Wall-clock gap between the last two epoch publishes "
                    "(the refresh loop's actual cadence).")
NLARM_CATALOG_GAUGE(epoch_tiled_state_bytes, "nlarm_epoch_tiled_state_bytes",
                    "Memory footprint of the current epoch's tiled pair "
                    "state (0 when serving the flat path).")
NLARM_CATALOG_GAUGE(epoch_staleness_burn_ratio,
                    "nlarm_epoch_staleness_burn_ratio",
                    "Current epoch age over the max-epoch-age bound; 1.0 "
                    "means the staleness budget is exhausted.")

NLARM_CATALOG_COUNTER(broker_decisions, "nlarm_broker_decisions_total",
                      "Brokered decisions (allocate or wait).")
NLARM_CATALOG_COUNTER(broker_waits, "nlarm_broker_waits_total",
                      "Decisions that recommended waiting.")
NLARM_CATALOG_COUNTER(broker_allocations, "nlarm_broker_allocations_total",
                      "Decisions that allocated nodes.")
NLARM_CATALOG_HISTOGRAM(broker_gate_seconds, "nlarm_broker_gate_seconds",
                        "Wall time of the wait/allocate gate evaluation.")
NLARM_CATALOG_COUNTER(broker_epoch_decisions,
                      "nlarm_broker_epoch_decisions_total",
                      "Decisions served from a published epoch (lock-free "
                      "concurrent path).")
NLARM_CATALOG_COUNTER(broker_batches, "nlarm_broker_batches_total",
                      "Batched admission rounds decided against one epoch.")
NLARM_CATALOG_COUNTER(broker_batch_requests,
                      "nlarm_broker_batch_requests_total",
                      "Requests decided inside batched admission rounds.")
NLARM_CATALOG_COUNTER(broker_fallback_decisions,
                      "nlarm_broker_fallback_decisions_total",
                      "Epoch decisions served from the last-good epoch "
                      "because the current one had no usable nodes.")
NLARM_CATALOG_COUNTER(broker_stale_refusals,
                      "nlarm_broker_stale_refusals_total",
                      "Epoch decisions refused because even the last-good "
                      "epoch exceeded the degradation policy's age bound.")
NLARM_CATALOG_HISTOGRAM(broker_epoch_age_seconds,
                        "nlarm_broker_epoch_age_seconds",
                        "Distribution of snapshot-time gaps between "
                        "consecutive published epochs.")

NLARM_CATALOG_COUNTER(hier_decisions, "nlarm_hier_decisions_total",
                      "Decisions served by the two-phase hierarchical "
                      "allocation path.")
NLARM_CATALOG_COUNTER(hier_pruned_decisions,
                      "nlarm_hier_pruned_decisions_total",
                      "Two-phase decisions where phase 1 actually narrowed "
                      "the node pool (vs covering every block).")
NLARM_CATALOG_COUNTER(hier_blocks_chosen, "nlarm_hier_blocks_chosen_total",
                      "Topology blocks chosen by phase 1 across all "
                      "two-phase decisions.")
NLARM_CATALOG_COUNTER(hier_tiles_materialized,
                      "nlarm_hier_tiles_materialized_total",
                      "Dense pair tiles materialized on demand for phase-2 "
                      "pools.")
NLARM_CATALOG_COUNTER(hier_tile_cache_hits,
                      "nlarm_hier_tile_cache_hits_total",
                      "Phase-2 tile lookups served from the epoch's "
                      "materialized-tile cache.")
NLARM_CATALOG_FINE_HISTOGRAM(hier_phase1_seconds, "nlarm_hier_phase1_seconds",
                        "Wall time of phase 1 (block aggregation and "
                        "group-level Algorithms 1+2).")
NLARM_CATALOG_FINE_HISTOGRAM(hier_phase2_seconds, "nlarm_hier_phase2_seconds",
                        "Wall time of phase 2 (pool assembly plus node-level "
                        "Algorithms 1+2 over the chosen blocks).")

NLARM_CATALOG_GAUGE(degrade_quarantined_nodes,
                    "nlarm_degrade_quarantined_nodes",
                    "Nodes currently quarantined out of candidate "
                    "generation for record staleness.")
NLARM_CATALOG_COUNTER(degrade_quarantine_events,
                      "nlarm_degrade_quarantine_events_total",
                      "Node quarantine entries (record age crossed the "
                      "staleness budget).")
NLARM_CATALOG_COUNTER(degrade_readmissions,
                      "nlarm_degrade_readmissions_total",
                      "Quarantined nodes readmitted after their record "
                      "freshened past the hysteresis threshold.")
NLARM_CATALOG_GAUGE(degrade_pair_fallbacks, "nlarm_degrade_pair_fallbacks",
                    "P2P pairs currently served from the penalized 5-minute "
                    "running mean instead of the stale spot measurement.")
NLARM_CATALOG_COUNTER(degrade_block_quarantine_events,
                      "nlarm_degrade_block_quarantine_events_total",
                      "Nodes overlay-quarantined because their switch "
                      "crossed the block-quarantine fraction.")
NLARM_CATALOG_GAUGE(degrade_block_quarantined_nodes,
                    "nlarm_degrade_block_quarantined_nodes",
                    "Nodes currently quarantined by the block-granularity "
                    "rule on top of their own record state.")

NLARM_CATALOG_COUNTER(jobqueue_backoffs, "nlarm_jobqueue_backoffs_total",
                      "Wait verdicts that put the head job into exponential "
                      "backoff instead of retrying immediately.")

NLARM_CATALOG_COUNTER(telemetry_scrapes, "nlarm_telemetry_scrapes_total",
                      "Successful telemetry-plane scrapes "
                      "(/metrics, /spans, /epoch).")
NLARM_CATALOG_COUNTER(telemetry_scrape_errors,
                      "nlarm_telemetry_scrape_errors_total",
                      "Telemetry requests rejected (bad request line, "
                      "unknown path, or unsupported method).")
NLARM_CATALOG_COUNTER(telemetry_flushes, "nlarm_telemetry_flushes_total",
                      "JSONL time-series frames appended by the metrics "
                      "flusher.")
NLARM_CATALOG_GAUGE(serve_threads, "nlarm_serve_threads",
                    "Serve threads the broker front end is running.")
NLARM_CATALOG_GAUGE(serve_inflight, "nlarm_serve_inflight",
                    "Serve threads currently inside decide() — at "
                    "nlarm_serve_threads the front end is saturated.")
NLARM_CATALOG_GAUGE(delta_log_tail_bytes, "nlarm_delta_log_tail_bytes",
                    "Byte offset of the next unread frame in the followed "
                    ".nlarmd delta append-log (follower lag vs file size).")

NLARM_CATALOG_GAUGE(serve_shards, "nlarm_serve_shards",
                    "Serve shards (one lock, epoch pin and decision cache "
                    "each) the sharded admission front end is running.")
NLARM_CATALOG_COUNTER(serve_plane_decisions,
                      "nlarm_serve_plane_decisions_total",
                      "Admission decisions served through the sharded "
                      "front end.")
NLARM_CATALOG_COUNTER(serve_cache_hits, "nlarm_serve_cache_hits_total",
                      "Admission decisions replayed from the decision cache "
                      "after a successful capacity re-proof.")
NLARM_CATALOG_COUNTER(serve_cache_misses, "nlarm_serve_cache_misses_total",
                      "Admission decisions that needed a fresh scoring pass "
                      "(no cache entry for the epoch + job shape).")
NLARM_CATALOG_COUNTER(serve_cache_invalidations,
                      "nlarm_serve_cache_invalidations_total",
                      "Cached placements invalidated because a chosen node "
                      "no longer had capacity headroom.")
NLARM_CATALOG_COUNTER(serve_coalesced, "nlarm_serve_coalesced_total",
                      "Cache replays of a same-shape scoring pass that ran "
                      "while the request queued on its shard's lock.")
NLARM_CATALOG_COUNTER(serve_scoring_passes,
                      "nlarm_serve_scoring_passes_total",
                      "Fresh Algorithm-1/2 scoring passes run by the serve "
                      "plane.")

NLARM_CATALOG_GAUGE(simd_kernel, "nlarm_simd_kernel",
                    "Active addition-cost scoring kernel: 0 scalar, 1 AVX2, "
                    "2 NEON (SIMD only after the bit-exactness probe "
                    "passes).")

QuantileSketch& serve_decide_sketch() {
  static QuantileSketch* sketch = new QuantileSketch();
  return *sketch;
}
QuantileSketch& admission_wait_sketch() {
  static QuantileSketch* sketch = new QuantileSketch();
  return *sketch;
}
QuantileSketch& epoch_refresh_sketch() {
  static QuantileSketch* sketch = new QuantileSketch();
  return *sketch;
}
QuantileSketch& refresh_rebuild_sketch() {
  static QuantileSketch* sketch = new QuantileSketch();
  return *sketch;
}
QuantileSketch& refresh_apply_sketch() {
  static QuantileSketch* sketch = new QuantileSketch();
  return *sketch;
}

NLARM_CATALOG_GAUGE(refresh_workers, "nlarm_refresh_workers",
                    "Worker threads attached to the broker's epoch-refresh "
                    "pool (0 = serial refresh).")
NLARM_CATALOG_COUNTER(refresh_parallel_rebuilds,
                      "nlarm_refresh_parallel_rebuilds_total",
                      "Full prepared-state rebuilds that ran on the "
                      "refresh pool.")
NLARM_CATALOG_COUNTER(refresh_parallel_applies,
                      "nlarm_refresh_parallel_applies_total",
                      "Sharded delta applications that ran on the refresh "
                      "pool.")
NLARM_CATALOG_COUNTER(refresh_decode_ahead_frames,
                      "nlarm_refresh_decode_ahead_frames_total",
                      "Delta-log frames decoded by the decode-ahead thread "
                      "while the previous frame was being applied.")
NLARM_CATALOG_GAUGE(refresh_decode_ahead_depth,
                    "nlarm_refresh_decode_ahead_depth",
                    "Frames currently sitting decoded-but-unapplied in the "
                    "delta-log decode-ahead buffer.")
NLARM_CATALOG_GAUGE(refresh_rebuild_p50_seconds,
                    "nlarm_refresh_rebuild_p50_seconds",
                    "Sketch-estimated p50 of the full-rebuild refresh "
                    "stage.")
NLARM_CATALOG_GAUGE(refresh_rebuild_p95_seconds,
                    "nlarm_refresh_rebuild_p95_seconds",
                    "Sketch-estimated p95 of the full-rebuild refresh "
                    "stage.")
NLARM_CATALOG_GAUGE(refresh_apply_p50_seconds,
                    "nlarm_refresh_apply_p50_seconds",
                    "Sketch-estimated p50 of the delta-apply refresh "
                    "stage.")
NLARM_CATALOG_GAUGE(refresh_apply_p95_seconds,
                    "nlarm_refresh_apply_p95_seconds",
                    "Sketch-estimated p95 of the delta-apply refresh "
                    "stage.")

NLARM_CATALOG_GAUGE(serve_decide_p50_seconds, "nlarm_serve_decide_p50_seconds",
                    "Sketch-estimated p50 of end-to-end decide() latency.")
NLARM_CATALOG_GAUGE(serve_decide_p95_seconds, "nlarm_serve_decide_p95_seconds",
                    "Sketch-estimated p95 of end-to-end decide() latency.")
NLARM_CATALOG_GAUGE(serve_decide_p99_seconds, "nlarm_serve_decide_p99_seconds",
                    "Sketch-estimated p99 of end-to-end decide() latency.")
NLARM_CATALOG_GAUGE(serve_decide_p999_seconds,
                    "nlarm_serve_decide_p999_seconds",
                    "Sketch-estimated p999 of end-to-end decide() latency.")
NLARM_CATALOG_GAUGE(admission_wait_p50_seconds,
                    "nlarm_admission_wait_p50_seconds",
                    "Sketch-estimated p50 of in-batch admission wait.")
NLARM_CATALOG_GAUGE(admission_wait_p99_seconds,
                    "nlarm_admission_wait_p99_seconds",
                    "Sketch-estimated p99 of in-batch admission wait.")
NLARM_CATALOG_GAUGE(epoch_refresh_p50_seconds,
                    "nlarm_epoch_refresh_p50_seconds",
                    "Sketch-estimated p50 of the wall gap between epoch "
                    "publishes.")
NLARM_CATALOG_GAUGE(epoch_refresh_p99_seconds,
                    "nlarm_epoch_refresh_p99_seconds",
                    "Sketch-estimated p99 of the wall gap between epoch "
                    "publishes.")

void export_quantile_gauges() {
  const QuantileSketch& decide = serve_decide_sketch();
  serve_decide_p50_seconds().set(decide.quantile(0.50));
  serve_decide_p95_seconds().set(decide.quantile(0.95));
  serve_decide_p99_seconds().set(decide.quantile(0.99));
  serve_decide_p999_seconds().set(decide.quantile(0.999));
  const QuantileSketch& wait = admission_wait_sketch();
  admission_wait_p50_seconds().set(wait.quantile(0.50));
  admission_wait_p99_seconds().set(wait.quantile(0.99));
  const QuantileSketch& refresh = epoch_refresh_sketch();
  epoch_refresh_p50_seconds().set(refresh.quantile(0.50));
  epoch_refresh_p99_seconds().set(refresh.quantile(0.99));
  const QuantileSketch& rebuild = refresh_rebuild_sketch();
  refresh_rebuild_p50_seconds().set(rebuild.quantile(0.50));
  refresh_rebuild_p95_seconds().set(rebuild.quantile(0.95));
  const QuantileSketch& apply = refresh_apply_sketch();
  refresh_apply_p50_seconds().set(apply.quantile(0.50));
  refresh_apply_p95_seconds().set(apply.quantile(0.95));
}

NLARM_CATALOG_GAUGE(threadpool_threads, "nlarm_threadpool_threads",
                    "Worker threads in the most recently constructed "
                    "util::ThreadPool.")
NLARM_CATALOG_COUNTER(threadpool_batches, "nlarm_threadpool_batches_total",
                      "parallel_for batches dispatched to pool workers.")
NLARM_CATALOG_COUNTER(threadpool_tasks, "nlarm_threadpool_tasks_total",
                      "Indices executed across pooled parallel_for batches.")
NLARM_CATALOG_HISTOGRAM(threadpool_submit_wait_seconds,
                        "nlarm_threadpool_submit_wait_seconds",
                        "Time a parallel_for caller spent enqueueing its "
                        "job (brief jobs-list lock contention; concurrent "
                        "callers no longer serialize whole calls).")
NLARM_CATALOG_HISTOGRAM(threadpool_batch_seconds,
                        "nlarm_threadpool_batch_seconds",
                        "Wall time of one pooled parallel_for batch, submit "
                        "to last index done.")

NLARM_CATALOG_COUNTER(monitor_daemon_ticks, "nlarm_monitor_daemon_ticks_total",
                      "Periodic ticks executed across all monitoring "
                      "daemons.")
NLARM_CATALOG_COUNTER(monitor_node_samples,
                      "nlarm_monitor_node_samples_total",
                      "Node-state records written by NodeStateD daemons.")
NLARM_CATALOG_COUNTER(monitor_pair_probes, "nlarm_monitor_pair_probes_total",
                      "P2P latency/bandwidth pair probes measured.")
NLARM_CATALOG_COUNTER(monitor_snapshots, "nlarm_monitor_snapshots_total",
                      "Allocator-facing snapshots assembled from the store.")
NLARM_CATALOG_COUNTER(monitor_stale_records,
                      "nlarm_monitor_stale_records_total",
                      "Node records invalidated by the staleness filter.")
NLARM_CATALOG_GAUGE(monitor_record_age_seconds,
                    "nlarm_monitor_record_age_seconds",
                    "Oldest valid node record age at the last staleness-"
                    "filtered snapshot.")
NLARM_CATALOG_GAUGE(monitor_daemons_running, "nlarm_monitor_daemons_running",
                    "Daemons observed running at the last supervision tick.")
NLARM_CATALOG_COUNTER(monitor_daemon_relaunches,
                      "nlarm_monitor_daemon_relaunches_total",
                      "Dead daemons relaunched by the CentralMonitor.")
NLARM_CATALOG_COUNTER(monitor_promotions, "nlarm_monitor_promotions_total",
                      "Slave supervisors promoted to master.")
NLARM_CATALOG_GAUGE(monitor_abandoned, "nlarm_monitor_abandoned",
                    "1 once master and slave supervisors both died and "
                    "supervision stopped.")
NLARM_CATALOG_COUNTER(monitor_delta_drains, "nlarm_monitor_delta_drains_total",
                      "Snapshot deltas drained from monitor stores.")
NLARM_CATALOG_COUNTER(monitor_delta_dirty_nodes,
                      "nlarm_monitor_delta_dirty_nodes_total",
                      "Dirty node ids carried by drained deltas.")
NLARM_CATALOG_COUNTER(monitor_delta_dirty_pairs,
                      "nlarm_monitor_delta_dirty_pairs_total",
                      "Dirty P2P pairs carried by drained deltas.")

NLARM_CATALOG_COUNTER(persistence_snapshot_saves,
                      "nlarm_persistence_snapshot_saves_total",
                      "Snapshot files saved through the crash-safe "
                      "tmp-then-rename path.")
NLARM_CATALOG_COUNTER(persistence_snapshot_save_failures,
                      "nlarm_persistence_snapshot_save_failures_total",
                      "Snapshot saves that failed (torn or short write, "
                      "rename error); the previous file is left intact.")
NLARM_CATALOG_COUNTER(snapshot_bytes_written,
                      "nlarm_snapshot_bytes_written_total",
                      "Bytes written by snapshot saves and delta-log frames "
                      "(text, binary, and .nlarmd appends/compactions).")
NLARM_CATALOG_HISTOGRAM(snapshot_parse_seconds, "nlarm_snapshot_parse_seconds",
                        "Wall time spent parsing a snapshot artifact back "
                        "into a ClusterSnapshot (text or binary, any path).")
NLARM_CATALOG_COUNTER(snapshot_crc_failures,
                      "nlarm_snapshot_crc_failures_total",
                      "Snapshot or delta-log frames rejected for CRC/magic "
                      "mismatch (torn tail, truncation, corruption).")

NLARM_CATALOG_COUNTER(sim_events, "nlarm_sim_events_total",
                      "Discrete events dispatched by the simulation engine.")
NLARM_CATALOG_GAUGE(sim_time_ratio, "nlarm_sim_time_ratio",
                    "Simulated seconds advanced per wall second in the last "
                    "run_until().")

NLARM_CATALOG_COUNTER(chaos_events, "nlarm_chaos_events_total",
                      "Chaos-schedule events fired by the fault-injection "
                      "engine.")
NLARM_CATALOG_COUNTER(chaos_daemon_stalls, "nlarm_chaos_daemon_stalls_total",
                      "Daemons wedged (alive but not ticking) by chaos "
                      "stall events.")
NLARM_CATALOG_COUNTER(chaos_node_flaps, "nlarm_chaos_node_flaps_total",
                      "Node down/up flaps injected by chaos events.")
NLARM_CATALOG_COUNTER(chaos_supervisor_kills,
                      "nlarm_chaos_supervisor_kills_total",
                      "Master/slave supervisor kills injected by chaos "
                      "events.")
NLARM_CATALOG_COUNTER(chaos_torn_snapshot_writes,
                      "nlarm_chaos_torn_snapshot_writes_total",
                      "Snapshot saves deliberately torn mid-write by chaos "
                      "events.")
NLARM_CATALOG_GAUGE(chaos_clock_skew_seconds, "nlarm_chaos_clock_skew_seconds",
                    "Accumulated clock skew injected into staleness "
                    "computations.")
NLARM_CATALOG_COUNTER(chaos_leader_kills, "nlarm_chaos_leader_kills_total",
                      "Delta-log leader brokers killed mid-compaction by "
                      "chaos events.")

NLARM_CATALOG_COUNTER(replica_frames_ingested,
                      "nlarm_replica_frames_ingested_total",
                      "Delta-log frames a follower broker replayed into its "
                      "replicated state.")
NLARM_CATALOG_COUNTER(replica_epochs, "nlarm_replica_epochs_total",
                      "Epochs a follower broker published from replicated "
                      "frames.")
NLARM_CATALOG_GAUGE(replica_lag_seconds, "nlarm_replica_lag_seconds",
                    "Replication lag: caller-clock seconds between now and "
                    "the follower's last ingested snapshot time.")
NLARM_CATALOG_GAUGE(replica_role, "nlarm_replica_role",
                    "Replica role: 0 while following the leader's log, 1 "
                    "after promotion to leader.")
NLARM_CATALOG_COUNTER(replica_fenced, "nlarm_replica_fenced_total",
                      "Follower decides refused because replication lag "
                      "exceeded the epoch-age fence.")
NLARM_CATALOG_COUNTER(replica_promotions, "nlarm_replica_promotions_total",
                      "Followers promoted to leader from their last-good "
                      "replicated frame.")

NLARM_CATALOG_COUNTER(probe_rounds, "nlarm_probe_rounds_total",
                      "Sparse probe rounds run (one n/2-pair tournament "
                      "round per daemon period).")
NLARM_CATALOG_COUNTER(probe_pairs_measured, "nlarm_probe_pairs_measured_total",
                      "Pairs actually probed by sparse-mode pair daemons.")
NLARM_CATALOG_COUNTER(probe_pairs_reconstructed,
                      "nlarm_probe_pairs_reconstructed_total",
                      "Stale pairs whose values were reconstructed from "
                      "per-link topology estimates instead of probed.")
NLARM_CATALOG_GAUGE(probe_traffic_fraction, "nlarm_probe_traffic_fraction",
                    "Measured probes per sparse round divided by the full "
                    "O(V^2) pair count.")

#undef NLARM_CATALOG_COUNTER
#undef NLARM_CATALOG_GAUGE
#undef NLARM_CATALOG_HISTOGRAM

void register_all() {
  alloc_requests();
  alloc_candidates_generated();
  alloc_fill_overflows();
  alloc_prepare_seconds();
  alloc_generate_seconds();
  alloc_select_seconds();
  alloc_total_seconds();
  prepared_full_rebuilds();
  prepared_incremental_updates();
  prepared_incremental_fallbacks();
  prepared_nl_materializations();
  prepared_nl_reuses();
  prepared_update_seconds();
  prepared_rebuild_seconds();
  epoch_publishes();
  epoch_age_seconds();
  epoch_refresh_lag_seconds();
  epoch_tiled_state_bytes();
  epoch_staleness_burn_ratio();
  broker_decisions();
  broker_waits();
  broker_allocations();
  broker_gate_seconds();
  broker_epoch_decisions();
  broker_batches();
  broker_batch_requests();
  broker_fallback_decisions();
  broker_stale_refusals();
  broker_epoch_age_seconds();
  hier_decisions();
  hier_pruned_decisions();
  hier_blocks_chosen();
  hier_tiles_materialized();
  hier_tile_cache_hits();
  hier_phase1_seconds();
  hier_phase2_seconds();
  degrade_quarantined_nodes();
  degrade_quarantine_events();
  degrade_readmissions();
  degrade_pair_fallbacks();
  degrade_block_quarantine_events();
  degrade_block_quarantined_nodes();
  jobqueue_backoffs();
  telemetry_scrapes();
  telemetry_scrape_errors();
  telemetry_flushes();
  serve_threads();
  serve_inflight();
  delta_log_tail_bytes();
  serve_shards();
  serve_plane_decisions();
  serve_cache_hits();
  serve_cache_misses();
  serve_cache_invalidations();
  serve_coalesced();
  serve_scoring_passes();
  simd_kernel();
  serve_decide_p50_seconds();
  serve_decide_p95_seconds();
  serve_decide_p99_seconds();
  serve_decide_p999_seconds();
  admission_wait_p50_seconds();
  admission_wait_p99_seconds();
  epoch_refresh_p50_seconds();
  epoch_refresh_p99_seconds();
  refresh_workers();
  refresh_parallel_rebuilds();
  refresh_parallel_applies();
  refresh_decode_ahead_frames();
  refresh_decode_ahead_depth();
  refresh_rebuild_p50_seconds();
  refresh_rebuild_p95_seconds();
  refresh_apply_p50_seconds();
  refresh_apply_p95_seconds();
  threadpool_threads();
  threadpool_batches();
  threadpool_tasks();
  threadpool_submit_wait_seconds();
  threadpool_batch_seconds();
  monitor_daemon_ticks();
  monitor_node_samples();
  monitor_pair_probes();
  monitor_snapshots();
  monitor_stale_records();
  monitor_record_age_seconds();
  monitor_daemons_running();
  monitor_daemon_relaunches();
  monitor_promotions();
  monitor_abandoned();
  monitor_delta_drains();
  monitor_delta_dirty_nodes();
  monitor_delta_dirty_pairs();
  persistence_snapshot_saves();
  persistence_snapshot_save_failures();
  snapshot_bytes_written();
  snapshot_parse_seconds();
  snapshot_crc_failures();
  sim_events();
  sim_time_ratio();
  chaos_events();
  chaos_daemon_stalls();
  chaos_node_flaps();
  chaos_supervisor_kills();
  chaos_torn_snapshot_writes();
  chaos_clock_skew_seconds();
  chaos_leader_kills();
  replica_frames_ingested();
  replica_epochs();
  replica_lag_seconds();
  replica_role();
  replica_fenced();
  replica_promotions();
  probe_rounds();
  probe_pairs_measured();
  probe_pairs_reconstructed();
  probe_traffic_fraction();
}

}  // namespace nlarm::obs::metrics
