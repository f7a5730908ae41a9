// The catalog of nlarm's well-known metric series.
//
// Every instrumented layer fetches its series through these accessors, so
// the naming scheme lives in exactly one file (documented in DESIGN.md §9:
// nlarm_<layer>_<quantity>[_total|_seconds]). Each accessor registers on
// first call and caches the reference, making updates lock- and
// allocation-free. register_all() touches every series so exporters emit a
// complete exposition even for code paths that have not run yet.
#pragma once

#include "obs/metrics.h"
#include "obs/sketch.h"

namespace nlarm::obs::metrics {

// --- allocator (NetworkLoadAwareAllocator) ---
Counter& alloc_requests();               ///< nlarm_alloc_requests_total
Counter& alloc_candidates_generated();   ///< nlarm_alloc_candidates_generated_total
Counter& alloc_fill_overflows();         ///< nlarm_alloc_fill_overflows_total
Histogram& alloc_prepare_seconds();      ///< nlarm_alloc_prepare_seconds
Histogram& alloc_generate_seconds();     ///< nlarm_alloc_generate_seconds
Histogram& alloc_select_seconds();       ///< nlarm_alloc_select_seconds
Histogram& alloc_total_seconds();        ///< nlarm_alloc_total_seconds

// --- prepared-state maintenance (PreparedBuilder) ---
Counter& prepared_full_rebuilds();        ///< nlarm_prepared_full_rebuilds_total
Counter& prepared_incremental_updates();  ///< nlarm_prepared_incremental_updates_total
Counter& prepared_incremental_fallbacks(); ///< nlarm_prepared_incremental_fallbacks_total
Counter& prepared_nl_materializations();  ///< nlarm_prepared_nl_materializations_total
Counter& prepared_nl_reuses();            ///< nlarm_prepared_nl_reuses_total
Histogram& prepared_update_seconds();     ///< nlarm_prepared_update_seconds
Histogram& prepared_rebuild_seconds();    ///< nlarm_prepared_rebuild_seconds

// --- epoch publication (EpochPublisher) ---
Counter& epoch_publishes();              ///< nlarm_epoch_publishes_total
Gauge& epoch_age_seconds();              ///< nlarm_epoch_age_seconds
Gauge& epoch_refresh_lag_seconds();      ///< nlarm_epoch_refresh_lag_seconds
Gauge& epoch_tiled_state_bytes();        ///< nlarm_epoch_tiled_state_bytes
Gauge& epoch_staleness_burn_ratio();     ///< nlarm_epoch_staleness_burn_ratio

// --- broker ---
Counter& broker_decisions();             ///< nlarm_broker_decisions_total
Counter& broker_waits();                 ///< nlarm_broker_waits_total
Counter& broker_allocations();           ///< nlarm_broker_allocations_total
Histogram& broker_gate_seconds();        ///< nlarm_broker_gate_seconds
Counter& broker_epoch_decisions();       ///< nlarm_broker_epoch_decisions_total
Counter& broker_batches();               ///< nlarm_broker_batches_total
Counter& broker_batch_requests();        ///< nlarm_broker_batch_requests_total
Counter& broker_fallback_decisions();    ///< nlarm_broker_fallback_decisions_total
Counter& broker_stale_refusals();        ///< nlarm_broker_stale_refusals_total
Histogram& broker_epoch_age_seconds();   ///< nlarm_broker_epoch_age_seconds

// --- hierarchical two-phase allocation (core::allocate_two_phase) ---
Counter& hier_decisions();               ///< nlarm_hier_decisions_total
Counter& hier_pruned_decisions();        ///< nlarm_hier_pruned_decisions_total
Counter& hier_blocks_chosen();           ///< nlarm_hier_blocks_chosen_total
Counter& hier_tiles_materialized();      ///< nlarm_hier_tiles_materialized_total
Counter& hier_tile_cache_hits();         ///< nlarm_hier_tile_cache_hits_total
Histogram& hier_phase1_seconds();        ///< nlarm_hier_phase1_seconds
Histogram& hier_phase2_seconds();        ///< nlarm_hier_phase2_seconds

// --- staleness degradation (core::Degrader) ---
Gauge& degrade_quarantined_nodes();      ///< nlarm_degrade_quarantined_nodes
Counter& degrade_quarantine_events();    ///< nlarm_degrade_quarantine_events_total
Counter& degrade_readmissions();         ///< nlarm_degrade_readmissions_total
Gauge& degrade_pair_fallbacks();         ///< nlarm_degrade_pair_fallbacks
Counter& degrade_block_quarantine_events(); ///< nlarm_degrade_block_quarantine_events_total
Gauge& degrade_block_quarantined_nodes(); ///< nlarm_degrade_block_quarantined_nodes

// --- job queue ---
Counter& jobqueue_backoffs();            ///< nlarm_jobqueue_backoffs_total

// --- live telemetry plane (obs/telemetry_server.h, obs/flusher.h) ---
Counter& telemetry_scrapes();            ///< nlarm_telemetry_scrapes_total
Counter& telemetry_scrape_errors();      ///< nlarm_telemetry_scrape_errors_total
Counter& telemetry_flushes();            ///< nlarm_telemetry_flushes_total
Gauge& serve_threads();                  ///< nlarm_serve_threads
Gauge& serve_inflight();                 ///< nlarm_serve_inflight
Gauge& delta_log_tail_bytes();           ///< nlarm_delta_log_tail_bytes

// --- sharded serve plane (core/serve_shard.h) ---
Gauge& serve_shards();                   ///< nlarm_serve_shards
Counter& serve_plane_decisions();        ///< nlarm_serve_plane_decisions_total
Counter& serve_cache_hits();             ///< nlarm_serve_cache_hits_total
Counter& serve_cache_misses();           ///< nlarm_serve_cache_misses_total
Counter& serve_cache_invalidations();    ///< nlarm_serve_cache_invalidations_total
Counter& serve_coalesced();              ///< nlarm_serve_coalesced_total
Counter& serve_scoring_passes();         ///< nlarm_serve_scoring_passes_total

// --- SIMD scoring dispatch (core/prepared.h, simd::) ---
Gauge& simd_kernel();                    ///< nlarm_simd_kernel (0 scalar, 1 avx2, 2 neon)

// Streaming latency sketches (obs/sketch.h) and the quantile gauges
// export_quantile_gauges() materializes from them at scrape/flush time.
// The sketches are what the hot path writes into (wait-free observe);
// the gauges are the Prometheus-visible face.
QuantileSketch& serve_decide_sketch();    ///< end-to-end decide() latency
QuantileSketch& admission_wait_sketch();  ///< in-batch admission queue wait
QuantileSketch& epoch_refresh_sketch();   ///< publish-to-publish wall gap

Gauge& serve_decide_p50_seconds();   ///< nlarm_serve_decide_p50_seconds
Gauge& serve_decide_p95_seconds();   ///< nlarm_serve_decide_p95_seconds
Gauge& serve_decide_p99_seconds();   ///< nlarm_serve_decide_p99_seconds
Gauge& serve_decide_p999_seconds();  ///< nlarm_serve_decide_p999_seconds
Gauge& admission_wait_p50_seconds(); ///< nlarm_admission_wait_p50_seconds
Gauge& admission_wait_p99_seconds(); ///< nlarm_admission_wait_p99_seconds
Gauge& epoch_refresh_p50_seconds();  ///< nlarm_epoch_refresh_p50_seconds
Gauge& epoch_refresh_p99_seconds();  ///< nlarm_epoch_refresh_p99_seconds

/// Reads the three sketches and sets the quantile gauges above. Called by
/// the telemetry server on each /metrics scrape and by the flusher before
/// each frame — never from the decide path.
void export_quantile_gauges();

// --- parallel epoch-refresh plane (PreparedBuilder + delta-log ingest) ---
Gauge& refresh_workers();                ///< nlarm_refresh_workers
Counter& refresh_parallel_rebuilds();    ///< nlarm_refresh_parallel_rebuilds_total
Counter& refresh_parallel_applies();     ///< nlarm_refresh_parallel_applies_total
Counter& refresh_decode_ahead_frames();  ///< nlarm_refresh_decode_ahead_frames_total
Gauge& refresh_decode_ahead_depth();     ///< nlarm_refresh_decode_ahead_depth
QuantileSketch& refresh_rebuild_sketch(); ///< full-rebuild stage wall time
QuantileSketch& refresh_apply_sketch();   ///< delta-apply stage wall time
Gauge& refresh_rebuild_p50_seconds();    ///< nlarm_refresh_rebuild_p50_seconds
Gauge& refresh_rebuild_p95_seconds();    ///< nlarm_refresh_rebuild_p95_seconds
Gauge& refresh_apply_p50_seconds();      ///< nlarm_refresh_apply_p50_seconds
Gauge& refresh_apply_p95_seconds();      ///< nlarm_refresh_apply_p95_seconds

// --- util::ThreadPool (pooled parallel_for path only) ---
Gauge& threadpool_threads();             ///< nlarm_threadpool_threads
Counter& threadpool_batches();           ///< nlarm_threadpool_batches_total
Counter& threadpool_tasks();             ///< nlarm_threadpool_tasks_total
Histogram& threadpool_submit_wait_seconds(); ///< nlarm_threadpool_submit_wait_seconds
Histogram& threadpool_batch_seconds();   ///< nlarm_threadpool_batch_seconds

// --- resource monitor ---
Counter& monitor_daemon_ticks();         ///< nlarm_monitor_daemon_ticks_total
Counter& monitor_node_samples();         ///< nlarm_monitor_node_samples_total
Counter& monitor_pair_probes();          ///< nlarm_monitor_pair_probes_total
Counter& monitor_snapshots();            ///< nlarm_monitor_snapshots_total
Counter& monitor_stale_records();        ///< nlarm_monitor_stale_records_total
Gauge& monitor_record_age_seconds();     ///< nlarm_monitor_record_age_seconds
Gauge& monitor_daemons_running();        ///< nlarm_monitor_daemons_running
Counter& monitor_daemon_relaunches();    ///< nlarm_monitor_daemon_relaunches_total
Counter& monitor_promotions();           ///< nlarm_monitor_promotions_total
Gauge& monitor_abandoned();              ///< nlarm_monitor_abandoned
Counter& monitor_delta_drains();         ///< nlarm_monitor_delta_drains_total
Counter& monitor_delta_dirty_nodes();    ///< nlarm_monitor_delta_dirty_nodes_total
Counter& monitor_delta_dirty_pairs();    ///< nlarm_monitor_delta_dirty_pairs_total

// --- snapshot persistence ---
Counter& persistence_snapshot_saves();   ///< nlarm_persistence_snapshot_saves_total
Counter& persistence_snapshot_save_failures(); ///< nlarm_persistence_snapshot_save_failures_total
Counter& snapshot_bytes_written();       ///< nlarm_snapshot_bytes_written_total
Histogram& snapshot_parse_seconds();     ///< nlarm_snapshot_parse_seconds
Counter& snapshot_crc_failures();        ///< nlarm_snapshot_crc_failures_total

// --- simulation engine ---
Counter& sim_events();                   ///< nlarm_sim_events_total
Gauge& sim_time_ratio();                 ///< nlarm_sim_time_ratio

// --- chaos / fault injection (sim::ChaosEngine + exp::ChaosHarness) ---
Counter& chaos_events();                 ///< nlarm_chaos_events_total
Counter& chaos_daemon_stalls();          ///< nlarm_chaos_daemon_stalls_total
Counter& chaos_node_flaps();             ///< nlarm_chaos_node_flaps_total
Counter& chaos_supervisor_kills();       ///< nlarm_chaos_supervisor_kills_total
Counter& chaos_torn_snapshot_writes();   ///< nlarm_chaos_torn_snapshot_writes_total
Gauge& chaos_clock_skew_seconds();       ///< nlarm_chaos_clock_skew_seconds
Counter& chaos_leader_kills();           ///< nlarm_chaos_leader_kills_total

// --- replication (core::FollowerBroker over the delta log) ---
Counter& replica_frames_ingested();      ///< nlarm_replica_frames_ingested_total
Counter& replica_epochs();               ///< nlarm_replica_epochs_total
Gauge& replica_lag_seconds();            ///< nlarm_replica_lag_seconds
Gauge& replica_role();                   ///< nlarm_replica_role
Counter& replica_fenced();               ///< nlarm_replica_fenced_total
Counter& replica_promotions();           ///< nlarm_replica_promotions_total

// --- sparse probing (monitor/sparse.h) ---
Counter& probe_rounds();                 ///< nlarm_probe_rounds_total
Counter& probe_pairs_measured();         ///< nlarm_probe_pairs_measured_total
Counter& probe_pairs_reconstructed();    ///< nlarm_probe_pairs_reconstructed_total
Gauge& probe_traffic_fraction();         ///< nlarm_probe_traffic_fraction

/// Registers every catalog series in the global registry (idempotent).
void register_all();

}  // namespace nlarm::obs::metrics
