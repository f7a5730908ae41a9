// nlarm_top — a terminal dashboard for a live nlarm_broker.
//
// Polls the broker's telemetry plane (obs/telemetry_server.h) over plain
// HTTP — /metrics for the Prometheus exposition and /epoch for the SLO
// header — and renders a compact top(1)-style view: serving rate, decide
// latency quantiles from the streaming sketches, epoch freshness against
// the staleness budget, and the degradation counters.
//
//   nlarm_top --port 9464                 # refresh every second
//   nlarm_top --port 9464 --interval 0.2  # finer refresh
//   nlarm_top --port 9464 --once          # one frame, no ANSI (scripts/CI)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <chrono>

#include "obs/http_client.h"
#include "util/args.h"

namespace {

/// Parses a Prometheus text exposition into name → value. Histogram bucket
/// lines keep their label clause in the key (`name_bucket{le="0.001"}`), so
/// plain series are addressable by bare name.
std::map<std::string, double> parse_prometheus(const std::string& text) {
  std::map<std::string, double> series;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    const std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    char* tail = nullptr;
    const double parsed = std::strtod(value.c_str(), &tail);
    if (tail != value.c_str()) series[name] = parsed;
  }
  return series;
}

double series(const std::map<std::string, double>& metrics,
              const std::string& name) {
  const auto it = metrics.find(name);
  return it == metrics.end() ? 0.0 : it->second;
}

/// Pulls `"key":<number>` out of the /epoch JSON (flat object, no nesting —
/// a full parser would be overkill for five numeric fields).
double json_number(const std::string& body, const std::string& key,
                   double fallback = 0.0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return fallback;
  const char* start = body.c_str() + at + needle.size();
  char* tail = nullptr;
  const double parsed = std::strtod(start, &tail);
  return tail != start ? parsed : fallback;
}

bool json_true(const std::string& body, const std::string& key) {
  return body.find("\"" + key + "\":true") != std::string::npos;
}

/// Counter-delta rate over one frame interval. A restarted broker resets
/// its counters to zero, so a negative delta means the sample straddles a
/// restart: report 0 instead of a negative rate and flag the sample so the
/// header can say "[reset]".
double counter_rate(double current, double& last, double interval,
                    bool& reset) {
  double rate = 0.0;
  if (!std::isnan(last) && interval > 0.0) {
    const double delta = current - last;
    if (delta < 0.0) {
      reset = true;
    } else {
      rate = delta / interval;
    }
  }
  last = current;
  return rate;
}

std::string format_latency(double seconds) {
  char buffer[32];
  if (seconds <= 0.0) {
    std::snprintf(buffer, sizeof buffer, "    -");
  } else if (seconds < 1e-3) {
    std::snprintf(buffer, sizeof buffer, "%5.1fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buffer, sizeof buffer, "%5.2fms", seconds * 1e3);
  } else {
    std::snprintf(buffer, sizeof buffer, "%5.2fs ", seconds);
  }
  return buffer;
}

}  // namespace

using namespace nlarm;

int main(int argc, char** argv) {
  util::ArgParser parser(
      "nlarm_top: live terminal dashboard over an nlarm_broker telemetry "
      "endpoint (--telemetry-port).",
      {{"host", "broker host (default 127.0.0.1)"},
       {"port", "broker telemetry port (required)"},
       {"interval", "seconds between frames (default 1)"},
       {"frames", "stop after this many frames; 0 = forever (default 0)"},
       {"once", "print a single frame without ANSI control (for scripts)"}});
  if (!parser.parse(argc, argv)) return 0;

  const std::string host = parser.get_string("host", "127.0.0.1");
  const int port = static_cast<int>(parser.get_long("port", 0));
  if (port <= 0) {
    std::fprintf(stderr, "nlarm_top: --port is required (the broker prints "
                         "it at startup, or use --telemetry-port-file)\n");
    return 1;
  }
  const bool once = parser.get_bool("once");
  const double interval = parser.get_double("interval", 1.0);
  long frames_left = parser.get_long("frames", 0);
  if (once) frames_left = 1;

  double last_decides = NAN;
  double last_allocs = NAN;
  double last_plane_decisions = NAN;
  double last_epochs = NAN;
  for (long frame = 0;; ++frame) {
    const std::optional<obs::HttpResponse> metrics_response =
        obs::http_get(host, port, "/metrics");
    const std::optional<obs::HttpResponse> epoch_response =
        obs::http_get(host, port, "/epoch");
    const std::optional<obs::HttpResponse> ready_response =
        obs::http_get(host, port, "/readyz");
    if (!metrics_response || metrics_response->status != 200) {
      std::fprintf(stderr, "nlarm_top: no /metrics from %s:%d\n",
                   host.c_str(), port);
      return 1;
    }
    const std::map<std::string, double> m =
        parse_prometheus(metrics_response->body);
    const std::string epoch_body = epoch_response ? epoch_response->body : "";

    const double decides = series(m, "nlarm_broker_decisions_total");
    const double allocs = series(m, "nlarm_broker_allocations_total");
    bool counter_reset = false;
    const double decide_rate =
        counter_rate(decides, last_decides, interval, counter_reset);
    const double alloc_rate =
        counter_rate(allocs, last_allocs, interval, counter_reset);
    const double plane_decisions =
        series(m, "nlarm_serve_plane_decisions_total");
    const double plane_rate = counter_rate(plane_decisions,
                                           last_plane_decisions, interval,
                                           counter_reset);

    if (!once) std::printf("\033[H\033[2J");  // clear + home
    const bool ready = ready_response && ready_response->status == 200;
    std::printf("nlarm_top — %s:%d   [%s]%s\n", host.c_str(), port,
                ready ? "READY" : "NOT READY",
                counter_reset ? " [reset]" : "");
    std::printf(
        "epoch %.0f  age %.1fs / %.0fs budget  burn %3.0f%%  published=%s\n",
        json_number(epoch_body, "epoch"),
        json_number(epoch_body, "age_seconds"),
        json_number(epoch_body, "max_age_seconds"),
        100.0 * json_number(epoch_body, "staleness_burn"),
        json_true(epoch_body, "published") ? "yes" : "no");
    std::printf(
        "nodes  usable %.0f  quarantined %.0f  pair-fallbacks %.0f  "
        "degraded=%s  tiled-state %.1f KiB\n",
        json_number(epoch_body, "usable_nodes"),
        json_number(epoch_body, "quarantined"),
        json_number(epoch_body, "pair_fallbacks"),
        json_true(epoch_body, "degraded") ? "yes" : "no",
        json_number(epoch_body, "tiled_state_bytes") / 1024.0);
    std::printf("\n");
    std::printf("serve   %8.0f decide/s  %8.0f alloc/s   inflight %.0f on "
                "%.0f thread(s)\n",
                decide_rate, alloc_rate, series(m, "nlarm_serve_inflight"),
                series(m, "nlarm_serve_threads"));
    std::printf("decide  p50 %s  p95 %s  p99 %s  p999 %s\n",
                format_latency(
                    series(m, "nlarm_serve_decide_p50_seconds")).c_str(),
                format_latency(
                    series(m, "nlarm_serve_decide_p95_seconds")).c_str(),
                format_latency(
                    series(m, "nlarm_serve_decide_p99_seconds")).c_str(),
                format_latency(
                    series(m, "nlarm_serve_decide_p999_seconds")).c_str());
    std::printf("admit   p50 %s  p99 %s      refresh  p50 %s  p99 %s\n",
                format_latency(
                    series(m, "nlarm_admission_wait_p50_seconds")).c_str(),
                format_latency(
                    series(m, "nlarm_admission_wait_p99_seconds")).c_str(),
                format_latency(
                    series(m, "nlarm_epoch_refresh_p50_seconds")).c_str(),
                format_latency(
                    series(m, "nlarm_epoch_refresh_p99_seconds")).c_str());

    // Sharded front end (core/serve_shard.h): decisions/sec through the
    // plane, cache effectiveness and coalescing.
    const double plane_hits = series(m, "nlarm_serve_cache_hits_total");
    const double plane_hit_pct =
        plane_decisions > 0.0 ? 100.0 * plane_hits / plane_decisions : 0.0;
    const double plane_coalesced = series(m, "nlarm_serve_coalesced_total");
    const double plane_coalesce_pct =
        plane_decisions > 0.0 ? 100.0 * plane_coalesced / plane_decisions
                              : 0.0;
    std::printf("shards  %8.0f decide/s  cache %3.0f%% hit  coalesced %3.0f%%"
                "  on %.0f shard(s)\n",
                plane_rate, plane_hit_pct, plane_coalesce_pct,
                series(m, "nlarm_serve_shards"));
    std::printf("        invalidations %.0f  scoring-passes %.0f  "
                "simd-kernel %.0f\n",
                series(m, "nlarm_serve_cache_invalidations_total"),
                series(m, "nlarm_serve_scoring_passes_total"),
                series(m, "nlarm_simd_kernel"));
    std::printf("\n");
    std::printf("totals  decisions %.0f  allocations %.0f  waits %.0f  "
                "fallbacks %.0f  refusals %.0f\n",
                decides, allocs, series(m, "nlarm_broker_waits_total"),
                series(m, "nlarm_broker_fallback_decisions_total"),
                series(m, "nlarm_broker_stale_refusals_total"));
    const double epochs_published = series(m, "nlarm_epoch_publishes_total");
    const double epoch_rate =
        counter_rate(epochs_published, last_epochs, interval, counter_reset);
    std::printf("epochs  published %.0f (%.1f/s)  refresh-lag %.3fs  "
                "delta-log tail %.0f B\n",
                epochs_published, epoch_rate,
                series(m, "nlarm_epoch_refresh_lag_seconds"),
                series(m, "nlarm_delta_log_tail_bytes"));
    // Parallel refresh plane (DESIGN.md §17): rebuild/apply stage latency,
    // active worker count, and the decode-ahead log-ingest pipeline.
    std::printf("refresh workers %.0f  rebuild p50 %s p95 %s  "
                "apply p50 %s p95 %s\n",
                series(m, "nlarm_refresh_workers"),
                format_latency(
                    series(m, "nlarm_refresh_rebuild_p50_seconds")).c_str(),
                format_latency(
                    series(m, "nlarm_refresh_rebuild_p95_seconds")).c_str(),
                format_latency(
                    series(m, "nlarm_refresh_apply_p50_seconds")).c_str(),
                format_latency(
                    series(m, "nlarm_refresh_apply_p95_seconds")).c_str());
    std::printf("        parallel rebuilds %.0f  applies %.0f  "
                "decode-ahead frames %.0f  queue depth %.0f\n",
                series(m, "nlarm_refresh_parallel_rebuilds_total"),
                series(m, "nlarm_refresh_parallel_applies_total"),
                series(m, "nlarm_refresh_decode_ahead_frames_total"),
                series(m, "nlarm_refresh_decode_ahead_depth"));
    // Replication panel, shown only when this broker is part of a
    // replicated fleet (a follower that ingested frames, or a promoted /
    // configured leader).
    const double replica_frames =
        series(m, "nlarm_replica_frames_ingested_total");
    const double replica_role = series(m, "nlarm_replica_role");
    const double replica_promotions =
        series(m, "nlarm_replica_promotions_total");
    if (replica_frames > 0.0 || replica_role > 0.0 ||
        replica_promotions > 0.0) {
      std::printf("replica %s  lag %.1fs  frames %.0f  epochs %.0f  "
                  "fenced %.0f  promotions %.0f\n",
                  replica_role > 0.0 ? "LEADER  " : "FOLLOWER",
                  series(m, "nlarm_replica_lag_seconds"), replica_frames,
                  series(m, "nlarm_replica_epochs_total"),
                  series(m, "nlarm_replica_fenced_total"),
                  replica_promotions);
    }
    // Sparse-probe panel, shown once the pair daemons run in sparse mode.
    const double probe_rounds = series(m, "nlarm_probe_rounds_total");
    if (probe_rounds > 0.0) {
      std::printf("probes  rounds %.0f  measured %.0f  reconstructed %.0f  "
                  "traffic %.1f%% of full mesh\n",
                  probe_rounds, series(m, "nlarm_probe_pairs_measured_total"),
                  series(m, "nlarm_probe_pairs_reconstructed_total"),
                  100.0 * series(m, "nlarm_probe_traffic_fraction"));
    }
    std::printf("chaos   events %.0f  quarantine-events %.0f  "
                "readmissions %.0f  clock-skew %.1fs\n",
                series(m, "nlarm_chaos_events_total"),
                series(m, "nlarm_degrade_quarantine_events_total"),
                series(m, "nlarm_degrade_readmissions_total"),
                series(m, "nlarm_chaos_clock_skew_seconds"));
    std::printf("scrapes %.0f (%.0f error(s))  flushes %.0f\n",
                series(m, "nlarm_telemetry_scrapes_total"),
                series(m, "nlarm_telemetry_scrape_errors_total"),
                series(m, "nlarm_telemetry_flushes_total"));
    std::fflush(stdout);

    if (frames_left > 0 && frame + 1 >= frames_left) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
  return 0;
}
