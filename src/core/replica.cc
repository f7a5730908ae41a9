#include "core/replica.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "obs/catalog.h"
#include "util/check.h"
#include "util/logging.h"

namespace nlarm::core {

namespace {

double default_clock() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string fence_reason(const char* prefix, double lag) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s (replication lag %.1f s)", prefix, lag);
  return std::string(buf);
}

}  // namespace

FollowerBroker::FollowerBroker(Allocator& allocator, std::string log_path,
                               const RequestProfile& profile,
                               ReplicaOptions options, BrokerPolicy policy)
    : options_(options),
      log_path_(std::move(log_path)),
      profile_(profile),
      broker_(allocator, policy),
      reader_(log_path_) {
  NLARM_CHECK(options_.poll_interval_s > 0.0)
      << "replica poll interval must be positive";
  if (options_.refresh_threads > 1) {
    broker_.set_refresh_threads(options_.refresh_threads);
  }
  reader_.set_decode_ahead(options_.decode_ahead);
  obs::metrics::replica_role().set(0.0);
}

FollowerBroker::~FollowerBroker() { stop(); }

void FollowerBroker::set_degradation(const DegradationPolicy& policy) {
  broker_.set_degradation(policy);
  degradation_enabled_ = true;
}

void FollowerBroker::set_audit_log(obs::AuditLog* log) {
  broker_.set_audit_log(log);
}

int FollowerBroker::poll_once(double now) {
  std::lock_guard<std::mutex> lock(poll_mutex_);
  int frames = 0;
  if (!degradation_enabled_) {
    frames = broker_.ingest_delta_log(reader_, profile_);
  } else {
    frames = reader_.poll();
    if (frames > 0) {
      const monitor::SnapshotDelta delta = reader_.drain_delta();
      // Shares the reader's pair matrices; see ingest_delta_log.
      auto snapshot =
          std::make_shared<const monitor::ClusterSnapshot>(reader_.snapshot());
      mirror_apply(*snapshot, delta);
      const monitor::StalenessView staleness = mirror_->staleness_view(now);
      broker_.refresh_epoch(std::move(snapshot), delta, staleness, profile_);
    }
  }
  if (frames > 0) {
    const monitor::ClusterSnapshot& state = reader_.snapshot();
    state_time_.store(state.time, std::memory_order_relaxed);
    state_version_.store(state.version, std::memory_order_relaxed);
    // Progress is never older than the state it delivered — a caller whose
    // clock lags the log (first poll before the time base is pinned) must
    // not start the silence timer in the past.
    last_progress_time_.store(std::max(now, state.time),
                              std::memory_order_relaxed);
    saw_progress_.store(true, std::memory_order_relaxed);
    have_state_.store(true, std::memory_order_release);
    frames_ingested_.fetch_add(frames, std::memory_order_relaxed);
    epochs_published_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics::replica_frames_ingested().inc(
        static_cast<std::uint64_t>(frames));
    obs::metrics::replica_epochs().inc();
  }
  obs::metrics::replica_lag_seconds().set(lag_seconds(now));
  return frames;
}

double FollowerBroker::lag_seconds(double now) const {
  if (!have_state_.load(std::memory_order_acquire)) return 0.0;
  return std::max(0.0, now - state_time_.load(std::memory_order_relaxed));
}

double FollowerBroker::seconds_since_progress(double now) const {
  if (!saw_progress_.load(std::memory_order_relaxed)) return 0.0;
  return std::max(
      0.0, now - last_progress_time_.load(std::memory_order_relaxed));
}

BrokerDecision FollowerBroker::refuse(const char* reason_prefix, double lag) {
  BrokerDecision decision;
  decision.action = BrokerDecision::Action::kWait;
  decision.reason = fence_reason(reason_prefix, lag);
  return decision;
}

BrokerDecision FollowerBroker::decide(const AllocationRequest& request,
                                      double now) {
  if (!have_state()) {
    return refuse("replica has no replicated state yet", 0.0);
  }
  const double lag = lag_seconds(now);
  if (options_.max_epoch_age_s > 0.0 && lag > options_.max_epoch_age_s) {
    fenced_decides_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics::replica_fenced().inc();
    return refuse("replica fenced: replicated epoch over the age bound", lag);
  }
  return broker_.decide(broker_.pin_epoch(), request);
}

std::vector<BrokerDecision> FollowerBroker::decide_batch(
    std::span<const AllocationRequest> requests, double now) {
  if (!have_state()) {
    std::vector<BrokerDecision> refused;
    refused.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      refused.push_back(refuse("replica has no replicated state yet", 0.0));
    }
    return refused;
  }
  const double lag = lag_seconds(now);
  if (options_.max_epoch_age_s > 0.0 && lag > options_.max_epoch_age_s) {
    std::vector<BrokerDecision> refused;
    refused.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      fenced_decides_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics::replica_fenced().inc();
      refused.push_back(
          refuse("replica fenced: replicated epoch over the age bound", lag));
    }
    return refused;
  }
  return broker_.decide_batch(broker_.pin_epoch(), requests);
}

void FollowerBroker::mirror_apply(const monitor::ClusterSnapshot& snapshot,
                                  const monitor::SnapshotDelta& delta) {
  const bool fresh_mirror =
      mirror_ == nullptr || mirror_->node_count() != snapshot.size();
  if (fresh_mirror) {
    mirror_ = std::make_unique<monitor::MonitorStore>(snapshot.size());
  }
  if (fresh_mirror || delta.requires_full_rebuild()) {
    mirror_->restore(snapshot);
  } else {
    // Node records carry their own sample time, so their mirror ages match
    // the leader's exactly; pair writes are stamped with the frame's
    // snapshot time (see the class comment for when that is exact).
    for (const cluster::NodeId node : delta.dirty_nodes) {
      const monitor::NodeSnapshot& record =
          snapshot.nodes[static_cast<std::size_t>(node)];
      if (record.valid && record.sample_time >= 0.0) {
        mirror_->write_node_record(record.sample_time, record);
      }
    }
    for (const auto& [u, v] : delta.dirty_pairs) {
      if (snapshot.net.latency_us[u][v] >= 0.0) {
        mirror_->write_latency(snapshot.time, u, v,
                               snapshot.net.latency_us[u][v],
                               snapshot.net.latency_5min_us[u][v]);
      }
      if (snapshot.net.latency_us[v][u] >= 0.0) {
        mirror_->write_latency(snapshot.time, v, u,
                               snapshot.net.latency_us[v][u],
                               snapshot.net.latency_5min_us[v][u]);
      }
      if (snapshot.net.bandwidth_mbps[u][v] >= 0.0) {
        mirror_->write_bandwidth(snapshot.time, u, v,
                                 snapshot.net.bandwidth_mbps[u][v],
                                 snapshot.net.peak_mbps[u][v]);
      }
      if (snapshot.net.bandwidth_mbps[v][u] >= 0.0) {
        mirror_->write_bandwidth(snapshot.time, v, u,
                                 snapshot.net.bandwidth_mbps[v][u],
                                 snapshot.net.peak_mbps[v][u]);
      }
    }
  }
  // The mirror only feeds staleness views; drain its tracker so the dirty
  // sets never pile up.
  (void)mirror_->drain_delta();
}

bool FollowerBroker::promote(double now) {
  std::lock_guard<std::mutex> lock(poll_mutex_);
  if (leader_.load(std::memory_order_relaxed)) return false;
  if (!reader_.have_snapshot()) {
    NLARM_WARN << "replica: promote requested before any state replicated";
    return false;
  }
  // Re-lay the log from the last-good replicated state as one compaction
  // frame (tmp + rename), healing whatever torn tail the dying leader left
  // so other followers converge on the same state we promote from.
  monitor::DeltaLogWriter writer(log_path_);
  if (!writer.write_full(reader_.snapshot())) {
    NLARM_WARN << "replica: promotion compaction write failed; "
                  "staying follower";
    return false;
  }
  leader_.store(true, std::memory_order_relaxed);
  last_progress_time_.store(now, std::memory_order_relaxed);
  promotions_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics::replica_promotions().inc();
  obs::metrics::replica_role().set(1.0);
  NLARM_WARN << "replica: promoted to leader from replicated version "
             << state_version_.load(std::memory_order_relaxed)
             << " (state time "
             << state_time_.load(std::memory_order_relaxed) << ")";
  return true;
}

bool FollowerBroker::maybe_promote(double now) {
  if (leader_.load(std::memory_order_relaxed)) return false;
  if (!have_state()) return false;
  if (options_.promote_after_s <= 0.0) return false;
  if (seconds_since_progress(now) < options_.promote_after_s) return false;
  return promote(now);
}

void FollowerBroker::start(std::function<double()> clock) {
  NLARM_CHECK(!tail_thread_.joinable()) << "replica tail thread already runs";
  if (!clock) clock = default_clock;
  stop_requested_.store(false, std::memory_order_relaxed);
  tail_thread_ = std::thread([this, clock = std::move(clock)] {
    const auto interval = std::chrono::duration<double>(
        options_.poll_interval_s);
    while (!stop_requested_.load(std::memory_order_relaxed)) {
      poll_once(clock());
      std::this_thread::sleep_for(interval);
    }
  });
}

void FollowerBroker::stop() {
  if (!tail_thread_.joinable()) return;
  stop_requested_.store(true, std::memory_order_relaxed);
  tail_thread_.join();
}

ReplicaStatus FollowerBroker::status(double now) const {
  ReplicaStatus status;
  status.role = role();
  status.have_state = have_state();
  status.state_version = state_version_.load(std::memory_order_relaxed);
  status.state_time = state_time_.load(std::memory_order_relaxed);
  status.lag_seconds = lag_seconds(now);
  status.silent_seconds = seconds_since_progress(now);
  status.fenced_now = options_.max_epoch_age_s > 0.0 &&
                      status.lag_seconds > options_.max_epoch_age_s;
  status.frames_ingested = frames_ingested_.load(std::memory_order_relaxed);
  status.epochs_published = epochs_published_.load(std::memory_order_relaxed);
  status.fenced_decides = fenced_decides_.load(std::memory_order_relaxed);
  status.promotions = promotions_.load(std::memory_order_relaxed);
  return status;
}

obs::EpochStatus FollowerBroker::epoch_status(double now) const {
  obs::EpochStatus status;
  status.max_age_seconds = options_.max_epoch_age_s;
  const EpochPin pin = broker_.pin_epoch();
  if (!pin.valid()) return status;
  const PreparedSnapshot& prepared = *pin.prepared;
  status.published = true;
  status.epoch = prepared.epoch;
  status.age_seconds = lag_seconds(now);
  status.usable_nodes = prepared.usable.size();
  status.quarantined = prepared.quarantined;
  status.pair_fallbacks = prepared.pair_fallbacks;
  status.degraded = prepared.degraded;
  status.tiled_state_bytes =
      prepared.tiles != nullptr ? prepared.tiles->memory_bytes() : 0;
  return status;
}

const monitor::ClusterSnapshot& FollowerBroker::snapshot() const {
  return reader_.snapshot();
}

}  // namespace nlarm::core
