// FollowerBroker: a read-only broker replica fed by a leader's delta
// append-log.
//
// The `.nlarmd` log (monitor/delta_log.h) is already a replication stream:
// one CRC-framed frame per drained delta, compacted to a full snapshot
// frame whenever the tail outgrows the policy. A follower tails that file
// with a DeltaLogReader — on its own thread or driven explicitly — and
// turns every batch of frames into an epoch refresh on an embedded
// ResourceBroker, so any number of follower processes serve decide() /
// decide_batch() through the same lock-free epoch-pin path the leader
// uses, scaling the read side horizontally without touching the leader.
// Each published epoch's snapshot is an O(V) copy of the reader's state
// that shares its pair matrices (util::FlatMatrix is copy-on-write), so a
// node-only poll copies no V×V matrix.
//
// Replication-specific semantics on top of the plain broker:
//
//   * Epoch-age fencing. A follower that stops receiving frames keeps its
//     last epoch forever; serving from it would silently hand out
//     arbitrarily stale placements. decide() therefore refuses fresh work
//     (kWait, "replica fenced") once `now - state.time` exceeds
//     ReplicaOptions::max_epoch_age_s — the same bound the degradation
//     layer puts on last-good epochs. epoch_status() exposes the lag as
//     the epoch age, so a follower's /readyz flips to 503 when its
//     replication stream stalls.
//   * Degradation parity. With set_degradation(), the follower maintains a
//     mirror MonitorStore rebuilt from the replicated frames and feeds its
//     O(V) staleness view and the frames' delta through the same Degrader
//     pipeline as the leader, so quarantine and stale-pair fallback
//     decisions replicate too. Node
//     record ages reconstruct exactly (records carry their sample time);
//     pair write times are approximated by the frame's snapshot time, so
//     leader/follower staleness agrees whenever pair writes land in the
//     same tick that assembles the frame (exact in the drills and tests).
//   * Promotion. When the leader dies — detectable as the log going silent
//     — a follower can promote(): it rewrites the log from its last-good
//     replicated state as a fresh compaction frame (tmp + rename, healing
//     any torn tail the dying leader left) and flips to the leader role,
//     ready to take over appends. maybe_promote() packages the standard
//     silence-threshold policy.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/allocator.h"
#include "core/broker.h"
#include "monitor/delta_log.h"
#include "monitor/store.h"
#include "obs/audit.h"
#include "obs/telemetry_server.h"

namespace nlarm::core {

struct ReplicaOptions {
  /// Epoch-age fence: refuse fresh decides once the replicated state is
  /// older than this many seconds on the caller's clock (<= 0 disables).
  /// The caller's `now` must be comparable to the leader's snapshot times.
  double max_epoch_age_s = 120.0;
  /// Background tail-thread poll cadence (start()).
  double poll_interval_s = 0.05;
  /// maybe_promote(): promote once the log has made no progress for this
  /// many seconds.
  double promote_after_s = 15.0;
  /// Refresh worker count for the embedded broker (forwarded to
  /// ResourceBroker::set_refresh_threads): replicated epoch rebuilds and
  /// delta applies fan out across this many threads. <= 1 keeps the serial
  /// path; published epochs are bit-identical either way.
  int refresh_threads = 1;
  /// Pipelined log ingest (DeltaLogReader::set_decode_ahead): decode+CRC
  /// frame k+1 on a worker thread while frame k applies, shrinking the
  /// follower's steady-state catch-up lag on multi-frame polls.
  bool decode_ahead = true;
};

struct ReplicaStatus {
  enum class Role { kFollower, kLeader };
  Role role = Role::kFollower;
  bool have_state = false;
  std::uint64_t state_version = 0;
  double state_time = 0.0;
  double lag_seconds = 0.0;     ///< now - state_time (0 before first frame)
  double silent_seconds = 0.0;  ///< now - last poll that ingested frames
  bool fenced_now = false;      ///< lag currently over the fence bound
  long frames_ingested = 0;
  long epochs_published = 0;
  long fenced_decides = 0;
  int promotions = 0;
};

class FollowerBroker {
 public:
  /// Borrows the allocator (like ResourceBroker). `profile` is the request
  /// profile every replicated epoch is prepared for; decide() requests
  /// must match it, exactly as on the leader's epoch path.
  FollowerBroker(Allocator& allocator, std::string log_path,
                 const RequestProfile& profile, ReplicaOptions options = {},
                 BrokerPolicy policy = {});
  ~FollowerBroker();

  FollowerBroker(const FollowerBroker&) = delete;
  FollowerBroker& operator=(const FollowerBroker&) = delete;

  /// Enables the replicated degradation pipeline (see file comment). Call
  /// before the first poll, with the LEADER's policy — divergent policies
  /// break decision parity.
  void set_degradation(const DegradationPolicy& policy);

  /// Forwards to the embedded broker (records carry the follower's own
  /// decide timings; placements and verdicts replicate the leader's).
  void set_audit_log(obs::AuditLog* log);

  /// One tail step: poll the log, and when frames arrived fold their
  /// coalesced delta into a published epoch. `now` is the caller's clock
  /// (sim time in drills, wall-derived in the CLI follower). Returns the
  /// number of frames ingested.
  int poll_once(double now);

  /// Read-only decide against the latest replicated epoch, fenced on
  /// replication lag (see file comment).
  BrokerDecision decide(const AllocationRequest& request, double now);
  std::vector<BrokerDecision> decide_batch(
      std::span<const AllocationRequest> requests, double now);

  /// Leader-failover promotion from the last-good replicated state. False
  /// when already leader, no state has been replicated yet, or the
  /// compaction write failed (role unchanged in every failure case).
  bool promote(double now);

  /// promote() iff still a follower, state exists, and the log has been
  /// silent for at least options.promote_after_s. Returns true on the
  /// transition.
  bool maybe_promote(double now);

  /// Starts the background tail thread: poll_once(clock()) every
  /// options.poll_interval_s. `clock` defaults to monotonic wall seconds;
  /// pass a custom one when the log carries a different time base.
  void start(std::function<double()> clock = {});
  void stop();

  ReplicaStatus status(double now) const;

  /// Telemetry /readyz + /epoch view: the epoch age is the REPLICATION lag
  /// (now - last replicated state time) bounded by the fence, so a stalled
  /// stream turns the follower unready.
  obs::EpochStatus epoch_status(double now) const;

  bool have_state() const {
    return have_state_.load(std::memory_order_acquire);
  }
  ReplicaStatus::Role role() const {
    return leader_.load(std::memory_order_relaxed)
               ? ReplicaStatus::Role::kLeader
               : ReplicaStatus::Role::kFollower;
  }
  double seconds_since_progress(double now) const;

  /// The replicated snapshot (requires have_state()); promotion seeds the
  /// new leader's store from this.
  const monitor::ClusterSnapshot& snapshot() const;

  ResourceBroker& broker() { return broker_; }
  const std::string& log_path() const { return log_path_; }

 private:
  void mirror_apply(const monitor::ClusterSnapshot& snapshot,
                    const monitor::SnapshotDelta& delta);
  double lag_seconds(double now) const;
  BrokerDecision refuse(const char* reason_prefix, double lag);

  ReplicaOptions options_;
  std::string log_path_;
  RequestProfile profile_;
  ResourceBroker broker_;

  /// Serializes poll/promote (the tail thread vs explicit drivers). decide
  /// stays lock-free: fencing reads the atomics below.
  std::mutex poll_mutex_;
  monitor::DeltaLogReader reader_;
  std::unique_ptr<monitor::MonitorStore> mirror_;  ///< degradation only
  bool degradation_enabled_ = false;

  std::atomic<bool> have_state_{false};
  std::atomic<bool> leader_{false};
  std::atomic<double> state_time_{0.0};
  std::atomic<std::uint64_t> state_version_{0};
  std::atomic<double> last_progress_time_{0.0};
  std::atomic<bool> saw_progress_{false};
  std::atomic<long> frames_ingested_{0};
  std::atomic<long> epochs_published_{0};
  std::atomic<long> fenced_decides_{0};
  std::atomic<int> promotions_{0};

  std::thread tail_thread_;
  std::atomic<bool> stop_requested_{false};
};

}  // namespace nlarm::core
