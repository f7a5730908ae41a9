// ResourceBroker: the user-facing entry point (the paper's "resource
// broker"). Takes a monitored snapshot, applies an allocation policy, and —
// implementing the extension sketched in §6 — recommends *waiting* instead
// of allocating when the cluster is too loaded for the gain to matter
// ("if the overall load on the cluster is extremely high ... our tool
// should recommend waiting rather than allocating it right away").
//
// Two serving paths:
//  - decide(snapshot, request): the classic one-shot path. It derives the
//    gate aggregates from the snapshot it is handed and runs the borrowed
//    allocator on it, keeping nothing between calls. Thread-safe; only the
//    allocator call is serialized (baselines carry RNG state, and any
//    Allocator may sit behind the broker).
//  - refresh_epoch(...) + decide(pin, request): the concurrent path. A
//    refresh thread turns snapshots (or snapshot deltas) into immutable
//    prepared epochs; any number of threads decide() against their pinned
//    epoch without waiting on refreshes. decide_batch() admits a vector of
//    requests against one epoch with conflict-aware capacity debiting. With
//    set_refresh_threads(n > 1), refreshes and the candidate generation of
//    epoch decides at 192 or more nodes fan out over one pool of n − 1
//    workers plus the calling thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/allocator.h"
#include "core/degrade.h"
#include "core/epoch.h"
#include "core/hierarchical.h"
#include "core/prepared.h"
#include "monitor/delta_log.h"
#include "monitor/snapshot_delta.h"
#include "monitor/store.h"
#include "obs/audit.h"
#include "util/thread_pool.h"

namespace nlarm::core {

struct BrokerPolicy {
  /// Recommend waiting when the usable nodes' mean 1-minute CPU load per
  /// logical core exceeds this. 0.5 = half the cluster's cores already busy
  /// with background work.
  double max_load_per_core = 0.5;
  /// Recommend waiting when the request exceeds the cluster's effective
  /// capacity (otherwise the allocation oversubscribes round-robin).
  bool allow_oversubscription = false;
  /// Minimum number of usable nodes required to allocate at all.
  int min_usable_nodes = 1;
};

struct BrokerDecision {
  enum class Action { kAllocate, kWait };
  Action action = Action::kWait;
  Allocation allocation;  ///< valid when action == kAllocate
  std::string reason;     ///< human-readable explanation
  double cluster_load_per_core = 0.0;
  int effective_capacity = 0;  ///< Σ pc over usable nodes
};

class ResourceBroker {
 public:
  /// The broker borrows the allocator; it must outlive the broker.
  ResourceBroker(Allocator& allocator, BrokerPolicy policy = {});

  /// Decides between allocating and waiting for the given request
  /// (classic path; serialized internally).
  BrokerDecision decide(const monitor::ClusterSnapshot& snapshot,
                        const AllocationRequest& request);

  // --- concurrent epoch path ---

  /// Rebuilds the prepared epoch from scratch and publishes it. A profile
  /// change (different weights/ppn) resets the builder.
  void refresh_epoch(
      std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
      const RequestProfile& profile);

  /// Applies a snapshot delta to the prepared state in O(dirty) and
  /// publishes the result. Returns true when the delta was applied
  /// incrementally (false = continuity could not be proven and a full
  /// rebuild ran instead — same published result either way).
  bool refresh_epoch(
      std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
      const monitor::SnapshotDelta& delta, const RequestProfile& profile);

  /// Follows an on-disk delta append-log (monitor/delta_log.h): polls the
  /// reader and, when frames arrived, applies their coalesced delta as one
  /// epoch refresh — incremental O(dirty) whenever the frames chain onto
  /// the current prepared state (full/compaction frames rebuild). The
  /// file-tailing analog of the assemble() + drain_delta() live loop: the
  /// published snapshot is an O(V) copy of the reader's state that shares
  /// its pair matrices, and the reader's next pair frame clones only the
  /// matrices it writes. Returns the number of frames ingested (0 =
  /// nothing new, no epoch published).
  int ingest_delta_log(monitor::DeltaLogReader& log,
                       const RequestProfile& profile);

  // --- staleness-aware degradation (core/degrade.h) ---

  /// Enables degradation: the StalenessView refresh overloads rewrite
  /// snapshots through a Degrader before preparation, and decide(pin) falls
  /// back to the last-good epoch when the current one is poisoned — refusing
  /// only once that epoch's age exceeds policy.max_epoch_age_s. Set before
  /// serving starts (same contract as set_audit_log).
  void set_degradation(const DegradationPolicy& policy);
  bool degradation_enabled() const { return degradation_.has_value(); }

  /// Degraded full refresh: quarantine/fallback rewrite, then rebuild.
  /// Requires set_degradation().
  void refresh_epoch(
      std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
      const monitor::StalenessView& staleness, const RequestProfile& profile);

  /// Degraded delta refresh. The Degrader chains on the same delta, so it
  /// re-derives only the dirty pairs and the pairs that aged past the
  /// budget (core/degrade.h). Pairs whose fallback state flipped without a
  /// store write are patched alongside the delta's dirty pairs; a
  /// quarantine-membership change forces a full rebuild (the usable set's
  /// shape moved). Returns true when applied incrementally.
  bool refresh_epoch(
      std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
      const monitor::SnapshotDelta& delta,
      const monitor::StalenessView& staleness, const RequestProfile& profile);

  // --- tiled two-phase hierarchy (core/hierarchical.h) ---

  /// Enables tiled serving on the epoch path: the builder keeps pair state
  /// per topology tile (O(G²) memory instead of O(V²)), epochs publish a
  /// TiledPairState, and decide(pin)/decide_batch() go through
  /// allocate_two_phase. Set before the first refresh_epoch (same contract
  /// as set_degradation); a profile-change builder reset picks it up too.
  void set_hierarchy(const HierarchicalOptions& options,
                     const TilingOptions& tiling = {});
  bool hierarchy_enabled() const { return hierarchy_.has_value(); }

  // --- parallel refresh plane (DESIGN.md §17) ---

  /// Sizes the epoch-refresh worker pool: full rebuilds, delta applies and
  /// dense materializations inside refresh_epoch() fan out across `threads`
  /// workers (the refresh thread participates, so an internal pool of
  /// threads-1 workers is kept), and so does candidate generation in every
  /// epoch decide (decide, decide_batch, the serve plane's misses) over at
  /// least GenerationOptions' default 192 nodes, the deciding thread
  /// participating. threads <= 1 keeps both serial. Published epochs and
  /// decisions are bit-identical either way. Safe while decides run: each
  /// holds the pool it fans out on, and the old pool goes with the last of
  /// them.
  void set_refresh_threads(int threads);

  /// Current epoch counter (0 = nothing published yet).
  std::uint64_t epoch() const { return publisher_.epoch(); }

  /// A fresh pin on the current epoch (one per reader thread).
  EpochPin pin_epoch() const { return publisher_.pin(); }

  /// Re-validates a pin against the publisher; true when it changed.
  bool refresh_pin(EpochPin& pin) const { return publisher_.refresh(pin); }

  /// Decision against the pinned epoch, taking no lock a refresh holds.
  /// The request's profile must match the epoch's. Safe to call from any
  /// number of threads.
  BrokerDecision decide(const EpochPin& pin,
                        const AllocationRequest& request);

  /// Batched admission: decides every request (in order) against one epoch,
  /// debiting each allocation's processes from a working copy of the
  /// per-node capacities so later requests see what earlier ones took.
  /// All requests must share the epoch's profile.
  std::vector<BrokerDecision> decide_batch(
      const EpochPin& pin, std::span<const AllocationRequest> requests);

  const BrokerPolicy& policy() const { return policy_; }
  int decisions_made() const {
    return decisions_.load(std::memory_order_relaxed);
  }
  int waits_recommended() const {
    return waits_.load(std::memory_order_relaxed);
  }
  /// Epoch decides served from the last-good epoch because the current one
  /// had no usable nodes.
  int fallback_decisions() const {
    return fallbacks_.load(std::memory_order_relaxed);
  }
  /// Epoch decides refused outright because even the last-good epoch was
  /// older than the policy's hard bound.
  int stale_refusals() const {
    return refusals_.load(std::memory_order_relaxed);
  }

  /// Attaches a decision-audit sink; every decide() appends one record.
  /// Pass nullptr to detach. The log must outlive the broker (borrowed).
  /// Set before concurrent decides start (the pointer itself is unguarded;
  /// AuditLog::append is thread-safe).
  void set_audit_log(obs::AuditLog* log) { audit_log_ = log; }

 private:
  /// The sharded serve plane (core/serve_shard.h) is the broker's
  /// high-throughput front end: it reuses decide_prepared / the degradation
  /// resolution / the stale refusal, and replays cached placements through
  /// replay_decision.
  friend class ServePlane;

  /// Shared preamble of the four refresh_epoch overloads: constructs the
  /// right builder shape on first use or profile change and re-attaches the
  /// refresh pool. Caller holds builder_mutex_.
  PreparedBuilder& ensure_builder(const RequestProfile& profile);

  /// Shared epilogue of the epoch paths: gate, allocate, audit.
  /// `degradation_note` annotates the audit record when the decision was
  /// served in a degraded mode ("" = derive from the epoch itself).
  BrokerDecision decide_prepared(const PreparedSnapshot& prepared,
                                 const AllocationRequest& request,
                                 std::span<const int> pc_override,
                                 std::span<const std::size_t> starts,
                                 std::size_t gate_usable,
                                 int gate_capacity,
                                 const char* degradation_note = "");

  /// Degradation fallback resolution shared by decide(pin) and
  /// decide_batch(): picks the epoch to serve from. Returns the pinned
  /// epoch when it is healthy (or degradation is off), the last-good epoch
  /// (kept alive through `keepalive`, `note` set) when the pinned one is
  /// poisoned but the last-good is young enough, and nullptr when the
  /// decision must be refused (`last_good_age` tells how stale it was).
  const PreparedSnapshot* resolve_degraded(
      const PreparedSnapshot& current,
      std::shared_ptr<const PreparedSnapshot>& keepalive, const char*& note,
      double& last_good_age);

  /// Wait verdict + audit for a refused stale decision.
  BrokerDecision refuse_stale(const PreparedSnapshot& prepared,
                              const AllocationRequest& request,
                              double last_good_age);

  /// Serve-plane cache replay: re-issues a previously scored decision
  /// against the same epoch without a scoring pass (the caller has already
  /// proven the placement still has capacity headroom). Counts, audits and
  /// observes exactly like a decide, with the audit degradation field set
  /// to "cache-replay" when no degradation note applies.
  BrokerDecision replay_decision(const PreparedSnapshot& prepared,
                                 const AllocationRequest& request,
                                 const BrokerDecision& cached,
                                 const char* degradation_note);

  /// Builds the decision's audit record and appends it to the attached
  /// log (no-op without one) — the one record fill behind the classic
  /// decide, decide_prepared, refuse_stale and replay_decision. `epoch` is
  /// the serving epoch (null on the classic path, which carries epoch 0),
  /// `stats` the scoring pass's (null when none ran or the allocator
  /// exposes none).
  void audit(const monitor::ClusterSnapshot& snapshot,
             const PreparedSnapshot* epoch, const AllocationRequest& request,
             const BrokerDecision& decision, std::size_t usable_nodes,
             const char* degradation, const AllocStats* stats,
             double gate_seconds, double total_seconds);

  Allocator& allocator_;
  BrokerPolicy policy_;
  /// Guards only the borrowed allocator on the classic path — NOT the
  /// whole decide(): the gate, stat counters (atomics) and the audit append
  /// run outside it.
  std::mutex decide_mutex_;
  std::atomic<int> decisions_{0};
  std::atomic<int> waits_{0};
  std::atomic<int> fallbacks_{0};
  std::atomic<int> refusals_{0};
  obs::AuditLog* audit_log_ = nullptr;

  std::optional<DegradationPolicy> degradation_;
  std::optional<HierarchicalOptions> hierarchy_;
  TilingOptions tiling_;

  std::mutex builder_mutex_;  ///< serializes refresh_epoch callers
  std::optional<Degrader> degrader_;  ///< under builder_mutex_
  std::optional<PreparedBuilder> builder_;
  /// Refresh worker pool (threads - 1 workers, null for 1 thread), which
  /// the builder and the uncached epoch decides fan out on. Written under
  /// builder_mutex_ and pool_mutex_. Decides do not take builder_mutex_:
  /// each copies the pointer under pool_mutex_ and holds that reference
  /// through its fan-out, so a swap cannot destroy the pool under one.
  std::mutex pool_mutex_;
  std::shared_ptr<util::ThreadPool> refresh_pool_;
  EpochPublisher publisher_;
};

}  // namespace nlarm::core
