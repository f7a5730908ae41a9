// The high-throughput admission front end: serve shards behind one mutex
// each, a capacity-aware decision cache, and a shared admission ledger.
//
// The epoch machinery (core/epoch.h) already made decide() lock-free, but
// every caller still paid a full scoring pass (Algorithms 1+2). This layer
// lets repeated job shapes skip it:
//
//   callers ──round-robin──► Shard 0 [mutex: epoch pin, cache] ─┐
//                            Shard 1 [mutex: epoch pin, cache] ─┼─► decisions
//                            ...                                │
//                            Shard N [mutex: epoch pin, cache] ─┘
//
//  * decide() runs on the caller's own thread under its shard's lock: it
//    refreshes the shard's epoch pin, resolves a degraded epoch, then
//    replays a cached placement or runs a fresh scoring pass. Errors (a
//    malformed request) throw to the caller.
//  * Admission debits flow through an AdmissionLedger: per-node atomic
//    reservations shared by all shards, reset whenever a new epoch is
//    published. Fresh scoring passes see the post-debit capacities
//    (pc_override/starts, exactly like ResourceBroker::decide_batch);
//    grants debit with the same floor-at-zero semantics.
//  * A per-shard decision cache keyed on (epoch, canonical job shape:
//    nprocs, ppn, α/β) replays a previous scoring pass's placement — but
//    only after an all-or-nothing atomic debit of every chosen node proves
//    the placement still has headroom. A failed debit invalidates the
//    entry and falls through to a fresh scoring pass over what is left.
//  * Same-shape requests that queue on a shard's lock behind a scoring
//    pass replay that pass's entry once they hold the lock, so a burst of
//    identical requests costs one Algorithm-1/2 pass (`coalesced` counts
//    those replays).
//
// Determinism: with the cache off, a single shard serves a request
// sequence bit-identically to decide_batch over the same epoch (same
// pc_override/starts mechanics, same debit order). With the cache on, a
// replayed placement is byte-identical to the scoring pass that produced
// it; the suites in tests/core_serve_test.cc pin both properties.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/broker.h"

namespace nlarm::core {

struct ServeOptions {
  /// Serve shards: independent locks, epoch pins and decision caches that
  /// callers are spread over round-robin.
  int shards = 1;
  /// Decision cache on/off.
  bool decision_cache = true;
  /// Debit granted placements from the shared per-epoch AdmissionLedger.
  /// Off = advisory serving (every request scores against the epoch's full
  /// capacity, like plain decide(pin) — the old --serve-threads mode).
  bool debit_capacity = true;

  void validate() const;
};

/// Aggregate front-end counters (process-wide; mirrors the nlarm_serve_*
/// series so tools can read them without a metrics scrape).
struct ServeStats {
  std::uint64_t decisions = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_invalidations = 0;
  /// Cache hits on an entry its shard scored after the request arrived:
  /// the request queued on the lock behind that scoring pass.
  std::uint64_t coalesced = 0;
  std::uint64_t scoring_passes = 0;  ///< fresh Algorithm-1/2 passes
};

/// Per-epoch shared admission state: one atomic reservation counter per
/// working-set position. All shards debit the same ledger, so concurrent
/// admissions against one epoch never hand out more capacity than the
/// epoch had (up to decide_batch's floor-at-zero round-robin contract).
class AdmissionLedger {
 public:
  AdmissionLedger(std::uint64_t epoch, std::span<const int> pc);

  std::uint64_t epoch() const { return epoch_; }

  /// All-or-nothing debit of `takes[i]` from position `positions[i]`
  /// (CAS per node, rolled back on any shortfall). True = the whole
  /// placement still had headroom and is now reserved.
  bool try_debit(std::span<const std::int32_t> positions,
                 std::span<const int> takes);

  /// Clamped debit for freshly scored grants: takes min(take, remaining),
  /// flooring at zero — the same semantics as decide_batch's working-copy
  /// debit (round-robin overflow may oversubscribe a node).
  void debit_clamped(std::int32_t position, int take);

  /// Current remaining capacities, copied into `out`; returns the summed
  /// remaining capacity. `starts` receives the positions with capacity
  /// left (the fresh-scoring candidate start set).
  int snapshot(std::vector<int>& out, std::vector<std::size_t>& starts) const;

 private:
  std::uint64_t epoch_ = 0;
  std::vector<std::atomic<int>> remaining_;
};

/// The sharded admission front end. Callers call decide() from any thread;
/// each request is served on its caller's thread under one shard's lock.
class ServePlane {
 public:
  /// The broker must outlive the plane and have an epoch published before
  /// the plane is constructed.
  ServePlane(ResourceBroker& broker, ServeOptions options);
  ~ServePlane();

  ServePlane(const ServePlane&) = delete;
  ServePlane& operator=(const ServePlane&) = delete;

  /// Serves one admission decision (blocking on the shard's lock while
  /// another caller is served there). The request's profile must match the
  /// published epoch's, and its α/β + nprocs/ppn form the decision-cache
  /// shape key. Throws util::CheckError on a malformed request or after
  /// stop().
  BrokerDecision decide(const AllocationRequest& request);

  /// Waits for in-flight decides to finish and releases every shard's
  /// epoch pin; any decide() after it throws. Idempotent; the destructor
  /// calls it.
  void stop();

  const ServeOptions& options() const { return options_; }
  ServeStats stats() const;

 private:
  struct Shard;
  struct CacheEntry;

  /// The decision-cache key: one epoch's canonical job shape. The weight
  /// profiles (ComputeLoadWeights/NetworkLoadWeights) are epoch-wide — a
  /// decide against an epoch must already match its profile — so the
  /// per-request shape is the process count plus the α/β trade-off.
  struct ShapeKey {
    int nprocs = 0;
    int ppn = 0;
    std::uint64_t alpha_bits = 0;
    std::uint64_t beta_bits = 0;
    bool operator==(const ShapeKey&) const = default;
  };
  struct ShapeKeyHash {
    std::size_t operator()(const ShapeKey& key) const;
  };

  /// Cache replay or fresh scoring pass against `prepared`. The caller
  /// holds `shard.mutex`; `passes_seen` is the shard's pass count read
  /// before locking.
  BrokerDecision serve(Shard& shard, const PreparedSnapshot& prepared,
                       const char* note, const AllocationRequest& request,
                       std::uint64_t passes_seen);

  /// The ledger for `prepared`'s epoch, created on first use and shared
  /// by every shard serving that epoch.
  std::shared_ptr<AdmissionLedger> ledger_for(const PreparedSnapshot& prepared);

  ResourceBroker& broker_;
  ServeOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_shard_{0};
  std::atomic<bool> stopped_{false};

  std::mutex ledger_mutex_;
  std::shared_ptr<AdmissionLedger> ledger_;

  // Plane-local stat counters (the nlarm_serve_* series aggregate across
  // planes; these back ServeStats for tools/tests).
  std::atomic<std::uint64_t> decisions_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> cache_invalidations_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> scoring_passes_{0};
};

}  // namespace nlarm::core
