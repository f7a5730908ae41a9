#include "core/broker.h"

#include <algorithm>

#include "core/compute_load.h"
#include "obs/catalog.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/strings.h"

namespace nlarm::core {

ResourceBroker::ResourceBroker(Allocator& allocator, BrokerPolicy policy)
    : allocator_(allocator), policy_(policy) {
  NLARM_CHECK(policy.max_load_per_core > 0.0)
      << "max load per core must be positive";
  NLARM_CHECK(policy.min_usable_nodes >= 1) << "need at least one node";
}

namespace {

/// The wait/allocate gate verdict (extracted so decide() can audit it).
BrokerDecision evaluate_gate(const BrokerPolicy& policy,
                             const AllocationRequest& request,
                             std::size_t usable_count, double load_per_core,
                             int effective_capacity) {
  BrokerDecision decision;
  decision.cluster_load_per_core = load_per_core;
  decision.effective_capacity = effective_capacity;
  decision.action = BrokerDecision::Action::kWait;

  if (static_cast<int>(usable_count) < policy.min_usable_nodes) {
    decision.reason =
        util::format("only %zu usable node(s), need at least %d",
                     usable_count, policy.min_usable_nodes);
    return decision;
  }
  if (load_per_core > policy.max_load_per_core) {
    decision.reason = util::format(
        "cluster load per core %.2f exceeds threshold %.2f; "
        "not enough lightly loaded processors — wait and retry",
        load_per_core, policy.max_load_per_core);
    return decision;
  }
  if (!policy.allow_oversubscription &&
      effective_capacity < request.nprocs) {
    decision.reason = util::format(
        "request for %d processes exceeds effective capacity %d; "
        "allocation would oversubscribe — wait and retry",
        request.nprocs, effective_capacity);
    return decision;
  }
  decision.action = BrokerDecision::Action::kAllocate;
  return decision;
}

/// The audit degradation label: the serving note when one is set.
const char* note_or(const char* note, const char* fallback) {
  return note != nullptr && note[0] != '\0' ? note : fallback;
}

}  // namespace

BrokerDecision ResourceBroker::decide(
    const monitor::ClusterSnapshot& snapshot,
    const AllocationRequest& request) {
  request.validate();
  decisions_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics::broker_decisions().inc();
  obs::ScopedSpan decide_span("broker.decide");

  // The gate reads only the snapshot it is handed; only the borrowed
  // allocator below takes the lock, so concurrent classic callers whose
  // verdict is "wait" (and the audit I/O of all callers) never queue.
  obs::ScopedSpan gate_span("broker.gate",
                            &obs::metrics::broker_gate_seconds());
  const std::vector<cluster::NodeId> usable = snapshot.usable_nodes();
  const GateAggregates gate = gate_aggregates(
      snapshot, usable,
      effective_process_counts(snapshot, usable, request.ppn));
  BrokerDecision decision =
      evaluate_gate(policy_, request, usable.size(), gate.load_per_core,
                    gate.effective_capacity);
  const double gate_seconds = gate_span.stop();

  AllocStats stats;
  bool have_stats = false;
  if (decision.action == BrokerDecision::Action::kWait) {
    waits_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics::broker_waits().inc();
    NLARM_INFO << "broker verdict: wait — " << decision.reason;
  } else {
    {
      std::lock_guard<std::mutex> lock(decide_mutex_);
      decision.allocation = allocator_.allocate(snapshot, request);
      if (const AllocStats* last = allocator_.last_stats()) {
        stats = *last;
        have_stats = true;
      }
    }
    decision.reason = util::format(
        "allocated %d node(s) via %s", decision.allocation.node_count(),
        decision.allocation.policy.c_str());
    obs::metrics::broker_allocations().inc();
    NLARM_DEBUG << "broker verdict: " << decision.reason;
  }

  const double total_seconds = decide_span.stop();
  obs::metrics::serve_decide_sketch().observe(total_seconds);
  audit(snapshot, /*epoch=*/nullptr, request, decision, usable.size(), "none",
        have_stats ? &stats : nullptr, gate_seconds, total_seconds);
  return decision;
}

void ResourceBroker::audit(const monitor::ClusterSnapshot& snapshot,
                           const PreparedSnapshot* epoch,
                           const AllocationRequest& request,
                           const BrokerDecision& decision,
                           std::size_t usable_nodes, const char* degradation,
                           const AllocStats* stats, double gate_seconds,
                           double total_seconds) {
  if (audit_log_ == nullptr) return;
  obs::AuditRecord record;
  record.nprocs = request.nprocs;
  record.ppn = request.ppn;
  record.alpha = request.job.alpha;
  record.beta = request.job.beta;
  record.snapshot_version = snapshot.version;
  record.snapshot_time = snapshot.time;
  record.snapshot_nodes = snapshot.size();
  record.usable_nodes = static_cast<int>(usable_nodes);
  record.action = decision.action == BrokerDecision::Action::kAllocate
                      ? "allocate"
                      : "wait";
  record.reason = decision.reason;
  record.cluster_load_per_core = decision.cluster_load_per_core;
  record.effective_capacity = decision.effective_capacity;
  record.degradation = degradation;
  if (epoch != nullptr) {
    record.epoch = epoch->epoch;
    record.quarantined_nodes = static_cast<int>(epoch->quarantined);
  }
  if (decision.action == BrokerDecision::Action::kAllocate) {
    const Allocation& alloc = decision.allocation;
    record.policy = alloc.policy;
    record.total_cost = alloc.total_cost;
    for (std::size_t i = 0; i < alloc.nodes.size(); ++i) {
      const auto id = static_cast<std::size_t>(alloc.nodes[i]);
      record.nodes.push_back(static_cast<int>(alloc.nodes[i]));
      if (id < snapshot.nodes.size()) {
        record.hostnames.push_back(snapshot.nodes[id].spec.hostname);
      }
      record.procs_per_node.push_back(alloc.procs_per_node[i]);
    }
    if (stats != nullptr) {
      record.candidates_generated = stats->candidates_generated;
      record.compute_cost = stats->compute_cost;
      record.network_cost = stats->network_cost;
      record.prepare_seconds = stats->prepare_seconds;
      record.generate_seconds = stats->generate_seconds;
      record.select_seconds = stats->select_seconds;
    }
  }
  record.gate_seconds = gate_seconds;
  record.total_seconds = total_seconds;
  audit_log_->append(std::move(record));
}

void ResourceBroker::set_refresh_threads(int threads) {
  NLARM_CHECK(threads >= 1) << "refresh thread count must be positive";
  std::shared_ptr<util::ThreadPool> pool =
      threads > 1 ? std::make_shared<util::ThreadPool>(
                        static_cast<std::size_t>(threads - 1))
                  : nullptr;
  std::lock_guard<std::mutex> lock(builder_mutex_);
  if (builder_.has_value()) builder_->set_thread_pool(pool.get());
  {
    // The old pool goes when its last decide lets go of it.
    std::lock_guard<std::mutex> pool_lock(pool_mutex_);
    refresh_pool_.swap(pool);
  }
  obs::metrics::refresh_workers().set(static_cast<double>(threads));
}

PreparedBuilder& ResourceBroker::ensure_builder(
    const RequestProfile& profile) {
  if (!builder_.has_value() || !(builder_->profile() == profile)) {
    if (hierarchy_.has_value()) {
      builder_.emplace(profile, tiling_);
    } else {
      builder_.emplace(profile);
    }
    builder_->set_thread_pool(refresh_pool_.get());
  }
  return *builder_;
}

void ResourceBroker::refresh_epoch(
    std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
    const RequestProfile& profile) {
  std::lock_guard<std::mutex> lock(builder_mutex_);
  PreparedBuilder& builder = ensure_builder(profile);
  builder.rebuild(std::move(snapshot));
  publisher_.publish(builder.build());
}

bool ResourceBroker::refresh_epoch(
    std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
    const monitor::SnapshotDelta& delta, const RequestProfile& profile) {
  std::lock_guard<std::mutex> lock(builder_mutex_);
  PreparedBuilder& builder = ensure_builder(profile);
  const bool incremental = builder.update(std::move(snapshot), delta);
  publisher_.publish(builder.build());
  return incremental;
}

int ResourceBroker::ingest_delta_log(monitor::DeltaLogReader& log,
                                     const RequestProfile& profile) {
  const int frames = log.poll();
  if (frames == 0) return 0;
  const monitor::SnapshotDelta delta = log.drain_delta();
  // The copy shares the reader's pair matrices; the reader's next pair
  // frame clones only the matrices it writes.
  auto snapshot =
      std::make_shared<const monitor::ClusterSnapshot>(log.snapshot());
  refresh_epoch(std::move(snapshot), delta, profile);
  return frames;
}

void ResourceBroker::set_degradation(const DegradationPolicy& policy) {
  policy.validate();
  degradation_ = policy;
}

void ResourceBroker::set_hierarchy(const HierarchicalOptions& options,
                                   const TilingOptions& tiling) {
  options.validate();
  std::lock_guard<std::mutex> lock(builder_mutex_);
  hierarchy_ = options;
  tiling_ = tiling;
  // Any existing builder holds flat (or differently-tiled) state; drop it so
  // the next refresh constructs the tiled one.
  builder_.reset();
}

void ResourceBroker::refresh_epoch(
    std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
    const monitor::StalenessView& staleness, const RequestProfile& profile) {
  NLARM_CHECK(degradation_.has_value())
      << "degraded refresh without set_degradation()";
  std::lock_guard<std::mutex> lock(builder_mutex_);
  if (!degrader_.has_value()) degrader_.emplace(*degradation_);
  DegradationOutcome out = degrader_->apply(std::move(snapshot), staleness);
  PreparedBuilder& builder = ensure_builder(profile);
  builder.rebuild(std::move(out.snapshot));
  auto built = builder.build();
  built->degraded = out.degraded;
  built->quarantined = out.quarantined;
  built->pair_fallbacks = out.pair_fallbacks;
  publisher_.publish(std::move(built));
}

bool ResourceBroker::refresh_epoch(
    std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
    const monitor::SnapshotDelta& delta,
    const monitor::StalenessView& staleness, const RequestProfile& profile) {
  NLARM_CHECK(degradation_.has_value())
      << "degraded refresh without set_degradation()";
  std::lock_guard<std::mutex> lock(builder_mutex_);
  if (!degrader_.has_value()) degrader_.emplace(*degradation_);
  DegradationOutcome out =
      degrader_->apply(std::move(snapshot), delta, staleness);
  PreparedBuilder& builder = ensure_builder(profile);
  bool incremental = false;
  if (out.quarantine_changed) {
    // Quarantine membership moved, so the degraded livehosts vector changed
    // shape — the delta cannot prove continuity against that.
    builder.rebuild(std::move(out.snapshot));
  } else if (out.changed_pairs.empty()) {
    incremental = builder.update(std::move(out.snapshot), delta);
  } else {
    // Pairs can cross the staleness budget without any store write, so
    // their fallback rewrite is invisible to the delta's dirty set; patch
    // them alongside. A patch subtracts the pair's old terms and adds its
    // new ones, so a pair listed twice would count its change twice: a
    // re-probed pair leaving the fallback is both dirty and flipped, hence
    // the normalize (sort + dedupe).
    monitor::SnapshotDelta merged = delta;
    merged.dirty_pairs.insert(merged.dirty_pairs.end(),
                              out.changed_pairs.begin(),
                              out.changed_pairs.end());
    merged.normalize();
    incremental = builder.update(std::move(out.snapshot), merged);
  }
  auto built = builder.build();
  built->degraded = out.degraded;
  built->quarantined = out.quarantined;
  built->pair_fallbacks = out.pair_fallbacks;
  publisher_.publish(std::move(built));
  return incremental;
}

BrokerDecision ResourceBroker::decide_prepared(
    const PreparedSnapshot& prepared, const AllocationRequest& request,
    std::span<const int> pc_override, std::span<const std::size_t> starts,
    std::size_t gate_usable, int gate_capacity,
    const char* degradation_note) {
  request.validate();
  decisions_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics::broker_decisions().inc();
  obs::metrics::broker_epoch_decisions().inc();
  obs::ScopedSpan decide_span("broker.decide");

  obs::ScopedSpan gate_span("broker.gate",
                            &obs::metrics::broker_gate_seconds());
  BrokerDecision decision = evaluate_gate(
      policy_, request, gate_usable, prepared.load_per_core, gate_capacity);
  const double gate_seconds = gate_span.stop();

  AllocStats stats;
  if (decision.action == BrokerDecision::Action::kWait) {
    waits_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics::broker_waits().inc();
    NLARM_DEBUG << "broker verdict (epoch " << prepared.epoch << "): wait — "
                << decision.reason;
  } else {
    // Candidate generation fans out over the refresh pool at the default
    // threshold; with one refresh thread there is no pool and it stays
    // serial.
    std::shared_ptr<util::ThreadPool> pool;
    {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      pool = refresh_pool_;
    }
    GenerationOptions generation;
    generation.pool = pool.get();
    if (pool == nullptr) generation.parallel_threshold = -1;
    if (hierarchy_.has_value() && prepared.tiles != nullptr) {
      decision.allocation =
          allocate_two_phase(prepared, request, *hierarchy_, generation,
                             &stats, /*hier=*/nullptr, pc_override, starts);
    } else {
      decision.allocation = allocate_prepared(prepared, request, generation,
                                              &stats, pc_override, starts);
    }
    decision.reason = util::format(
        "allocated %d node(s) via %s", decision.allocation.node_count(),
        decision.allocation.policy.c_str());
    obs::metrics::broker_allocations().inc();
    NLARM_DEBUG << "broker verdict (epoch " << prepared.epoch
                << "): " << decision.reason;
  }

  const double total_seconds = decide_span.stop();
  obs::metrics::serve_decide_sketch().observe(total_seconds);

  const bool allocated = decision.action == BrokerDecision::Action::kAllocate;
  audit(*prepared.snapshot, &prepared, request, decision, gate_usable,
        note_or(degradation_note,
                prepared.degraded ? "degraded-epoch" : "none"),
        allocated ? &stats : nullptr, gate_seconds, total_seconds);
  return decision;
}

const PreparedSnapshot* ResourceBroker::resolve_degraded(
    const PreparedSnapshot& current,
    std::shared_ptr<const PreparedSnapshot>& keepalive, const char*& note,
    double& last_good_age) {
  note = "";
  last_good_age = 0.0;
  if (!degradation_.has_value() || !current.usable.empty()) return &current;
  keepalive = publisher_.last_good();
  // With no last-good epoch at all there is nothing to fall back to; the
  // gate's min_usable_nodes check turns the poisoned epoch into a wait.
  if (keepalive == nullptr) return &current;
  last_good_age = current.time - keepalive->time;
  if (last_good_age > degradation_->max_epoch_age_s) return nullptr;
  fallbacks_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics::broker_fallback_decisions().inc();
  note = "last-good-fallback";
  return keepalive.get();
}

BrokerDecision ResourceBroker::refuse_stale(const PreparedSnapshot& prepared,
                                            const AllocationRequest& request,
                                            double last_good_age) {
  request.validate();
  decisions_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics::broker_decisions().inc();
  obs::metrics::broker_epoch_decisions().inc();
  waits_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics::broker_waits().inc();
  refusals_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics::broker_stale_refusals().inc();

  BrokerDecision decision;
  decision.action = BrokerDecision::Action::kWait;
  decision.cluster_load_per_core = prepared.load_per_core;
  decision.effective_capacity = 0;
  decision.reason = util::format(
      "current epoch has no usable nodes and the last-good epoch is "
      "%.0f s stale (bound %.0f s) — refusing to decide",
      last_good_age, degradation_->max_epoch_age_s);
  NLARM_WARN << "broker verdict (epoch " << prepared.epoch << "): wait — "
             << decision.reason;

  // The refused epoch has no usable nodes, so the record's gate aggregates
  // (load per core, capacity) are zero.
  audit(*prepared.snapshot, &prepared, request, decision, /*usable_nodes=*/0,
        "refused-stale", /*stats=*/nullptr, /*gate_seconds=*/0.0,
        /*total_seconds=*/0.0);
  return decision;
}

BrokerDecision ResourceBroker::decide(const EpochPin& pin,
                                      const AllocationRequest& request) {
  NLARM_CHECK(pin.valid())
      << "no epoch pinned — publish one with refresh_epoch() first";
  std::shared_ptr<const PreparedSnapshot> keepalive;
  const char* note = "";
  double last_good_age = 0.0;
  const PreparedSnapshot* prepared =
      resolve_degraded(*pin.prepared, keepalive, note, last_good_age);
  if (prepared == nullptr) {
    return refuse_stale(*pin.prepared, request, last_good_age);
  }
  return decide_prepared(*prepared, request, /*pc_override=*/{},
                         /*starts=*/{}, prepared->usable.size(),
                         prepared->effective_capacity, note);
}

std::vector<BrokerDecision> ResourceBroker::decide_batch(
    const EpochPin& pin, std::span<const AllocationRequest> requests) {
  NLARM_CHECK(pin.valid())
      << "no epoch pinned — publish one with refresh_epoch() first";
  std::shared_ptr<const PreparedSnapshot> keepalive;
  const char* note = "";
  double last_good_age = 0.0;
  const PreparedSnapshot* resolved =
      resolve_degraded(*pin.prepared, keepalive, note, last_good_age);
  if (resolved == nullptr) {
    std::vector<BrokerDecision> refused;
    refused.reserve(requests.size());
    for (const AllocationRequest& request : requests) {
      refused.push_back(refuse_stale(*pin.prepared, request, last_good_age));
    }
    return refused;
  }
  const PreparedSnapshot& prepared = *resolved;
  obs::metrics::broker_batches().inc();
  obs::metrics::broker_batch_requests().inc(requests.size());

  // Working copy of the epoch's capacities; every admitted request debits
  // the processes it took, so later requests in the batch compete only for
  // what is left.
  std::vector<int> remaining = prepared.pc;
  int remaining_capacity = prepared.effective_capacity;
  std::vector<std::size_t> starts;
  std::vector<BrokerDecision> decisions;
  decisions.reserve(requests.size());

  // Admission wait: enqueue → scored. Each request's observation covers the
  // time it spent queued behind the earlier ones PLUS its own scoring pass,
  // so the sketch reflects what a caller actually waited for a verdict —
  // not just its queue position at batch start.
  const double batch_start = obs::trace_clock_seconds();

  for (const AllocationRequest& request : requests) {
    starts.clear();
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      if (remaining[i] > 0) starts.push_back(i);
    }
    // With zero nodes left the gate's min_usable_nodes check forces a wait,
    // so the empty `starts` span never reaches candidate generation.
    BrokerDecision decision =
        decide_prepared(prepared, request, remaining, starts, starts.size(),
                        remaining_capacity, note);
    obs::metrics::admission_wait_sketch().observe(
        obs::trace_clock_seconds() - batch_start);
    if (decision.action == BrokerDecision::Action::kAllocate) {
      const Allocation& alloc = decision.allocation;
      for (std::size_t i = 0; i < alloc.nodes.size(); ++i) {
        const auto id = static_cast<std::size_t>(alloc.nodes[i]);
        NLARM_CHECK(id < prepared.pos_of.size()) << "allocated unknown node";
        const std::int32_t pos = prepared.pos_of[id];
        NLARM_CHECK(pos >= 0) << "allocated node outside the working set";
        // Round-robin oversubscription can hand a node more processes than
        // its remaining capacity; the debit floors at zero.
        const int take =
            std::min(alloc.procs_per_node[i],
                     remaining[static_cast<std::size_t>(pos)]);
        remaining[static_cast<std::size_t>(pos)] -= take;
        remaining_capacity -= take;
      }
    }
    decisions.push_back(std::move(decision));
  }
  return decisions;
}

BrokerDecision ResourceBroker::replay_decision(
    const PreparedSnapshot& prepared, const AllocationRequest& request,
    const BrokerDecision& cached, const char* degradation_note) {
  decisions_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics::broker_decisions().inc();
  obs::metrics::broker_epoch_decisions().inc();
  obs::ScopedSpan decide_span("broker.decide");

  // Byte-identical replay of the scoring pass that produced the entry; the
  // serve plane has already re-proven capacity headroom via the ledger.
  // Only kAllocate decisions are cached, so this is always an allocation.
  BrokerDecision decision = cached;
  obs::metrics::broker_allocations().inc();
  const double total_seconds = decide_span.stop();
  obs::metrics::serve_decide_sketch().observe(total_seconds);

  audit(*prepared.snapshot, &prepared, request, decision,
        prepared.usable.size(), note_or(degradation_note, "cache-replay"),
        /*stats=*/nullptr, /*gate_seconds=*/0.0, total_seconds);
  return decision;
}

}  // namespace nlarm::core
