#include "core/serve_shard.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "obs/catalog.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace nlarm::core {

void ServeOptions::validate() const {
  NLARM_CHECK(shards >= 1) << "need at least one serve shard";
}

// --- AdmissionLedger ---

AdmissionLedger::AdmissionLedger(std::uint64_t epoch, std::span<const int> pc)
    : epoch_(epoch), remaining_(pc.size()) {
  for (std::size_t i = 0; i < pc.size(); ++i) {
    remaining_[i].store(pc[i], std::memory_order_relaxed);
  }
}

bool AdmissionLedger::try_debit(std::span<const std::int32_t> positions,
                                std::span<const int> takes) {
  NLARM_CHECK(positions.size() == takes.size())
      << "debit positions/takes size mismatch";
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const auto pos = static_cast<std::size_t>(positions[i]);
    NLARM_CHECK(positions[i] >= 0 && pos < remaining_.size())
        << "debit position out of ledger range";
    std::atomic<int>& cell = remaining_[pos];
    int have = cell.load(std::memory_order_relaxed);
    for (;;) {
      if (have < takes[i]) {
        // Shortfall: undo the nodes already reserved so a concurrent fresh
        // pass sees the true remainders (all-or-nothing).
        for (std::size_t j = 0; j < i; ++j) {
          remaining_[static_cast<std::size_t>(positions[j])].fetch_add(
              takes[j], std::memory_order_relaxed);
        }
        return false;
      }
      if (cell.compare_exchange_weak(have, have - takes[i],
                                     std::memory_order_relaxed)) {
        break;
      }
    }
  }
  return true;
}

void AdmissionLedger::debit_clamped(std::int32_t position, int take) {
  const auto pos = static_cast<std::size_t>(position);
  NLARM_CHECK(position >= 0 && pos < remaining_.size())
      << "debit position out of ledger range";
  std::atomic<int>& cell = remaining_[pos];
  int have = cell.load(std::memory_order_relaxed);
  for (;;) {
    const int delta = std::min(have, take);
    if (delta <= 0) return;  // round-robin oversubscription floors at zero
    if (cell.compare_exchange_weak(have, have - delta,
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

int AdmissionLedger::snapshot(std::vector<int>& out,
                              std::vector<std::size_t>& starts) const {
  out.resize(remaining_.size());
  starts.clear();
  int total = 0;
  for (std::size_t i = 0; i < remaining_.size(); ++i) {
    const int left = remaining_[i].load(std::memory_order_relaxed);
    out[i] = left;
    if (left > 0) starts.push_back(i);
    total += left;
  }
  return total;
}

// --- ServePlane ---

struct ServePlane::CacheEntry {
  BrokerDecision decision;
  /// Working-set positions and process counts of the placement, precomputed
  /// at insert so a replay's capacity re-proof is two flat array walks.
  std::vector<std::int32_t> positions;
  std::vector<int> takes;
  /// The shard's pass count once this entry's scoring pass finished.
  std::uint64_t pass = 0;
};

struct ServePlane::Shard {
  std::mutex mutex;

  // Under `mutex`.
  EpochPin pin;
  std::unordered_map<ShapeKey, CacheEntry, ShapeKeyHash> cache;
  std::uint64_t cache_epoch = 0;  ///< cache cleared when the served epoch moves

  /// Scoring passes this shard has run. Written under `mutex`; decide()
  /// reads it before locking, so a cache entry with a higher `pass` was
  /// scored while that request queued.
  std::atomic<std::uint64_t> passes{0};
};

std::size_t ServePlane::ShapeKeyHash::operator()(const ShapeKey& key) const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.nprocs)));
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.ppn)));
  mix(key.alpha_bits);
  mix(key.beta_bits);
  return static_cast<std::size_t>(h);
}

ServePlane::ServePlane(ResourceBroker& broker, ServeOptions options)
    : broker_(broker), options_(options) {
  options_.validate();
  NLARM_CHECK(broker_.epoch() != 0)
      << "publish an epoch with refresh_epoch() before starting the serve "
         "plane";
  shards_.reserve(static_cast<std::size_t>(options_.shards));
  for (int s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  obs::metrics::serve_shards().set(static_cast<double>(options_.shards));
  NLARM_INFO << "serve plane up: " << options_.shards << " shard(s), cache "
             << (options_.decision_cache ? "on" : "off");
}

ServePlane::~ServePlane() { stop(); }

BrokerDecision ServePlane::decide(const AllocationRequest& request) {
  const double arrival = obs::trace_clock_seconds();
  request.validate();
  Shard& shard = *shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) %
                          shards_.size()];
  const std::uint64_t passes_seen =
      shard.passes.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(shard.mutex);
  NLARM_CHECK(!stopped_.load(std::memory_order_relaxed))
      << "decide() on a stopped serve plane";
  broker_.refresh_pin(shard.pin);

  std::shared_ptr<const PreparedSnapshot> keepalive;
  const char* note = "";
  double last_good_age = 0.0;
  const PreparedSnapshot* prepared = broker_.resolve_degraded(
      *shard.pin.prepared, keepalive, note, last_good_age);
  BrokerDecision decision =
      prepared == nullptr
          ? broker_.refuse_stale(*shard.pin.prepared, request, last_good_age)
          : serve(shard, *prepared, note, request, passes_seen);

  decisions_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics::serve_plane_decisions().inc();
  // Admission wait: arrival → verdict, the wait for the shard's lock
  // included (what this caller actually waited for its verdict).
  obs::metrics::admission_wait_sketch().observe(obs::trace_clock_seconds() -
                                                arrival);
  return decision;
}

void ServePlane::stop() {
  stopped_.store(true, std::memory_order_relaxed);
  // Taking each lock waits out the decide that holds it; a decide that
  // locks after this sweep sees the flag (the unlock orders the store).
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->pin = EpochPin{};
  }
  obs::metrics::serve_shards().set(0.0);
}

ServeStats ServePlane::stats() const {
  ServeStats out;
  out.decisions = decisions_.load(std::memory_order_relaxed);
  out.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  out.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  out.cache_invalidations =
      cache_invalidations_.load(std::memory_order_relaxed);
  out.coalesced = coalesced_.load(std::memory_order_relaxed);
  out.scoring_passes = scoring_passes_.load(std::memory_order_relaxed);
  return out;
}

BrokerDecision ServePlane::serve(Shard& shard,
                                 const PreparedSnapshot& prepared,
                                 const char* note,
                                 const AllocationRequest& request,
                                 std::uint64_t passes_seen) {
  if (shard.cache_epoch != prepared.epoch) {
    shard.cache.clear();
    shard.cache_epoch = prepared.epoch;
  }
  const std::shared_ptr<AdmissionLedger> ledger =
      options_.debit_capacity ? ledger_for(prepared) : nullptr;

  ShapeKey key;
  key.nprocs = request.nprocs;
  key.ppn = request.ppn;
  key.alpha_bits = std::bit_cast<std::uint64_t>(request.job.alpha);
  key.beta_bits = std::bit_cast<std::uint64_t>(request.job.beta);

  if (options_.decision_cache) {
    const auto it = shard.cache.find(key);
    if (it != shard.cache.end()) {
      const CacheEntry& entry = it->second;
      // Replay only if every chosen node still has headroom after the debits
      // that landed since the entry was scored (all-or-nothing reservation).
      if (ledger == nullptr ||
          ledger->try_debit(entry.positions, entry.takes)) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        obs::metrics::serve_cache_hits().inc();
        if (entry.pass > passes_seen) {
          coalesced_.fetch_add(1, std::memory_order_relaxed);
          obs::metrics::serve_coalesced().inc();
        }
        return broker_.replay_decision(prepared, request, entry.decision,
                                       note);
      }
      shard.cache.erase(it);
      cache_invalidations_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics::serve_cache_invalidations().inc();
    }
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics::serve_cache_misses().inc();
  }

  BrokerDecision decision;
  if (ledger != nullptr) {
    // Fresh pass over what is left: post-debit capacities via the same
    // pc_override/starts mechanism decide_batch uses.
    std::vector<int> pc;
    std::vector<std::size_t> starts;
    const int capacity = ledger->snapshot(pc, starts);
    decision = broker_.decide_prepared(prepared, request, pc, starts,
                                       starts.size(), capacity, note);
  } else {
    decision = broker_.decide_prepared(prepared, request, /*pc_override=*/{},
                                       /*starts=*/{}, prepared.usable.size(),
                                       prepared.effective_capacity, note);
  }
  scoring_passes_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics::serve_scoring_passes().inc();
  const std::uint64_t pass =
      shard.passes.fetch_add(1, std::memory_order_relaxed) + 1;
  if (decision.action != BrokerDecision::Action::kAllocate) return decision;

  CacheEntry entry;
  entry.pass = pass;
  const Allocation& alloc = decision.allocation;
  entry.positions.reserve(alloc.nodes.size());
  entry.takes.reserve(alloc.nodes.size());
  for (std::size_t i = 0; i < alloc.nodes.size(); ++i) {
    const auto id = static_cast<std::size_t>(alloc.nodes[i]);
    NLARM_CHECK(id < prepared.pos_of.size()) << "allocated unknown node";
    const std::int32_t pos = prepared.pos_of[id];
    NLARM_CHECK(pos >= 0) << "allocated node outside the working set";
    entry.positions.push_back(pos);
    entry.takes.push_back(alloc.procs_per_node[i]);
  }
  if (ledger != nullptr) {
    // Clamped like decide_batch's working-copy debit: round-robin
    // oversubscription may grant more than a node's remainder.
    for (std::size_t i = 0; i < entry.positions.size(); ++i) {
      ledger->debit_clamped(entry.positions[i], entry.takes[i]);
    }
  }
  if (options_.decision_cache) {
    entry.decision = decision;
    shard.cache[key] = std::move(entry);
  }
  return decision;
}

std::shared_ptr<AdmissionLedger> ServePlane::ledger_for(
    const PreparedSnapshot& prepared) {
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  if (ledger_ == nullptr || ledger_->epoch() != prepared.epoch) {
    ledger_ = std::make_shared<AdmissionLedger>(prepared.epoch, prepared.pc);
  }
  return ledger_;
}

}  // namespace nlarm::core
