#include "core/degrade.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "obs/catalog.h"
#include "util/check.h"
#include "util/logging.h"

namespace nlarm::core {

void DegradationPolicy::validate() const {
  NLARM_CHECK(node_staleness_budget_s > 0.0)
      << "node staleness budget must be positive";
  NLARM_CHECK(node_readmit_s > 0.0 &&
              node_readmit_s <= node_staleness_budget_s)
      << "readmit threshold must be in (0, budget]";
  NLARM_CHECK(pair_staleness_budget_s > 0.0)
      << "pair staleness budget must be positive";
  NLARM_CHECK(pair_penalty >= 1.0) << "pair penalty must be >= 1";
  NLARM_CHECK(max_epoch_age_s > 0.0) << "max epoch age must be positive";
  NLARM_CHECK(block_quarantine_fraction > 0.0 &&
              block_quarantine_fraction <= 1.0)
      << "block quarantine fraction must be in (0, 1]";
}

Degrader::Degrader(DegradationPolicy policy) : policy_(policy) {
  policy_.validate();
}

void Degrader::reset(std::size_t n) {
  n_ = n;
  node_quarantined_.assign(n, 0);
  block_overlay_.assign(n, 0);
  pair_fallback_.assign(n * n, 0);
  quarantined_count_ = 0;
  block_overlay_count_ = 0;
  pair_fallback_count_ = 0;
  expiry_.clear();
  applied_ = false;
}

namespace {

/// The unordered pair's last write time: the later of its two directions'
/// (< 0 when never measured). The freshest direction decides for the pair
/// (daemons write both orders together), and now − this time is, bit for
/// bit, the smaller of the two directional ages, since floating-point
/// subtraction is monotone.
double pair_write_time(const monitor::StalenessView& view, std::size_t u,
                       std::size_t v) {
  return std::max(view.pair_time(u, v), view.pair_time(v, u));
}

}  // namespace

DegradationOutcome Degrader::apply(
    std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
    const monitor::StalenessView& staleness) {
  return degrade(std::move(snapshot), nullptr, staleness);
}

DegradationOutcome Degrader::apply(
    std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
    const monitor::SnapshotDelta& delta,
    const monitor::StalenessView& staleness) {
  return degrade(std::move(snapshot), &delta, staleness);
}

DegradationOutcome Degrader::degrade(
    std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
    const monitor::SnapshotDelta* delta,
    const monitor::StalenessView& staleness) {
  NLARM_CHECK(snapshot != nullptr) << "degrading a null snapshot";
  const std::size_t n = snapshot->nodes.size();
  NLARM_CHECK(staleness.node.size() == n &&
              staleness.latency_time.size() == n &&
              staleness.bandwidth_time.size() == n)
      << "staleness view does not match the snapshot (" << n << " nodes)";
  if (n != n_) reset(n);
  // Between chained applies only the dirty pairs' write times moved, and
  // ages only grew, so a fallback pair cannot have turned fresh unseen. A
  // clock stepped back (the chaos DSL's skew) breaks the second premise.
  const bool chains = delta != nullptr && applied_ && !delta->full &&
                      delta->base_version == applied_version_ &&
                      staleness.now >= applied_now_;

  DegradationOutcome outcome;

  // --- node quarantine with two-threshold hysteresis ---
  for (std::size_t id = 0; id < n; ++id) {
    const double age = staleness.node[id];
    const bool was = node_quarantined_[id] != 0;
    bool now = was;
    if (was) {
      if (age <= policy_.node_readmit_s) now = false;
    } else {
      if (age > policy_.node_staleness_budget_s) now = true;
    }
    // A node the snapshot cannot use anyway (dead, or record invalidated by
    // the monitor's own staleness filter) carries no quarantine state:
    // quarantining it would be a no-op and readmitting it later would
    // spuriously flag a membership change.
    const bool usable = snapshot->livehosts[id] && snapshot->nodes[id].valid;
    if (!usable) now = false;
    if (now != was) {
      node_quarantined_[id] = now ? 1 : 0;
      if (now) {
        ++quarantined_count_;
        obs::metrics::degrade_quarantine_events().inc();
        NLARM_INFO << "degrade: quarantined node " << id << " (record "
                   << age << " s old)";
      } else {
        --quarantined_count_;
        if (usable) obs::metrics::degrade_readmissions().inc();
        NLARM_INFO << "degrade: readmitted node " << id;
      }
      outcome.quarantine_changed = true;
    }
  }

  // --- block (switch) quarantine overlay ---
  // When most of a switch's usable nodes went stale together, the survivors
  // are probably reachable only on paper; take the whole block out. The
  // overlay is recomputed from the node states every apply(), so readmitting
  // the stale nodes dissolves it automatically.
  {
    std::map<cluster::SwitchId, std::pair<std::size_t, std::size_t>> blocks;
    for (std::size_t id = 0; id < n; ++id) {
      if (!snapshot->livehosts[id] || !snapshot->nodes[id].valid) continue;
      auto& [eligible, flagged] = blocks[snapshot->nodes[id].spec.switch_id];
      ++eligible;
      if (node_quarantined_[id]) ++flagged;
    }
    std::size_t overlay_count = 0;
    for (std::size_t id = 0; id < n; ++id) {
      const bool usable = snapshot->livehosts[id] && snapshot->nodes[id].valid;
      bool overlay = false;
      if (usable && !node_quarantined_[id]) {
        const auto& [eligible, flagged] =
            blocks[snapshot->nodes[id].spec.switch_id];
        overlay = flagged > 0 &&
                  static_cast<double>(flagged) >=
                      policy_.block_quarantine_fraction *
                          static_cast<double>(eligible);
      }
      const bool was = block_overlay_[id] != 0;
      if (overlay != was) {
        block_overlay_[id] = overlay ? 1 : 0;
        outcome.quarantine_changed = true;
        if (overlay) {
          obs::metrics::degrade_block_quarantine_events().inc();
          NLARM_INFO << "degrade: block-quarantined node " << id
                     << " (switch " << snapshot->nodes[id].spec.switch_id
                     << " mostly stale)";
        } else {
          NLARM_INFO << "degrade: block-readmitted node " << id;
        }
      }
      if (overlay) ++overlay_count;
    }
    block_overlay_count_ = overlay_count;
  }

  // --- pair fallback tracking (unordered, u < v) ---
  if (chains) {
    expire_pairs(*delta, staleness, outcome);
  } else {
    walk_pairs(staleness, outcome);
  }
  applied_ = true;
  applied_version_ = delta != nullptr ? delta->version : snapshot->version;
  applied_now_ = staleness.now;

  outcome.quarantined = quarantined_count_ + block_overlay_count_;
  outcome.block_quarantined = block_overlay_count_;
  outcome.pair_fallbacks = pair_fallback_count_;
  obs::metrics::degrade_quarantined_nodes().set(
      static_cast<double>(quarantined_count_));
  obs::metrics::degrade_block_quarantined_nodes().set(
      static_cast<double>(block_overlay_count_));
  obs::metrics::degrade_pair_fallbacks().set(
      static_cast<double>(pair_fallback_count_));

  if (quarantined_count_ == 0 && block_overlay_count_ == 0 &&
      pair_fallback_count_ == 0) {
    // Nothing to rewrite: pass the input through untouched so fresh-data
    // epochs stay bit-identical to the undegraded pipeline, copy-free.
    outcome.snapshot = std::move(snapshot);
    return outcome;
  }

  // The copy shares every pair matrix with the input; only the two that
  // fallback pairs rewrite detach, and reads go to the const input so the
  // other two stay shared.
  auto copy = std::make_shared<monitor::ClusterSnapshot>(*snapshot);
  for (std::size_t id = 0; id < n; ++id) {
    if (node_quarantined_[id] || block_overlay_[id]) {
      copy->livehosts[id] = false;
    }
  }
  const monitor::NetSnapshot& in = snapshot->net;
  for (std::size_t u = 0; u < n && pair_fallback_count_ > 0; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (!pair_fallback_[u * n + v]) continue;
      // Serve the 5-minute mean with a pessimism penalty, both directions.
      // Unmeasured cells (-1 sentinels) stay unmeasured.
      for (const auto& [a, b] : {std::pair{u, v}, std::pair{v, u}}) {
        const double lat5 = in.latency_5min_us[a][b];
        if (lat5 >= 0.0) {
          copy->net.latency_us[a][b] = lat5 * policy_.pair_penalty;
        }
        const double bw = in.bandwidth_mbps[a][b];
        const double peak = in.peak_mbps[a][b];
        if (bw >= 0.0 && peak >= 0.0) {
          const double deficit =
              std::max(0.0, peak - bw) * policy_.pair_penalty;
          copy->net.bandwidth_mbps[a][b] = std::max(0.0, peak - deficit);
        }
      }
    }
  }
  outcome.degraded = true;
  outcome.snapshot = std::move(copy);
  return outcome;
}

bool Degrader::pair_stale(double time, double now) const {
  // Never-measured pairs have nothing to fall back to and stay out.
  if (time < 0.0) return false;
  const double age = now - time;
  return std::isfinite(age) && age > policy_.pair_staleness_budget_s;
}

void Degrader::settle_pair(std::size_t u, std::size_t v, double time,
                           double now, DegradationOutcome& outcome) {
  const bool stale = pair_stale(time, now);
  char& fallback = pair_fallback_[u * n_ + v];
  if (stale != (fallback != 0)) {
    fallback = stale ? 1 : 0;
    pair_fallback_count_ += stale ? 1 : std::size_t(-1);
    outcome.changed_pairs.emplace_back(static_cast<cluster::NodeId>(u),
                                       static_cast<cluster::NodeId>(v));
  }
  if (!stale && time >= 0.0) {
    expiry_[time].emplace_back(static_cast<cluster::NodeId>(u),
                               static_cast<cluster::NodeId>(v));
  }
}

void Degrader::walk_pairs(const monitor::StalenessView& staleness,
                          DegradationOutcome& outcome) {
  expiry_.clear();
  for (std::size_t u = 0; u < n_; ++u) {
    for (std::size_t v = u + 1; v < n_; ++v) {
      settle_pair(u, v, pair_write_time(staleness, u, v), staleness.now,
                  outcome);
    }
  }
}

void Degrader::expire_pairs(const monitor::SnapshotDelta& delta,
                            const monitor::StalenessView& staleness,
                            DegradationOutcome& outcome) {
  const double now = staleness.now;
  for (const auto& [a, b] : delta.dirty_pairs) {
    NLARM_CHECK(a >= 0 && b >= 0 && static_cast<std::size_t>(a) < n_ &&
                static_cast<std::size_t>(b) < n_)
        << "dirty pair (" << a << ", " << b << ") out of " << n_ << " nodes";
    if (a == b) continue;
    const auto u = static_cast<std::size_t>(std::min(a, b));
    const auto v = static_cast<std::size_t>(std::max(a, b));
    settle_pair(u, v, pair_write_time(staleness, u, v), now, outcome);
  }
  // Every measured pair off the fallback has an entry at its current write
  // time, so the pairs that crossed the budget since the last apply are
  // exactly the current entries in the aged-out front of the queue.
  while (!expiry_.empty() && pair_stale(expiry_.begin()->first, now)) {
    const auto front = expiry_.begin();
    for (const auto& [u, v] : front->second) {
      const auto uu = static_cast<std::size_t>(u);
      const auto vv = static_cast<std::size_t>(v);
      if (pair_write_time(staleness, uu, vv) != front->first) {
        continue;  // rewritten since it was queued
      }
      settle_pair(uu, vv, front->first, now, outcome);
    }
    expiry_.erase(front);
  }
}

}  // namespace nlarm::core
