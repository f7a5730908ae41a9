#include "core/hierarchical.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "core/candidate.h"
#include "core/compute_load.h"
#include "core/network_load.h"
#include "core/normalize.h"
#include "core/selection.h"
#include "obs/catalog.h"
#include "obs/trace.h"
#include "sim/rng.h"
#include "util/check.h"

namespace nlarm::core {

namespace {

/// Level-1 Algorithms 1+2 over group aggregates: normalizes the two raw
/// aggregate terms over group pairs, combines them (Eq. 2 at group
/// granularity), and picks the best group subset. Returns sorted block
/// indices. Groups with zero capacity never start a candidate (batch
/// admission can drain a whole block).
std::vector<std::size_t> choose_blocks(std::span<const double> group_cl,
                                       const util::FlatMatrix& group_lat,
                                       const util::FlatMatrix& group_cmp,
                                       std::span<const int> group_capacity,
                                       const AllocationRequest& request,
                                       const GenerationOptions& gen) {
  const std::size_t g = group_cl.size();
  if (g == 1) {
    return {0};
  }
  util::FlatMatrix group_nl(g, 0.0);
  std::vector<double> lat_flat;
  std::vector<double> cmp_flat;
  lat_flat.reserve(g * (g - 1) / 2);
  cmp_flat.reserve(g * (g - 1) / 2);
  for (std::size_t a = 0; a < g; ++a) {
    for (std::size_t b = a + 1; b < g; ++b) {
      lat_flat.push_back(group_lat[a][b]);
      cmp_flat.push_back(group_cmp[a][b]);
    }
  }
  const auto lat_norm = normalize_by_sum(lat_flat);
  const auto cmp_norm = normalize_by_sum(cmp_flat);
  std::size_t k = 0;
  for (std::size_t a = 0; a < g; ++a) {
    for (std::size_t b = a + 1; b < g; ++b, ++k) {
      const double value = request.network_weights.latency * lat_norm[k] +
                           request.network_weights.bandwidth * cmp_norm[k];
      group_nl[a][b] = group_nl[b][a] = value;
    }
  }
  const std::vector<double> group_cl_scaled =
      rescale_unit_mean({group_cl.begin(), group_cl.end()});
  rescale_unit_mean_inplace(group_nl);

  std::vector<std::size_t> group_starts;
  group_starts.reserve(g);
  for (std::size_t a = 0; a < g; ++a) {
    if (group_capacity[a] > 0) group_starts.push_back(a);
  }
  NLARM_CHECK(!group_starts.empty()) << "no capacity in any block";

  std::vector<Candidate> candidates =
      generate_all_candidates(group_cl_scaled, group_nl, group_capacity,
                              request.nprocs, request.job, group_starts, gen);
  const SelectionResult selection = select_best_candidate(
      std::move(candidates), group_cl_scaled, group_nl, request.job);
  std::vector<std::size_t> chosen =
      selection.scored[selection.best_index].candidate.members;
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

}  // namespace

void HierarchicalOptions::validate() const {
  NLARM_CHECK(pair_sample >= 0) << "negative pair sample";
}

HierarchicalAllocator::HierarchicalAllocator(HierarchicalOptions options)
    : options_(options) {
  options_.validate();
}

std::vector<NodeGroup> form_groups(
    const monitor::ClusterSnapshot& snapshot,
    const std::vector<cluster::NodeId>& usable) {
  std::map<cluster::SwitchId, NodeGroup> by_switch;
  for (cluster::NodeId id : usable) {
    const monitor::NodeSnapshot& node =
        snapshot.nodes[static_cast<std::size_t>(id)];
    NodeGroup& group = by_switch[node.spec.switch_id];
    group.switch_id = node.spec.switch_id;
    group.nodes.push_back(id);
  }
  std::vector<NodeGroup> groups;
  groups.reserve(by_switch.size());
  for (auto& [sw, group] : by_switch) groups.push_back(std::move(group));
  return groups;
}

Allocation allocate_two_phase(const PreparedSnapshot& prepared,
                              const AllocationRequest& request,
                              const HierarchicalOptions& options,
                              const GenerationOptions& gen, AllocStats* stats,
                              HierStats* hier,
                              std::span<const int> pc_override,
                              std::span<const std::size_t> starts) {
  request.validate();
  options.validate();
  NLARM_CHECK(RequestProfile::of(request) == prepared.profile)
      << "request profile does not match the epoch's prepared inputs";
  NLARM_CHECK(prepared.snapshot != nullptr) << "epoch carries no snapshot";
  NLARM_CHECK(prepared.tiles != nullptr)
      << "epoch carries no tiled pair state (builder not in tiled mode?)";
  NLARM_CHECK(!prepared.usable.empty()) << "no usable nodes in epoch";
  const std::span<const int> pc =
      pc_override.empty() ? std::span<const int>(prepared.pc) : pc_override;
  NLARM_CHECK(pc.size() == prepared.usable.size())
      << "pc override size mismatch";

  const TiledPairState& tiled = *prepared.tiles;
  const util::BlockPartition& part = tiled.partition;
  const std::size_t g = part.block_count();
  NLARM_CHECK(part.position_count() == prepared.usable.size())
      << "tiled partition does not cover the epoch's working set";

  HierStats local_hier;
  HierStats& hs = hier != nullptr ? *hier : local_hier;
  hs = HierStats{};
  hs.groups = g;
  obs::metrics::hier_decisions().inc();

  // ---- Phase 1: block selection over O(G²) aggregates -------------------
  // Pruning is only sound when the candidate set may shrink: with a single
  // block, or below the two-phase threshold, every block is kept and the
  // result stays bit-identical to the flat fast path (the covering regime).
  const bool prune =
      g > 1 && prepared.usable.size() >= options.two_phase_min_nodes;
  obs::ScopedSpan phase1_span("hier.phase1",
                              &obs::metrics::hier_phase1_seconds());
  std::vector<std::size_t> chosen;
  if (prune) {
    std::vector<double> group_cl(g, 0.0);
    std::vector<int> group_capacity(g, 0);
    for (std::size_t b = 0; b < g; ++b) {
      double cl_sum = 0.0;
      for (const std::size_t pos : part.members(b)) {
        cl_sum += prepared.cl[pos];
        group_capacity[b] += pc[pos];
      }
      group_cl[b] = cl_sum / static_cast<double>(part.members(b).size());
    }
    util::FlatMatrix group_lat(g, 0.0);
    util::FlatMatrix group_cmp(g, 0.0);
    for (std::size_t a = 0; a < g; ++a) {
      for (std::size_t b = a + 1; b < g; ++b) {
        const TiledPairState::TileAggregate& agg =
            tiled.tiles[part.tile_index(a, b)];
        group_lat[a][b] = group_lat[b][a] = agg.lat_mean;
        group_cmp[a][b] = group_cmp[b][a] = agg.comp_mean;
      }
    }
    chosen = choose_blocks(group_cl, group_lat, group_cmp, group_capacity,
                           request, gen);
    obs::metrics::hier_pruned_decisions().inc();
  } else {
    chosen.resize(g);
    std::iota(chosen.begin(), chosen.end(), std::size_t{0});
  }
  hs.phase1_seconds = phase1_span.stop();
  hs.pruned = prune;
  hs.chosen_groups = chosen.size();
  hs.chosen_blocks = chosen;
  obs::metrics::hier_blocks_chosen().inc(chosen.size());

  // ---- Phase 2: the flat fast path over the chosen blocks' nodes --------
  if (!prune && prepared.nl != nullptr) {
    // Covering with the dense matrix still published: phase 2 IS the flat
    // fast path — delegate outright (trivially bit-identical).
    obs::ScopedSpan phase2_span("hier.phase2",
                                &obs::metrics::hier_phase2_seconds());
    Allocation allocation =
        allocate_prepared(prepared, request, gen, stats, pc_override, starts);
    hs.pool_nodes = prepared.usable.size();
    hs.phase2_seconds = phase2_span.stop();
    allocation.policy = "hierarchical";
    return allocation;
  }

  obs::metrics::alloc_requests().inc();
  AllocStats local_stats;
  AllocStats& out_stats = stats != nullptr ? *stats : local_stats;
  out_stats = AllocStats{};
  out_stats.usable_nodes = prepared.usable.size();
  obs::ScopedSpan total_span("alloc.total",
                             &obs::metrics::alloc_total_seconds());
  obs::ScopedSpan phase2_span("hier.phase2",
                              &obs::metrics::hier_phase2_seconds());

  // Pool = member positions of the chosen blocks, ascending, so the pool
  // inherits the working set's canonical order (covering pool == the full
  // working set, reproducing the flat path's start order exactly).
  std::vector<std::size_t> pool;
  for (const std::size_t b : chosen) {
    const auto members = part.members(b);
    pool.insert(pool.end(), members.begin(), members.end());
  }
  std::sort(pool.begin(), pool.end());
  const std::size_t w = pool.size();
  hs.pool_nodes = w;
  std::vector<std::int32_t> pos_in_pool(prepared.usable.size(), -1);
  for (std::size_t i = 0; i < w; ++i) {
    pos_in_pool[pool[i]] = static_cast<std::int32_t>(i);
  }

  // Pool inputs keep the epoch's GLOBAL canonical normalization — CL and NL
  // values are the same numbers the flat path sees, just restricted to the
  // pool (select_best_candidate renormalizes over the candidate set anyway).
  std::vector<double> pool_cl(w);
  std::vector<int> pool_pc(w);
  std::vector<cluster::NodeId> pool_nodes(w);
  for (std::size_t i = 0; i < w; ++i) {
    pool_cl[i] = prepared.cl[pool[i]];
    pool_pc[i] = pc[pool[i]];
    pool_nodes[i] = prepared.usable[pool[i]];
  }

  const std::size_t tiles_before = tiled.tiles_materialized();
  const std::size_t hits_before = tiled.tile_cache_hits();
  util::FlatMatrix pool_nl(w, 0.0);
  double* const pool_values = pool_nl.data();
  for (std::size_t x = 0; x < chosen.size(); ++x) {
    for (std::size_t y = x; y < chosen.size(); ++y) {
      const std::size_t a = chosen[x];
      const std::size_t b = chosen[y];
      const std::span<const double> tile = tiled.tile_values(a, b);
      const auto rows = part.members(a);
      const auto cols = part.members(b);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        const auto pr = static_cast<std::size_t>(pos_in_pool[rows[r]]);
        for (std::size_t c = 0; c < cols.size(); ++c) {
          const auto pcol = static_cast<std::size_t>(pos_in_pool[cols[c]]);
          const double value = tile[r * cols.size() + c];
          pool_values[pr * w + pcol] = value;
          pool_values[pcol * w + pr] = value;
        }
      }
    }
  }
  hs.tiles_materialized = tiled.tiles_materialized() - tiles_before;
  hs.tile_cache_hits = tiled.tile_cache_hits() - hits_before;
  obs::metrics::hier_tiles_materialized().inc(hs.tiles_materialized);
  obs::metrics::hier_tile_cache_hits().inc(hs.tile_cache_hits);

  // Batch-admission starts are working-set positions; keep their order while
  // dropping the ones phase 1 pruned away.
  std::vector<std::size_t> pool_starts;
  if (!starts.empty()) {
    pool_starts.reserve(starts.size());
    for (const std::size_t s : starts) {
      if (pos_in_pool[s] >= 0) {
        pool_starts.push_back(static_cast<std::size_t>(pos_in_pool[s]));
      }
    }
    NLARM_CHECK(!pool_starts.empty())
        << "no admissible start survived phase-1 pruning";
  }

  Allocation allocation = detail::allocate_working_set(
      pool_cl, pool_nl, pool_pc, pool_nodes, *prepared.snapshot, request,
      pool_starts, gen, "hierarchical", out_stats);
  hs.phase2_seconds = phase2_span.stop();
  out_stats.total_seconds = total_span.stop();
  out_stats.valid = true;
  return allocation;
}

Allocation HierarchicalAllocator::allocate(
    const monitor::ClusterSnapshot& snapshot,
    const AllocationRequest& request) {
  request.validate();
  const std::vector<cluster::NodeId> usable = snapshot.usable_nodes();
  NLARM_CHECK(!usable.empty()) << "no usable nodes in snapshot";

  // Per-node costs once (normalized over the full usable set).
  const std::vector<double> node_cl = rescale_unit_mean(
      compute_loads(snapshot, usable, request.compute_weights));
  const std::vector<int> node_pc =
      effective_process_counts(snapshot, usable, request.ppn);
  std::map<cluster::NodeId, std::size_t> usable_index;
  for (std::size_t i = 0; i < usable.size(); ++i) usable_index[usable[i]] = i;

  // Diagnostics: the switch groups with their aggregates. With the default
  // switch partition (block_size == 0) these are index-aligned with the
  // phase-1 blocks (both ascend by switch id).
  groups_ = form_groups(snapshot, usable);
  for (NodeGroup& group : groups_) {
    double cl_sum = 0.0;
    group.capacity = 0;
    for (cluster::NodeId id : group.nodes) {
      const std::size_t i = usable_index.at(id);
      cl_sum += node_cl[i];
      group.capacity += node_pc[i];
    }
    group.compute_load = cl_sum / static_cast<double>(group.nodes.size());
  }

  if (options_.pair_sample == 0) {
    // Exact mode: run the real two-phase path against a tiled epoch built
    // from this snapshot (phase-1 aggregates from exact tile accumulators).
    const auto snapshot_ref = std::shared_ptr<const monitor::ClusterSnapshot>(
        std::shared_ptr<const void>(), &snapshot);
    TilingOptions tiling;
    tiling.block_size = options_.block_size;
    tiling.dense_nl_limit = 0;  // phase 2 materializes only chosen tiles
    PreparedBuilder builder(RequestProfile::of(request), tiling);
    builder.rebuild(snapshot_ref);
    const std::shared_ptr<PreparedSnapshot> prepared = builder.build();
    Allocation allocation =
        allocate_two_phase(*prepared, request, options_, {}, nullptr, &stats_);
    chosen_ = stats_.chosen_blocks;
    return allocation;
  }

  // Sampled mode — the measurement-frugal deployment path: inter-group
  // aggregates come from a bounded seeded sample of cross pairs (O(G²·s)
  // probe reads instead of O(V²)), and phase 2 prepares canonical inputs
  // over the chosen pool only.
  const std::size_t g = groups_.size();
  util::FlatMatrix group_lat(g, 0.0);
  util::FlatMatrix group_cmp(g, 0.0);
  sim::Rng root(options_.sample_seed);
  for (std::size_t a = 0; a < g; ++a) {
    for (std::size_t b = a + 1; b < g; ++b) {
      // One independent stream per group pair: sampling is reproducible
      // under a fixed seed no matter how G or the iteration order evolves.
      sim::Rng rng = root.fork(static_cast<std::uint64_t>(a) * g + b);
      const auto& na = groups_[a].nodes;
      const auto& nb = groups_[b].nodes;
      const std::size_t total = na.size() * nb.size();
      const std::size_t want = std::min<std::size_t>(
          total, static_cast<std::size_t>(options_.pair_sample));
      double lat_sum = 0.0;
      double cmp_sum = 0.0;
      std::size_t counted = 0;
      for (std::size_t k = 0; k < want; ++k) {
        const auto idx = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(total) - 1));
        const cluster::NodeId u = na[idx % na.size()];
        const cluster::NodeId v = nb[idx / na.size()];
        const PairMetrics m = pair_metrics(snapshot, u, v);
        if (m.latency_us >= 0.0) lat_sum += m.latency_us;
        if (m.bandwidth_complement_mbps >= 0.0) {
          cmp_sum += m.bandwidth_complement_mbps;
        }
        ++counted;
      }
      const double denom =
          static_cast<double>(std::max<std::size_t>(1, counted));
      group_lat[a][b] = group_lat[b][a] = lat_sum / denom;
      group_cmp[a][b] = group_cmp[b][a] = cmp_sum / denom;
    }
  }

  std::vector<double> group_cl(g);
  std::vector<int> group_capacity(g);
  for (std::size_t a = 0; a < g; ++a) {
    group_cl[a] = groups_[a].compute_load;
    group_capacity[a] = groups_[a].capacity;
  }

  stats_ = HierStats{};
  stats_.groups = g;
  const bool prune = g > 1 && usable.size() >= options_.two_phase_min_nodes;
  obs::metrics::hier_decisions().inc();
  obs::ScopedSpan phase1_span("hier.phase1",
                              &obs::metrics::hier_phase1_seconds());
  if (prune) {
    chosen_ = choose_blocks(group_cl, group_lat, group_cmp, group_capacity,
                            request, {});
    obs::metrics::hier_pruned_decisions().inc();
  } else {
    chosen_.resize(g);
    std::iota(chosen_.begin(), chosen_.end(), std::size_t{0});
  }
  stats_.phase1_seconds = phase1_span.stop();
  stats_.pruned = prune;
  stats_.chosen_groups = chosen_.size();
  stats_.chosen_blocks = chosen_;
  obs::metrics::hier_blocks_chosen().inc(chosen_.size());

  // ---- Level 2: nodes of the chosen groups ------------------------------
  obs::ScopedSpan phase2_span("hier.phase2",
                              &obs::metrics::hier_phase2_seconds());
  std::vector<cluster::NodeId> pool;
  for (std::size_t member : chosen_) {
    const auto& nodes = groups_[member].nodes;
    pool.insert(pool.end(), nodes.begin(), nodes.end());
  }
  std::sort(pool.begin(), pool.end());
  stats_.pool_nodes = pool.size();

  const std::vector<double> pool_cl = rescale_unit_mean(
      compute_loads(snapshot, pool, request.compute_weights));
  util::FlatMatrix pool_nl;
  prepared_network_loads(snapshot, pool, request.network_weights, pool_nl);
  const std::vector<int> pool_pc =
      effective_process_counts(snapshot, pool, request.ppn);

  // This allocator exposes no AllocStats; the core still observes the
  // alloc generate/select series like every other entry point.
  AllocStats pool_stats;
  Allocation allocation = detail::allocate_working_set(
      pool_cl, pool_nl, pool_pc, pool, snapshot, request, /*starts=*/{},
      /*options=*/{}, "hierarchical", pool_stats);
  stats_.phase2_seconds = phase2_span.stop();
  return allocation;
}

}  // namespace nlarm::core
