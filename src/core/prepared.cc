#include "core/prepared.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

#include "core/compute_load.h"
#include "core/normalize.h"
#include "core/selection.h"
#include "obs/catalog.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace nlarm::core {

namespace detail {

namespace {

/// Fork-join range count for `pool` over `items` units of work: one range
/// per worker plus the participating caller. The range count only affects
/// scheduling, never bits — partials fold with exact integer addition in
/// canonical range order, so ANY range count lands on the same totals.
std::size_t range_count_for(const util::ThreadPool* pool, std::size_t items) {
  if (pool == nullptr || pool->thread_count() == 0 || items < 2) return 1;
  return std::min(items, pool->thread_count() + 1);
}

/// Row-range boundaries [bounds[r], bounds[r+1]) over an n-row upper
/// triangle, balanced by pair count (row i carries n−1−i pairs, so equal
/// row counts would leave the first range with almost all the work).
std::vector<std::size_t> balanced_row_bounds(std::size_t n,
                                             std::size_t ranges) {
  std::vector<std::size_t> bounds(1, 0);
  if (ranges <= 1 || n == 0) {
    bounds.push_back(n);
    return bounds;
  }
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::uint64_t seen = 0;
  std::size_t row = 0;
  for (std::size_t r = 1; r < ranges; ++r) {
    const std::uint64_t target = total * r / ranges;
    while (row < n && seen < target) {
      seen += n - 1 - row;
      ++row;
    }
    bounds.push_back(row);
  }
  bounds.push_back(n);
  return bounds;
}

}  // namespace

void ExactSum::accumulate(double v, bool negate) {
  if (!(v > 0.0)) return;  // zero adds nothing; NaN/negatives never arrive
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  const int exp = static_cast<int>(bits >> 52);  // sign bit is clear: v > 0
  if (exp == 0) return;  // subnormal: far below the window, contributes 0
  const std::uint64_t mant =
      (bits & ((std::uint64_t{1} << 52) - 1)) | (std::uint64_t{1} << 52);
  // value = mant × 2^(exp − 1075); in units of the 2⁻⁸⁰ LSB the mantissa
  // lands at bit (exp − 995). +inf (exp 0x7ff) rides the same clamp as any
  // over-the-top finite value.
  int shift = exp - 995;
  if (shift < 0) return;
  if (shift > 191) shift = 191;  // keep mant's two limbs inside limbs_[0..3]
  const unsigned __int128 wide = static_cast<unsigned __int128>(mant)
                                 << (shift & 63);
  const std::uint64_t part[2] = {static_cast<std::uint64_t>(wide),
                                 static_cast<std::uint64_t>(wide >> 64)};
  const int idx = shift >> 6;
  if (negate) {
    unsigned __int128 borrow = 0;
    for (int l = idx, p = 0; l < 4; ++l, ++p) {
      const unsigned __int128 take = (p < 2 ? part[p] : 0) + borrow;
      const std::uint64_t before = limbs_[static_cast<std::size_t>(l)];
      limbs_[static_cast<std::size_t>(l)] =
          before - static_cast<std::uint64_t>(take);
      borrow = static_cast<unsigned __int128>(before) < take ? 1 : 0;
      if (p >= 2 && borrow == 0) break;
    }
  } else {
    unsigned __int128 carry = 0;
    for (int l = idx, p = 0; l < 4; ++l, ++p) {
      const unsigned __int128 sum =
          static_cast<unsigned __int128>(limbs_[static_cast<std::size_t>(l)]) +
          (p < 2 ? part[p] : 0) + carry;
      limbs_[static_cast<std::size_t>(l)] = static_cast<std::uint64_t>(sum);
      carry = sum >> 64;
      if (p >= 2 && carry == 0) break;
    }
  }
}

void ExactSum::add(const ExactSum& other) {
  unsigned __int128 carry = 0;
  for (std::size_t l = 0; l < limbs_.size(); ++l) {
    const unsigned __int128 sum = static_cast<unsigned __int128>(limbs_[l]) +
                                  other.limbs_[l] + carry;
    limbs_[l] = static_cast<std::uint64_t>(sum);
    carry = sum >> 64;
  }
}

double ExactSum::to_double() const {
  return std::ldexp(static_cast<double>(limbs_[3]), 112) +
         std::ldexp(static_cast<double>(limbs_[2]), 48) +
         std::ldexp(static_cast<double>(limbs_[1]), -16) +
         std::ldexp(static_cast<double>(limbs_[0]), -80);
}

NlScalars compute_nl_scalars(double lat_sum, double comp_sum,
                             std::uint64_t lat_missing,
                             std::uint64_t comp_missing, std::size_t pairs,
                             const NetworkLoadWeights& weights) {
  NlScalars s;
  const std::uint64_t lat_measured =
      static_cast<std::uint64_t>(pairs) - lat_missing;
  const std::uint64_t comp_measured =
      static_cast<std::uint64_t>(pairs) - comp_missing;
  // Missing pairs take the mean of the measured ones; a fully unmeasured
  // network degrades to "all pairs equal" exactly like network_loads().
  s.lat_fill =
      lat_measured > 0 ? lat_sum / static_cast<double>(lat_measured) : 100.0;
  s.comp_fill =
      comp_measured > 0 ? comp_sum / static_cast<double>(comp_measured) : 0.0;
  s.lat_s = lat_sum + static_cast<double>(lat_missing) * s.lat_fill;
  s.comp_s = comp_sum + static_cast<double>(comp_missing) * s.comp_fill;
  // Each sum-normalized column totals exactly 1 over the pairs, so the
  // off-diagonal mean is (active weights)/pairs analytically; dividing by it
  // is the unit-mean rescale without an extra O(n²) pass.
  const double weight_sum = (s.lat_s > 0.0 ? weights.latency : 0.0) +
                            (s.comp_s > 0.0 ? weights.bandwidth : 0.0);
  s.rescale =
      weight_sum > 0.0 ? static_cast<double>(pairs) / weight_sum : 1.0;
  return s;
}

void TiledNlState::full_build(const PairSource& source,
                              std::span<const cluster::NodeId> nodes,
                              util::BlockPartition partition,
                              const NetworkLoadWeights& weights,
                              util::ThreadPool* pool) {
  weights.validate();
  weights_ = weights;
  n_ = nodes.size();
  NLARM_CHECK(partition.position_count() == n_)
      << "partition covers " << partition.position_count() << " positions, "
      << "working set has " << n_;
  partition_ = std::move(partition);
  const std::size_t tiles = partition_.tile_count();
  tile_lat_.assign(tiles, {});
  tile_comp_.assign(tiles, {});
  tile_lat_missing_.assign(tiles, 0);
  tile_comp_missing_.assign(tiles, 0);
  tile_pairs_.assign(tiles, 0);
  lat_acc_.reset();
  comp_acc_.reset();
  lat_missing_ = 0;
  comp_missing_ = 0;
  pair_total_ = n_ < 2 ? 0 : n_ * (n_ - 1) / 2;

  const std::size_t ranges = range_count_for(pool, n_);
  if (ranges <= 1) {
    for (std::size_t i = 0; i < n_; ++i) {
      const std::size_t bi = partition_.block_of(i);
      for (std::size_t j = i + 1; j < n_; ++j) {
        const std::size_t bj = partition_.block_of(j);
        const std::size_t t =
            partition_.tile_index(std::min(bi, bj), std::max(bi, bj));
        const PairSource::Raw raw = source.read(nodes[i], nodes[j]);
        ++tile_pairs_[t];
        if (raw.lat >= 0.0) {
          tile_lat_[t].add(raw.lat);
        } else {
          ++tile_lat_missing_[t];
        }
        if (raw.comp >= 0.0) {
          tile_comp_[t].add(raw.comp);
        } else {
          ++tile_comp_missing_[t];
        }
      }
    }
  } else {
    // Each row range accumulates a private dense set of per-tile partials
    // (O(ranges × G²) transient memory — megabytes at refresh scale), then
    // the partials fold per tile in canonical range order. Integer limb
    // addition makes the folded tile accumulators equal the serial ones
    // bit for bit.
    struct TilePartials {
      std::vector<ExactSum> lat;
      std::vector<ExactSum> comp;
      std::vector<std::uint64_t> lat_missing;
      std::vector<std::uint64_t> comp_missing;
      std::vector<std::uint64_t> pairs;
    };
    const std::vector<std::size_t> bounds = balanced_row_bounds(n_, ranges);
    std::vector<TilePartials> partials(ranges);
    pool->parallel_for(ranges, [&](std::size_t r) {
      TilePartials& part = partials[r];
      part.lat.assign(tiles, {});
      part.comp.assign(tiles, {});
      part.lat_missing.assign(tiles, 0);
      part.comp_missing.assign(tiles, 0);
      part.pairs.assign(tiles, 0);
      for (std::size_t i = bounds[r]; i < bounds[r + 1]; ++i) {
        const std::size_t bi = partition_.block_of(i);
        for (std::size_t j = i + 1; j < n_; ++j) {
          const std::size_t bj = partition_.block_of(j);
          const std::size_t t =
              partition_.tile_index(std::min(bi, bj), std::max(bi, bj));
          const PairSource::Raw raw = source.read(nodes[i], nodes[j]);
          ++part.pairs[t];
          if (raw.lat >= 0.0) {
            part.lat[t].add(raw.lat);
          } else {
            ++part.lat_missing[t];
          }
          if (raw.comp >= 0.0) {
            part.comp[t].add(raw.comp);
          } else {
            ++part.comp_missing[t];
          }
        }
      }
    });
    for (const TilePartials& part : partials) {
      for (std::size_t t = 0; t < tiles; ++t) {
        tile_lat_[t].add(part.lat[t]);
        tile_comp_[t].add(part.comp[t]);
        tile_lat_missing_[t] += part.lat_missing[t];
        tile_comp_missing_[t] += part.comp_missing[t];
        tile_pairs_[t] += part.pairs[t];
      }
    }
  }
  // Fold the tile accumulators into the global totals. Limb addition is
  // associative and commutative, so this equals accumulating every pair
  // straight into the global sums, bit for bit, whatever the partition.
  for (std::size_t t = 0; t < tiles; ++t) {
    lat_acc_.add(tile_lat_[t]);
    comp_acc_.add(tile_comp_[t]);
    lat_missing_ += tile_lat_missing_[t];
    comp_missing_ += tile_comp_missing_[t];
  }
  refresh_dirty();
}

void TiledNlState::patch_pair(const PairSource& old_source,
                              const PairSource& new_source,
                              std::span<const cluster::NodeId> nodes,
                              std::size_t i, std::size_t j) {
  NLARM_CHECK(i < j && j < n_) << "bad pair position (" << i << ", " << j
                               << ")";
  const std::size_t bi = partition_.block_of(i);
  const std::size_t bj = partition_.block_of(j);
  const std::size_t t =
      partition_.tile_index(std::min(bi, bj), std::max(bi, bj));
  const PairSource::Raw old_raw = old_source.read(nodes[i], nodes[j]);
  if (old_raw.lat >= 0.0) {
    tile_lat_[t].sub(old_raw.lat);
    lat_acc_.sub(old_raw.lat);
  } else {
    --tile_lat_missing_[t];
    --lat_missing_;
  }
  if (old_raw.comp >= 0.0) {
    tile_comp_[t].sub(old_raw.comp);
    comp_acc_.sub(old_raw.comp);
  } else {
    --tile_comp_missing_[t];
    --comp_missing_;
  }
  const PairSource::Raw new_raw = new_source.read(nodes[i], nodes[j]);
  if (new_raw.lat >= 0.0) {
    tile_lat_[t].add(new_raw.lat);
    lat_acc_.add(new_raw.lat);
  } else {
    ++tile_lat_missing_[t];
    ++lat_missing_;
  }
  if (new_raw.comp >= 0.0) {
    tile_comp_[t].add(new_raw.comp);
    comp_acc_.add(new_raw.comp);
  } else {
    ++tile_comp_missing_[t];
    ++comp_missing_;
  }
}

void TiledNlState::patch_pairs(const PairSource& old_source,
                               const PairSource& new_source,
                               std::span<const cluster::NodeId> nodes,
                               std::span<const PairPosition> pairs,
                               util::ThreadPool* pool) {
  if (pairs.empty()) return;
  const std::size_t tiles = tile_pairs_.size();
  // A shard owns whole tiles, so one block means one shard: a one-block
  // delta (about a thousand pairs per tick) is microseconds of serial work.
  const std::size_t shards =
      std::min(range_count_for(pool, pairs.size()), tiles);
  if (shards <= 1) {
    for (const PairPosition& p : pairs) {
      patch_pair(old_source, new_source, nodes, p.i, p.j);
    }
    return;
  }

  // Shard by tile-index range: a shard owns a disjoint interval of tiles,
  // so its direct tile-accumulator mutations race with nobody, and
  // same-tile pairs (including duplicates) replay in delta order inside
  // one shard — the serial sequence exactly. Global totals go through
  // per-shard exact deltas folded in canonical shard order.
  struct Shard {
    std::vector<PairPosition> queue;
    ExactSum lat_delta;
    ExactSum comp_delta;
    std::int64_t lat_missing_delta = 0;
    std::int64_t comp_missing_delta = 0;
  };
  std::vector<Shard> shard_v(shards);
  for (const PairPosition& p : pairs) {
    NLARM_CHECK(p.i < p.j && p.j < n_)
        << "bad pair position (" << p.i << ", " << p.j << ")";
    const std::size_t bi = partition_.block_of(p.i);
    const std::size_t bj = partition_.block_of(p.j);
    const std::size_t t =
        partition_.tile_index(std::min(bi, bj), std::max(bi, bj));
    shard_v[t * shards / tiles].queue.push_back(p);
  }
  pool->parallel_for(shards, [&](std::size_t s) {
    Shard& shard = shard_v[s];
    for (const PairPosition& p : shard.queue) {
      const std::size_t bi = partition_.block_of(p.i);
      const std::size_t bj = partition_.block_of(p.j);
      const std::size_t t =
          partition_.tile_index(std::min(bi, bj), std::max(bi, bj));
      const PairSource::Raw old_raw = old_source.read(nodes[p.i], nodes[p.j]);
      if (old_raw.lat >= 0.0) {
        tile_lat_[t].sub(old_raw.lat);
        shard.lat_delta.sub(old_raw.lat);
      } else {
        --tile_lat_missing_[t];
        --shard.lat_missing_delta;
      }
      if (old_raw.comp >= 0.0) {
        tile_comp_[t].sub(old_raw.comp);
        shard.comp_delta.sub(old_raw.comp);
      } else {
        --tile_comp_missing_[t];
        --shard.comp_missing_delta;
      }
      const PairSource::Raw new_raw = new_source.read(nodes[p.i], nodes[p.j]);
      if (new_raw.lat >= 0.0) {
        tile_lat_[t].add(new_raw.lat);
        shard.lat_delta.add(new_raw.lat);
      } else {
        ++tile_lat_missing_[t];
        ++shard.lat_missing_delta;
      }
      if (new_raw.comp >= 0.0) {
        tile_comp_[t].add(new_raw.comp);
        shard.comp_delta.add(new_raw.comp);
      } else {
        ++tile_comp_missing_[t];
        ++shard.comp_missing_delta;
      }
    }
  });
  for (const Shard& shard : shard_v) {
    lat_acc_.add(shard.lat_delta);
    comp_acc_.add(shard.comp_delta);
    lat_missing_ += static_cast<std::uint64_t>(shard.lat_missing_delta);
    comp_missing_ += static_cast<std::uint64_t>(shard.comp_missing_delta);
  }
}

void TiledNlState::refresh_dirty() {
  scalars_ = compute_nl_scalars(lat_acc_.to_double(), comp_acc_.to_double(),
                                lat_missing_, comp_missing_, pair_total_,
                                weights_);
}

void TiledNlState::materialize_dense(const PairSource& source,
                                     std::span<const cluster::NodeId> nodes,
                                     util::FlatMatrix& out,
                                     util::ThreadPool* pool) const {
  NLARM_CHECK(nodes.size() == n_) << "working-set size changed";
  out.assign(n_, 0.0);
  double* const values = out.data();
  const auto fill_rows = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = i + 1; j < n_; ++j) {
        const PairSource::Raw raw = source.read(nodes[i], nodes[j]);
        const double value =
            nl_value_from_raw(raw.lat, raw.comp, scalars_, weights_);
        values[i * n_ + j] = value;
        values[j * n_ + i] = value;
      }
    }
  };
  // Row ranges write disjoint cells: range owning row i writes out[i][j]
  // and the mirror out[j][i] — column i of later rows, which no other
  // range's pairs touch.
  const std::size_t ranges = range_count_for(pool, n_);
  if (ranges <= 1) {
    fill_rows(0, n_);
    return;
  }
  const std::vector<std::size_t> bounds = balanced_row_bounds(n_, ranges);
  pool->parallel_for(ranges, [&](std::size_t r) {
    fill_rows(bounds[r], bounds[r + 1]);
  });
}

double TiledNlState::tile_lat_mean(std::size_t t) const {
  const std::uint64_t pairs = tile_pairs_[t];
  if (pairs == 0) {
    return 0.0;
  }
  const double sum = tile_lat_[t].to_double() +
                     static_cast<double>(tile_lat_missing_[t]) *
                         scalars_.lat_fill;
  return sum / static_cast<double>(pairs);
}

double TiledNlState::tile_comp_mean(std::size_t t) const {
  const std::uint64_t pairs = tile_pairs_[t];
  if (pairs == 0) {
    return 0.0;
  }
  const double sum = tile_comp_[t].to_double() +
                     static_cast<double>(tile_comp_missing_[t]) *
                         scalars_.comp_fill;
  return sum / static_cast<double>(pairs);
}

std::size_t TiledNlState::memory_bytes() const {
  const std::size_t tiles = tile_pairs_.size();
  return partition_.memory_bytes() +
         tiles * (2 * sizeof(ExactSum) + 3 * sizeof(std::uint64_t));
}

}  // namespace detail

PairSource::Raw SnapshotPairSource::read(cluster::NodeId u,
                                         cluster::NodeId v) const {
  const monitor::NetSnapshot& net = snapshot_->net;
  const auto uu = static_cast<std::size_t>(u);
  const auto vv = static_cast<std::size_t>(v);
  const std::size_t edge = net.latency_us.size();
  NLARM_CHECK(uu < edge && vv < edge) << "pair out of snapshot";
  Raw raw;
  raw.lat = net.latency_us[uu][vv];
  const double bw = net.bandwidth_mbps[uu][vv];
  const double peak = net.peak_mbps[uu][vv];
  raw.comp = (bw < 0.0 || peak < 0.0) ? -1.0 : std::max(0.0, peak - bw);
  return raw;
}

std::span<const double> TiledPairState::tile_values(std::size_t a,
                                                    std::size_t b) const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (!cache_ready_) {
    cache_.reset(partition);
    cache_ready_ = true;
  }
  return cache_.tile(partition, a, b, [&](std::size_t r, std::size_t c) {
    const PairSource::Raw raw = source->read(nodes[r], nodes[c]);
    return detail::nl_value_from_raw(raw.lat, raw.comp, scalars, weights);
  });
}

std::size_t TiledPairState::tiles_materialized() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.tiles_materialized();
}

std::size_t TiledPairState::tile_cache_hits() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.cache_hits();
}

std::size_t TiledPairState::memory_bytes() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return partition.memory_bytes() +
         tiles.capacity() * sizeof(TileAggregate) +
         nodes.capacity() * sizeof(cluster::NodeId) + cache_.value_bytes();
}

void prepared_network_loads(const monitor::ClusterSnapshot& snapshot,
                            std::span<const cluster::NodeId> nodes,
                            const NetworkLoadWeights& weights,
                            util::FlatMatrix& out) {
  // The source borrows the caller's snapshot (an empty-owner aliasing
  // pointer) for the length of this call.
  detail::TiledNlState state;
  const SnapshotPairSource source(
      std::shared_ptr<const monitor::ClusterSnapshot>(
          std::shared_ptr<const void>(), &snapshot));
  state.full_build(source, nodes, util::BlockPartition::fixed(nodes.size(), 0),
                   weights);
  state.materialize_dense(source, nodes, out);
}

PreparedBuilder::PreparedBuilder(RequestProfile profile)
    : profile_(std::move(profile)) {
  profile_.compute_weights.validate();
  profile_.network_weights.validate();
  NLARM_CHECK(profile_.ppn >= 0) << "negative ppn";
}

PreparedBuilder::PreparedBuilder(RequestProfile profile, TilingOptions tiling)
    : PreparedBuilder(std::move(profile)) {
  tiling_ = tiling;
}

GateAggregates gate_aggregates(const monitor::ClusterSnapshot& snapshot,
                               std::span<const cluster::NodeId> usable,
                               std::span<const int> pc) {
  GateAggregates out;
  double load_sum = 0.0;
  double core_sum = 0.0;
  for (cluster::NodeId id : usable) {
    const monitor::NodeSnapshot& node =
        snapshot.nodes[static_cast<std::size_t>(id)];
    load_sum += node.cpu_load_avg.one_min;
    core_sum += static_cast<double>(node.spec.core_count);
  }
  out.load_per_core = core_sum > 0.0 ? load_sum / core_sum : 0.0;
  for (int c : pc) out.effective_capacity += c;
  return out;
}

void PreparedBuilder::recompute_node_state() {
  if (usable_.empty()) {
    cl_.clear();
    pc_.clear();
    gate_ = GateAggregates{};
    return;
  }
  cl_ = rescale_unit_mean(
      compute_loads(*snapshot_, usable_, profile_.compute_weights));
  pc_ = effective_process_counts(*snapshot_, usable_, profile_.ppn);
  gate_ = gate_aggregates(*snapshot_, usable_, pc_);
}

void PreparedBuilder::rebuild(
    std::shared_ptr<const monitor::ClusterSnapshot> snapshot) {
  NLARM_CHECK(snapshot != nullptr) << "rebuild over a null snapshot";
  obs::ScopedSpan span("prepared.rebuild",
                       &obs::metrics::prepared_rebuild_seconds());
  obs::metrics::prepared_full_rebuilds().inc();
  if (pool_ != nullptr && pool_->thread_count() > 0) {
    obs::metrics::refresh_parallel_rebuilds().inc();
  }
  snapshot_ = std::move(snapshot);
  usable_ = snapshot_->usable_nodes();
  pos_of_.assign(snapshot_->nodes.size(), -1);
  for (std::size_t i = 0; i < usable_.size(); ++i) {
    pos_of_[static_cast<std::size_t>(usable_[i])] =
        static_cast<std::int32_t>(i);
  }
  // No per-pair storage: pair state lives in O(G²) tile accumulators, and
  // the dense matrix (when wanted) is materialized straight from the
  // snapshot at build().
  util::BlockPartition partition;
  if (!tiling_ || tiling_->block_size > 0) {
    partition = util::BlockPartition::fixed(
        usable_.size(), tiling_ ? tiling_->block_size : 0);
  } else {
    std::vector<std::int32_t> labels(usable_.size());
    for (std::size_t i = 0; i < usable_.size(); ++i) {
      labels[i] = snapshot_->nodes[static_cast<std::size_t>(usable_[i])]
                      .spec.switch_id;
    }
    partition = util::BlockPartition::from_labels(labels);
  }
  pair_state_.full_build(SnapshotPairSource(snapshot_), usable_,
                         std::move(partition), profile_.network_weights,
                         pool_);
  recompute_node_state();
  version_ = snapshot_->version;
  time_ = snapshot_->time;
  has_state_ = true;
  nl_stale_ = true;
  incremental_ = false;
  delta_nodes_ = 0;
  delta_pairs_ = 0;
  obs::metrics::refresh_rebuild_sketch().observe(span.stop());
}

bool PreparedBuilder::update(
    std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
    const monitor::SnapshotDelta& delta) {
  NLARM_CHECK(snapshot != nullptr) << "update over a null snapshot";
  const auto fall_back = [&](const char* why) {
    NLARM_DEBUG << "prepared delta fallback (" << why << "): base "
                << delta.base_version << " -> " << delta.version
                << ", state " << version_;
    obs::metrics::prepared_incremental_fallbacks().inc();
    rebuild(std::move(snapshot));
    return false;
  };

  if (!has_state_) return fall_back("no prior state");
  if (delta.requires_full_rebuild()) return fall_back("delta demands full");
  if (delta.base_version != version_) return fall_back("version gap");
  if (snapshot->version != delta.version) return fall_back("stale snapshot");
  if (snapshot->nodes.size() != pos_of_.size()) {
    return fall_back("node count changed");
  }

  // A dirty node whose usability flipped (first record arriving, record
  // invalidated) changes the working set's shape — every position shifts,
  // so incremental application is off the table. Likewise, in tiled mode a
  // working-set node that moved to a different switch invalidates the block
  // partition the tile accumulators are keyed on.
  for (cluster::NodeId id : delta.dirty_nodes) {
    const auto idx = static_cast<std::size_t>(id);
    if (idx >= snapshot->nodes.size()) return fall_back("node out of range");
    const bool now_usable =
        snapshot->livehosts[idx] && snapshot->nodes[idx].valid;
    if (now_usable != (pos_of_[idx] >= 0)) {
      return fall_back("usable set changed");
    }
    if (tiling_ && tiling_->block_size == 0 && pos_of_[idx] >= 0 &&
        snapshot->nodes[idx].spec.switch_id !=
            snapshot_->nodes[idx].spec.switch_id) {
      return fall_back("switch assignment changed");
    }
  }

  // Resolve dirty pairs to working-set positions up front (delta order is
  // preserved, duplicates included), then hand the whole batch to the pair
  // state — sharded over the refresh pool when one is attached.
  std::vector<detail::PairPosition> resolved;
  resolved.reserve(delta.dirty_pairs.size());
  for (const auto& [u, v] : delta.dirty_pairs) {
    const std::int32_t pu = pos_of_[static_cast<std::size_t>(u)];
    const std::int32_t pv = pos_of_[static_cast<std::size_t>(v)];
    if (pu < 0 || pv < 0) continue;  // pair outside the working set
    resolved.push_back(
        {static_cast<std::uint32_t>(std::min(pu, pv)),
         static_cast<std::uint32_t>(std::max(pu, pv))});
  }
  const std::size_t applied_pairs = resolved.size();
  // Patching re-reads a pair's old terms from the retained snapshot; one
  // mutated in place no longer holds them.
  if (applied_pairs > 0 && snapshot == snapshot_) {
    return fall_back("snapshot mutated in place");
  }

  obs::ScopedSpan span("prepared.update",
                       &obs::metrics::prepared_update_seconds());
  obs::metrics::prepared_incremental_updates().inc();
  if (applied_pairs > 0) {
    // The retained previous snapshot holds exactly the terms the
    // accumulators last absorbed, so no per-pair storage is needed for the
    // swap.
    pair_state_.patch_pairs(SnapshotPairSource(snapshot_),
                            SnapshotPairSource(snapshot), usable_, resolved,
                            pool_);
    pair_state_.refresh_dirty();
    nl_stale_ = true;
    if (pool_ != nullptr && pool_->thread_count() > 0) {
      obs::metrics::refresh_parallel_applies().inc();
    }
  }

  std::size_t applied_nodes = 0;
  for (cluster::NodeId id : delta.dirty_nodes) {
    if (pos_of_[static_cast<std::size_t>(id)] >= 0) ++applied_nodes;
  }
  snapshot_ = std::move(snapshot);
  if (applied_nodes > 0) recompute_node_state();

  version_ = snapshot_->version;
  time_ = snapshot_->time;
  incremental_ = true;
  delta_nodes_ = applied_nodes;
  delta_pairs_ = applied_pairs;
  obs::metrics::refresh_apply_sketch().observe(span.stop());
  return true;
}

std::shared_ptr<PreparedSnapshot> PreparedBuilder::build() {
  NLARM_CHECK(has_state_) << "build() before rebuild()";
  if (nl_stale_) {
    auto source = std::make_shared<SnapshotPairSource>(snapshot_);
    if (tiling_) {
      auto tiles = std::make_shared<TiledPairState>();
      tiles->partition = pair_state_.partition();
      tiles->weights = profile_.network_weights;
      tiles->scalars = pair_state_.scalars();
      tiles->nodes = usable_;
      tiles->source = source;
      const std::size_t tile_count = tiles->partition.tile_count();
      tiles->tiles.resize(tile_count);
      for (std::size_t t = 0; t < tile_count; ++t) {
        tiles->tiles[t] = {pair_state_.tile_lat_mean(t),
                           pair_state_.tile_comp_mean(t),
                           pair_state_.tile_pairs(t)};
      }
      tiles_cache_ = std::move(tiles);
    }
    if (!tiling_ || usable_.size() <= tiling_->dense_nl_limit) {
      auto matrix = std::make_shared<util::FlatMatrix>();
      pair_state_.materialize_dense(*source, usable_, *matrix, pool_);
      nl_cache_ = std::move(matrix);
    } else {
      nl_cache_ = nullptr;
    }
    nl_stale_ = false;
    obs::metrics::prepared_nl_materializations().inc();
  } else {
    // Node-only tick: pair state unchanged, so the previous NL matrix and
    // tiled state (with its source snapshot) are shared with the new epoch.
    obs::metrics::prepared_nl_reuses().inc();
  }
  auto prepared = std::make_shared<PreparedSnapshot>();
  prepared->snapshot = snapshot_;
  prepared->profile = profile_;
  prepared->version = version_;
  prepared->time = time_;
  prepared->usable = usable_;
  prepared->cl = cl_;
  prepared->nl = nl_cache_;
  prepared->tiles = tiles_cache_;
  prepared->pc = pc_;
  prepared->pos_of = pos_of_;
  prepared->load_per_core = gate_.load_per_core;
  prepared->effective_capacity = gate_.effective_capacity;
  prepared->incremental = incremental_;
  prepared->delta_nodes = delta_nodes_;
  prepared->delta_pairs = delta_pairs_;
  return prepared;
}

Allocation allocate_prepared(const PreparedSnapshot& prepared,
                             const AllocationRequest& request,
                             const GenerationOptions& options,
                             AllocStats* stats,
                             std::span<const int> pc_override,
                             std::span<const std::size_t> starts) {
  request.validate();
  NLARM_CHECK(RequestProfile::of(request) == prepared.profile)
      << "request profile does not match the epoch's prepared inputs";
  NLARM_CHECK(prepared.snapshot != nullptr) << "epoch carries no snapshot";
  NLARM_CHECK(prepared.nl != nullptr) << "epoch carries no NL matrix";
  NLARM_CHECK(!prepared.usable.empty()) << "no usable nodes in epoch";
  const std::span<const int> pc =
      pc_override.empty() ? std::span<const int>(prepared.pc) : pc_override;
  NLARM_CHECK(pc.size() == prepared.usable.size())
      << "pc override size mismatch";

  obs::metrics::alloc_requests().inc();
  AllocStats local_stats;
  AllocStats& out_stats = stats != nullptr ? *stats : local_stats;
  out_stats = AllocStats{};
  out_stats.usable_nodes = prepared.usable.size();
  obs::ScopedSpan total_span("alloc.total",
                             &obs::metrics::alloc_total_seconds());
  Allocation allocation = detail::allocate_working_set(
      prepared.cl, *prepared.nl, pc, prepared.usable, *prepared.snapshot,
      request, starts, options, "network-load-aware", out_stats);
  out_stats.total_seconds = total_span.stop();
  out_stats.valid = true;
  return allocation;
}

namespace simd {

void score_addition_row_scalar(double alpha, std::span<const double> cl,
                               const double* nl_row, double beta,
                               std::span<double> out) {
  const std::size_t count = cl.size();
  for (std::size_t u = 0; u < count; ++u) {
    out[u] = alpha * cl[u] + beta * nl_row[u];
  }
}

CostRange cost_range_scalar(std::span<const double> cost,
                            std::span<const int> pc, std::size_t start) {
  CostRange range{std::numeric_limits<double>::infinity(),
                  -std::numeric_limits<double>::infinity(), false};
  for (std::size_t u = 0; u < cost.size(); ++u) {
    if (u == start) continue;
    range.negative_capacity |= pc[u] < 0;
    if (pc[u] <= 0) continue;
    range.lo = std::min(range.lo, cost[u]);
    range.hi = std::max(range.hi, cost[u]);
  }
  return range;
}

namespace {

/// One node's bucket code, ignoring the start (bucket_codes_scalar's body).
std::uint16_t bucket_code(double cost, int pc, double lo, double scale) {
  if (pc == 0) return kCostBuckets;
  const double x = (cost - lo) * scale;
  std::size_t b = 0;  // also for a NaN x
  if (x >= static_cast<double>(kCostBuckets - 1)) {
    b = kCostBuckets - 1;
  } else if (x > 0.0) {
    b = static_cast<std::size_t>(x);
  }
  return static_cast<std::uint16_t>(b);
}

}  // namespace

void bucket_codes_scalar(std::span<const double> cost,
                         std::span<const int> pc, std::size_t start,
                         double lo, double scale,
                         std::span<std::uint16_t> out) {
  for (std::size_t u = 0; u < cost.size(); ++u) {
    out[u] = bucket_code(cost[u], pc[u], lo, scale);
  }
  out[start] = kCostBuckets;
}

void collect_survivors_scalar(std::span<const std::uint16_t> codes,
                              std::size_t keep,
                              std::vector<std::size_t>& out) {
  for (std::size_t u = 0; u < codes.size(); ++u) {
    if (codes[u] < keep) out.push_back(u);
  }
}

namespace {

using ScoreFn = void (*)(double, std::span<const double>, const double*,
                         double, std::span<double>);
using RangeFn = CostRange (*)(std::span<const double>, std::span<const int>,
                              std::size_t);
using BucketFn = void (*)(std::span<const double>, std::span<const int>,
                          std::size_t, double, double,
                          std::span<std::uint16_t>);
using SurvivorFn = void (*)(std::span<const std::uint16_t>, std::size_t,
                            std::vector<std::size_t>&);

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NLARM_SIMD_AVX2 1
__attribute__((target("avx2"))) void score_addition_row_avx2(
    double alpha, std::span<const double> cl, const double* nl_row,
    double beta, std::span<double> out) {
  const std::size_t count = cl.size();
  const double* cl_p = cl.data();
  double* out_p = out.data();
  const __m256d va = _mm256_set1_pd(alpha);
  const __m256d vb = _mm256_set1_pd(beta);
  std::size_t u = 0;
  // mul + add, NOT vfmadd: two roundings per lane, exactly like the scalar
  // expression (a*c) + (b*n). That is what keeps the lanes bit-identical.
  for (; u + 4 <= count; u += 4) {
    const __m256d c = _mm256_loadu_pd(cl_p + u);
    const __m256d n = _mm256_loadu_pd(nl_row + u);
    const __m256d r =
        _mm256_add_pd(_mm256_mul_pd(va, c), _mm256_mul_pd(vb, n));
    _mm256_storeu_pd(out_p + u, r);
  }
  for (; u < count; ++u) {
    out_p[u] = alpha * cl_p[u] + beta * nl_row[u];
  }
}

/// cost_range over all n entries (no start to skip), eight per step in two
/// accumulators of four lanes.
__attribute__((target("avx2"))) CostRange cost_range_block_avx2(
    const double* cost, const int* pc, std::size_t n) {
  const double inf = std::numeric_limits<double>::infinity();
  __m256d lo0 = _mm256_set1_pd(inf);
  __m256d lo1 = lo0;
  __m256d hi0 = _mm256_set1_pd(-inf);
  __m256d hi1 = hi0;
  __m256i sign = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi32(1);
  std::size_t u = 0;
  for (; u + 8 <= n; u += 8) {
    const __m256i p =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pc + u));
    sign = _mm256_or_si256(sign, p);
    // A node with pc <= 0 gets all-ones bits OR-ed into its cost, a NaN;
    // min_pd(x, acc) and max_pd(x, acc) return acc for a NaN x, which is
    // how std::min(acc, x) and std::max(acc, x) treat one too.
    const __m256i skip = _mm256_cmpgt_epi32(one, p);
    const __m256d skip0 = _mm256_castsi256_pd(
        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(skip)));
    const __m256d skip1 = _mm256_castsi256_pd(
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(skip, 1)));
    const __m256d x0 = _mm256_or_pd(_mm256_loadu_pd(cost + u), skip0);
    const __m256d x1 = _mm256_or_pd(_mm256_loadu_pd(cost + u + 4), skip1);
    lo0 = _mm256_min_pd(x0, lo0);
    hi0 = _mm256_max_pd(x0, hi0);
    lo1 = _mm256_min_pd(x1, lo1);
    hi1 = _mm256_max_pd(x1, hi1);
  }
  alignas(32) std::array<double, 4> lo{};
  alignas(32) std::array<double, 4> hi{};
  _mm256_store_pd(lo.data(), _mm256_min_pd(lo1, lo0));
  _mm256_store_pd(hi.data(), _mm256_max_pd(hi1, hi0));
  CostRange range{inf, -inf,
                  _mm256_movemask_ps(_mm256_castsi256_ps(sign)) != 0};
  for (std::size_t lane = 0; lane < 4; ++lane) {
    range.lo = std::min(range.lo, lo[lane]);
    range.hi = std::max(range.hi, hi[lane]);
  }
  for (; u < n; ++u) {
    range.negative_capacity |= pc[u] < 0;
    if (pc[u] <= 0) continue;
    range.lo = std::min(range.lo, cost[u]);
    range.hi = std::max(range.hi, cost[u]);
  }
  return range;
}

__attribute__((target("avx2"))) CostRange cost_range_avx2(
    std::span<const double> cost, std::span<const int> pc,
    std::size_t start) {
  // The start is never a lane: one block on each side of it.
  const CostRange below = cost_range_block_avx2(cost.data(), pc.data(), start);
  const CostRange above = cost_range_block_avx2(
      cost.data() + start + 1, pc.data() + start + 1, cost.size() - start - 1);
  return {std::min(below.lo, above.lo), std::max(below.hi, above.hi),
          below.negative_capacity || above.negative_capacity};
}

__attribute__((target("avx2"))) void bucket_codes_avx2(
    std::span<const double> cost, std::span<const int> pc, std::size_t start,
    double lo, double scale, std::span<std::uint16_t> out) {
  const std::size_t count = cost.size();
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d top = _mm256_set1_pd(static_cast<double>(kCostBuckets - 1));
  const __m128i sentinel = _mm_set1_epi32(static_cast<int>(kCostBuckets));
  const __m128i drained = _mm_setzero_si128();
  std::size_t u = 0;
  for (; u + 8 <= count; u += 8) {
    // The scalar kernel's clamp, branch-free: max_pd(x, 0) also maps a NaN
    // x to 0 (the second operand wins), min_pd caps at 255, and the
    // truncating conversion floors the in-range rest.
    const __m256d x0 = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_loadu_pd(cost.data() + u), vlo), vscale);
    const __m256d x1 = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_loadu_pd(cost.data() + u + 4), vlo), vscale);
    __m128i b0 = _mm256_cvttpd_epi32(
        _mm256_min_pd(_mm256_max_pd(x0, zero), top));
    __m128i b1 = _mm256_cvttpd_epi32(
        _mm256_min_pd(_mm256_max_pd(x1, zero), top));
    const __m128i p0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(pc.data() + u));
    const __m128i p1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(pc.data() + u + 4));
    b0 = _mm_blendv_epi8(b0, sentinel, _mm_cmpeq_epi32(p0, drained));
    b1 = _mm_blendv_epi8(b1, sentinel, _mm_cmpeq_epi32(p1, drained));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data() + u),
                     _mm_packus_epi32(b0, b1));
  }
  for (; u < count; ++u) out[u] = bucket_code(cost[u], pc[u], lo, scale);
  out[start] = kCostBuckets;
}

__attribute__((target("avx2"))) void collect_survivors_avx2(
    std::span<const std::uint16_t> codes, std::size_t keep,
    std::vector<std::size_t>& out) {
  const std::size_t count = codes.size();
  // Codes and keep are at most kCostBuckets, so the signed 16-bit compare
  // is exact.
  const __m256i limit = _mm256_set1_epi16(static_cast<std::int16_t>(keep));
  std::size_t u = 0;
  for (; u + 16 <= count; u += 16) {
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes.data() + u));
    // Two mask bits per 16-bit lane; keep the low one of each pair.
    auto mask = static_cast<std::uint32_t>(
                    _mm256_movemask_epi8(_mm256_cmpgt_epi16(limit, c))) &
                0x55555555u;
    while (mask != 0) {
      out.push_back(u + static_cast<std::size_t>(__builtin_ctz(mask)) / 2);
      mask &= mask - 1;
    }
  }
  for (; u < count; ++u) {
    if (codes[u] < keep) out.push_back(u);
  }
}
#endif

#if defined(__aarch64__)
#define NLARM_SIMD_NEON 1
void score_addition_row_neon(double alpha, std::span<const double> cl,
                             const double* nl_row, double beta,
                             std::span<double> out) {
  const std::size_t count = cl.size();
  const double* cl_p = cl.data();
  double* out_p = out.data();
  const float64x2_t va = vdupq_n_f64(alpha);
  const float64x2_t vb = vdupq_n_f64(beta);
  std::size_t u = 0;
  for (; u + 2 <= count; u += 2) {
    const float64x2_t c = vld1q_f64(cl_p + u);
    const float64x2_t n = vld1q_f64(nl_row + u);
    // vmulq + vaddq (two roundings), never vfmaq: see the AVX2 note.
    const float64x2_t r = vaddq_f64(vmulq_f64(va, c), vmulq_f64(vb, n));
    vst1q_f64(out_p + u, r);
  }
  for (; u < count; ++u) {
    out_p[u] = alpha * cl_p[u] + beta * nl_row[u];
  }
}
#endif

/// True when `candidate` reproduces the scalar kernel bit for bit on a
/// probe row spanning several magnitude decades. Catches a toolchain that
/// contracted the scalar loop into FMAs (one rounding), where the two-
/// rounding vector lanes would differ in the last bit.
bool kernel_matches_scalar(ScoreFn candidate) {
  constexpr std::size_t kProbe = 37;  // odd: exercises the vector tail
  std::array<double, kProbe> cl_probe;
  std::array<double, kProbe> nl_probe;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next01 = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (std::size_t i = 0; i < kProbe; ++i) {
    const double scale = std::pow(10.0, static_cast<double>(i % 9) - 4.0);
    cl_probe[i] = next01() * scale;
    nl_probe[i] = next01() * scale;
  }
  std::array<double, kProbe> want;
  std::array<double, kProbe> got;
  for (const double alpha : {0.3, 0.5, 0.999}) {
    const double beta = 1.0 - alpha;
    score_addition_row_scalar(alpha, cl_probe, nl_probe.data(), beta, want);
    candidate(alpha, cl_probe, nl_probe.data(), beta, got);
    if (std::memcmp(want.data(), got.data(), sizeof want) != 0) return false;
  }
  return true;
}

struct Dispatch {
  ScoreFn fn = &score_addition_row_scalar;
  RangeFn range = &cost_range_scalar;
  BucketFn buckets = &bucket_codes_scalar;
  SurvivorFn survivors = &collect_survivors_scalar;
  Kernel kernel = Kernel::kScalar;

  Dispatch() {
#if defined(NLARM_SIMD_AVX2)
    if (__builtin_cpu_supports("avx2") &&
        kernel_matches_scalar(&score_addition_row_avx2)) {
      fn = &score_addition_row_avx2;
      range = &cost_range_avx2;
      buckets = &bucket_codes_avx2;
      survivors = &collect_survivors_avx2;
      kernel = Kernel::kAvx2;
    }
#elif defined(NLARM_SIMD_NEON)
    if (kernel_matches_scalar(&score_addition_row_neon)) {
      fn = &score_addition_row_neon;
      kernel = Kernel::kNeon;
    }
#endif
    obs::metrics::simd_kernel().set(static_cast<double>(kernel));
  }
};

const Dispatch& dispatch() {
  static const Dispatch instance;
  return instance;
}

}  // namespace

void score_addition_row(double alpha, std::span<const double> cl,
                        const double* nl_row, double beta,
                        std::span<double> out) {
  dispatch().fn(alpha, cl, nl_row, beta, out);
}

CostRange cost_range(std::span<const double> cost, std::span<const int> pc,
                     std::size_t start) {
  return dispatch().range(cost, pc, start);
}

void bucket_codes(std::span<const double> cost, std::span<const int> pc,
                  std::size_t start, double lo, double scale,
                  std::span<std::uint16_t> out) {
  dispatch().buckets(cost, pc, start, lo, scale, out);
}

void collect_survivors(std::span<const std::uint16_t> codes,
                       std::size_t keep, std::vector<std::size_t>& out) {
  dispatch().survivors(codes, keep, out);
}

Kernel active_kernel() { return dispatch().kernel; }

const char* active_kernel_name() {
  switch (dispatch().kernel) {
    case Kernel::kAvx2:
      return "avx2";
    case Kernel::kNeon:
      return "neon";
    case Kernel::kScalar:
      break;
  }
  return "scalar";
}

}  // namespace simd

}  // namespace nlarm::core
