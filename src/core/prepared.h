// Prepared allocator state as a first-class, incrementally-maintained value.
//
// The prepared inputs (normalized CL, NL matrix, pc) cost O(V²) to derive
// from a snapshot. This layer makes re-preparation scale with what actually
// changed:
//
//   MonitorStore ──assemble()──► ClusterSnapshot ─┐
//        └───────drain_delta()─► SnapshotDelta  ──┤
//                                                 ▼
//                       PreparedBuilder (mutable, owner thread only)
//                          rebuild()  O(V²) — fallback / correctness oracle
//                          update()   O(dirty + V)
//                          build()  ──► PreparedSnapshot (immutable epoch)
//
// The built PreparedSnapshot is immutable and safe to share across threads;
// EpochPublisher (core/epoch.h) hands it to concurrent decide() callers.
//
// Bit-identity contract: update()+build() must equal rebuild()+build() down
// to the last bit, so the incremental path can be property-tested against
// the from-scratch path on every tick. Global sum-normalization makes that
// impossible for a floating-point running sum (every NL entry divides by a
// global sum, and FP addition is not associative, so "subtract the old term,
// add the new one" drifts from a from-scratch sum). The canonical pipeline
// here sidesteps that: pair-term totals are *defined* as exact fixed-point
// accumulators (detail::ExactSum — integer arithmetic, so addition IS
// associative and commutative), and the fill/normalizer/rescale scalars are
// derived from those totals with a fixed operation sequence. An incremental
// update subtracts a pair's old contribution and adds its new one; because
// the accumulator is exact, the result equals re-accumulating every pair
// from scratch, bit for bit, with O(dirty) work and no auxiliary partial-sum
// structure.
//
// One pair-state implementation holds those totals: detail::TiledNlState,
// exact accumulators per tile of a block partition of the working set, with
// no per-pair storage. A patch re-reads the pair's old terms from the
// previous snapshot, so update() needs that snapshot unmodified. The plain
// builder and the one-shot prepared_network_loads() use a single block; a
// tiled builder partitions by switch or into fixed-size blocks. The
// one-shot NetworkLoadAwareAllocator::allocate and reference::allocate
// consume the same canonical pipeline (prepared_network_loads), keeping the
// golden-equivalence suite meaningful.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/allocator.h"
#include "core/candidate.h"
#include "core/weights.h"
#include "monitor/snapshot.h"
#include "monitor/snapshot_delta.h"
#include "util/flat_matrix.h"
#include "util/tiled_matrix.h"

namespace nlarm::util {
class ThreadPool;
}

namespace nlarm::core {

/// The request-dependent part of the prepared state: everything besides the
/// snapshot that CL/NL/pc derive from. Epochs are built per profile; a
/// decide() against an epoch must carry a matching profile.
struct RequestProfile {
  ComputeLoadWeights compute_weights;
  NetworkLoadWeights network_weights;
  int ppn = 0;

  static RequestProfile of(const AllocationRequest& request) {
    return {request.compute_weights, request.network_weights, request.ppn};
  }

  bool operator==(const RequestProfile&) const = default;
};

/// Read-only source of raw pair terms. The snapshot-backed implementation is
/// the production one; benches and tests substitute procedural sources so a
/// V=16384 run never has to materialize 8 GB of dense NetSnapshot matrices.
class PairSource {
 public:
  /// Raw terms for one node pair: latency in µs and complement of available
  /// bandwidth in Mbit/s; < 0 = unmeasured (the store's sentinel).
  struct Raw {
    double lat = -1.0;
    double comp = -1.0;
  };

  virtual ~PairSource() = default;
  virtual Raw read(cluster::NodeId u, cluster::NodeId v) const = 0;
};

/// PairSource over a ClusterSnapshot's dense net matrices: the 1-min
/// latency and max(0, peak − bandwidth), either < 0 meaning unmeasured.
class SnapshotPairSource final : public PairSource {
 public:
  explicit SnapshotPairSource(
      std::shared_ptr<const monitor::ClusterSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {}

  Raw read(cluster::NodeId u, cluster::NodeId v) const override;

  const monitor::ClusterSnapshot& snapshot() const { return *snapshot_; }

 private:
  std::shared_ptr<const monitor::ClusterSnapshot> snapshot_;
};

namespace detail {

/// Order-independent exact accumulator for nonnegative doubles: a 256-bit
/// two's-complement fixed-point integer with its least-significant bit at
/// 2⁻⁸⁰. Integer addition is associative and commutative, so a sequence of
/// add()/sub() calls lands on the same state regardless of order — which is
/// exactly what lets an incremental "subtract old term, add new term" match
/// a from-scratch accumulation bit for bit.
///
/// Window: values in [2⁻²⁸, 2¹⁹¹) are decomposed exactly (a 53-bit mantissa
/// shifted into the limbs). Realistic pair metrics — microsecond latencies,
/// Mbit/s bandwidth complements — sit many decades inside that window. Out
/// of deference to garbage inputs the edges are still *deterministic*:
/// positive values below the window contribute 0, values at/above the top
/// (including +inf) clamp to the highest representable shift, and overflow
/// wraps mod 2²⁵⁶ — degenerate, but identical on both paths, which is the
/// contract that matters. NaN and negatives are filtered by the caller
/// (they mean "unmeasured" and are counted, not summed).
class ExactSum {
 public:
  void add(double v) { accumulate(v, /*negate=*/false); }
  void sub(double v) { accumulate(v, /*negate=*/true); }
  /// Limb-wise mod-2²⁵⁶ addition of another accumulator. Folding per-tile
  /// partial sums into a global total this way is associative/commutative,
  /// so a tile-partitioned accumulation equals flat per-pair accumulation
  /// bit for bit.
  void add(const ExactSum& other);
  void reset() { limbs_ = {}; }

  /// Deterministic conversion: fold the limbs high→low in one fixed
  /// expression. (Not correctly-rounded against the abstract sum — it does
  /// not need to be; this fold IS the canonical definition of the total.)
  double to_double() const;

 private:
  void accumulate(double v, bool negate);

  // Little-endian limbs; limb l carries weight 2^(64l − 80).
  std::array<std::uint64_t, 4> limbs_{};
};

/// A dirty pair resolved to working-set positions (i < j). The unit of work
/// the sharded patch path queues per shard.
struct PairPosition {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
};

/// The normalization scalars the canonical NL pipeline derives from the
/// exact totals with one fixed operation sequence.
struct NlScalars {
  double lat_fill = 0.0;   ///< mean measured latency (or 100 µs fallback)
  double comp_fill = 0.0;  ///< mean measured complement (or 0 fallback)
  double lat_s = 0.0;      ///< latency normalizer Σ (with fills)
  double comp_s = 0.0;     ///< complement normalizer Σ (with fills)
  double rescale = 1.0;    ///< unit-mean rescale factor
};

NlScalars compute_nl_scalars(double lat_sum, double comp_sum,
                             std::uint64_t lat_missing,
                             std::uint64_t comp_missing, std::size_t pairs,
                             const NetworkLoadWeights& weights);

/// Canonical per-pair NL value from raw terms + scalars — the one formula
/// materialize_dense, the lazy tile fill and nl_value() all share.
inline double nl_value_from_raw(double lat_raw, double comp_raw,
                                const NlScalars& s,
                                const NetworkLoadWeights& weights) {
  const double lat_value = lat_raw < 0.0 ? s.lat_fill : lat_raw;
  const double comp_value = comp_raw < 0.0 ? s.comp_fill : comp_raw;
  const double lat_term = s.lat_s > 0.0 ? lat_value / s.lat_s : 0.0;
  const double comp_term = s.comp_s > 0.0 ? comp_value / s.comp_s : 0.0;
  return (weights.latency * lat_term + weights.bandwidth * comp_term) *
         s.rescale;
}

/// Exact-accumulator network-load state over a working node set. This class
/// IS the canonical definition of the prepared NL matrix (see file
/// comment): the one-shot prepared_network_loads() and every
/// PreparedBuilder go through it, which is what makes them bit-identical.
///
/// Pair-term accumulators are kept PER TILE of a block partition and folded
/// into global totals; a single-block partition is the flat case. No
/// per-pair storage at all — O(G²) accumulators plus O(V) partition vectors
/// — which is what holds pair-state memory at V=16384 to megabytes instead
/// of gigabytes. Raw terms are re-read from a PairSource when patching, so
/// the owner must keep the previous snapshot alive and unmodified across an
/// update (the PreparedBuilder holds it).
class TiledNlState {
 public:
  /// Gathers every upper-triangle pair term through `source` and fills all
  /// tile + global accumulators. O(n²) reads, O(G²) memory. With a pool,
  /// row ranges accumulate per-range per-tile partials folded per tile in
  /// canonical range order — bit-identical to the serial accumulation.
  void full_build(const PairSource& source,
                  std::span<const cluster::NodeId> nodes,
                  util::BlockPartition partition,
                  const NetworkLoadWeights& weights,
                  util::ThreadPool* pool = nullptr);

  /// Swaps pair (i, j)'s old contribution (read from `old_source`) for its
  /// new one (read from `new_source`) in the pair's tile and the global
  /// totals. Finish a batch with refresh_dirty().
  void patch_pair(const PairSource& old_source, const PairSource& new_source,
                  std::span<const cluster::NodeId> nodes, std::size_t i,
                  std::size_t j);

  /// Applies a batch of patches. With a pool the batch is sharded by tile
  /// range: a shard owns a disjoint tile-index interval (same-tile pairs —
  /// including duplicates — replay in delta order inside one shard), tile
  /// accumulators are mutated directly, and exact global deltas fold in
  /// canonical shard order — bit-identical to serial patch_pair calls.
  /// There are never more shards than tiles, so a one-block state patches
  /// serially. Finish with refresh_dirty().
  void patch_pairs(const PairSource& old_source, const PairSource& new_source,
                   std::span<const cluster::NodeId> nodes,
                   std::span<const PairPosition> pairs,
                   util::ThreadPool* pool = nullptr);

  /// Re-derives the normalization scalars from the exact global totals.
  void refresh_dirty();

  /// Writes the full canonical NL matrix (normalized, unit-mean rescaled,
  /// symmetric, zero diagonal) from `source`. O(n²). Parallel-safe over row
  /// ranges (disjoint cell writes).
  void materialize_dense(const PairSource& source,
                         std::span<const cluster::NodeId> nodes,
                         util::FlatMatrix& out,
                         util::ThreadPool* pool = nullptr) const;

  std::size_t node_count() const { return n_; }
  const util::BlockPartition& partition() const { return partition_; }
  const NlScalars& scalars() const { return scalars_; }

  /// Mean filled tile terms (lat, comp) for phase-1 group aggregates.
  double tile_lat_mean(std::size_t t) const;
  double tile_comp_mean(std::size_t t) const;
  std::uint64_t tile_pairs(std::size_t t) const { return tile_pairs_[t]; }

  std::size_t memory_bytes() const;

 private:
  std::size_t n_ = 0;
  util::BlockPartition partition_;
  NetworkLoadWeights weights_;

  // Per-tile exact totals over measured terms + unmeasured counts + pair
  // counts, indexed by BlockPartition::tile_index.
  std::vector<ExactSum> tile_lat_;
  std::vector<ExactSum> tile_comp_;
  std::vector<std::uint64_t> tile_lat_missing_;
  std::vector<std::uint64_t> tile_comp_missing_;
  std::vector<std::uint64_t> tile_pairs_;

  // Global exact totals (the fold of all tiles, maintained incrementally).
  ExactSum lat_acc_;
  ExactSum comp_acc_;
  std::uint64_t lat_missing_ = 0;
  std::uint64_t comp_missing_ = 0;
  std::size_t pair_total_ = 0;

  NlScalars scalars_;
};

}  // namespace detail

/// Immutable tiled pair state published with an epoch. Carries the block
/// partition over working-set positions, per-tile aggregate means for
/// phase-1 group selection, the canonical global scalars, and a lazy dense
/// tile cache for phase 2 — tiles of blocks an allocation actually chose
/// are the only dense pair values ever materialized. tile_values() is
/// thread-safe (decide() runs concurrently against one epoch).
class TiledPairState {
 public:
  struct TileAggregate {
    double lat_mean = 0.0;   ///< filled mean latency over the tile's pairs
    double comp_mean = 0.0;  ///< filled mean bandwidth complement
    std::uint64_t pairs = 0;
  };

  util::BlockPartition partition;
  NetworkLoadWeights weights;
  std::vector<TileAggregate> tiles;  ///< BlockPartition::tile_index order
  detail::NlScalars scalars;
  /// Working-set node ids (== PreparedSnapshot::usable) and the raw-term
  /// source the lazy tile fill reads through.
  std::vector<cluster::NodeId> nodes;
  std::shared_ptr<const PairSource> source;

  /// Canonical NL value for working-set positions (i, j) — bit-identical to
  /// the dense prepared matrix entry [i][j].
  double nl_value(std::size_t i, std::size_t j) const {
    if (i == j) {
      return 0.0;
    }
    const PairSource::Raw raw = source->read(nodes[i], nodes[j]);
    return detail::nl_value_from_raw(raw.lat, raw.comp, scalars, weights);
  }

  /// Dense values of tile (a, b), a ≤ b, materialized on first use and
  /// cached for the epoch's lifetime. Row-major over (members(a),
  /// members(b)). Thread-safe.
  std::span<const double> tile_values(std::size_t a, std::size_t b) const;

  std::size_t tiles_materialized() const;
  std::size_t tile_cache_hits() const;
  /// Bytes of pair state held right now: aggregates, partition and the
  /// materialized tile cache (the dense V×V matrix this replaces is
  /// n² × 8 bytes).
  std::size_t memory_bytes() const;

 private:
  mutable std::mutex cache_mutex_;
  mutable util::TiledMatrix cache_;
  mutable bool cache_ready_ = false;
};

/// One-shot canonical prepared-NL matrix (normalize by chunked sums, fill
/// missing with the measured mean, unit-mean rescale). This is what the
/// one-shot allocator, reference::allocate and the epoch builder all use;
/// it intentionally supersedes rescale_unit_mean(network_loads(...)) as the
/// prepared-input definition (the raw network_loads() stays as the Eq. 2
/// diagnostic form).
void prepared_network_loads(const monitor::ClusterSnapshot& snapshot,
                            std::span<const cluster::NodeId> nodes,
                            const NetworkLoadWeights& weights,
                            util::FlatMatrix& out);

/// The broker gate's aggregates over a working set: the mean 1-minute CPU
/// load per logical core and the effective capacity Σ pc. The one
/// definition behind both PreparedBuilder epochs and the classic
/// ResourceBroker::decide(snapshot), so their wait verdicts agree bit for
/// bit.
struct GateAggregates {
  double load_per_core = 0.0;
  int effective_capacity = 0;
};

GateAggregates gate_aggregates(const monitor::ClusterSnapshot& snapshot,
                               std::span<const cluster::NodeId> usable,
                               std::span<const int> pc);

/// An immutable epoch: everything a decide() needs, derived from one
/// snapshot version and one request profile. Safe to read from any number
/// of threads; never mutated after build().
struct PreparedSnapshot {
  /// The snapshot the epoch derives from (annotation, hostfiles, audit).
  std::shared_ptr<const monitor::ClusterSnapshot> snapshot;
  RequestProfile profile;
  std::uint64_t version = 0;  ///< snapshot version the state matches
  double time = 0.0;          ///< snapshot assembly time
  std::uint64_t epoch = 0;    ///< stamped by EpochPublisher::publish

  std::vector<cluster::NodeId> usable;
  std::vector<double> cl;  ///< unit-mean rescaled compute loads
  /// Canonical NL matrix. shared_ptr so epochs whose network state did not
  /// change (node-only ticks — the common case given the paper's 3–10 s node
  /// vs 1–5 min pair cadences) share one materialized matrix. A tiled
  /// builder above its dense_nl_limit publishes nullptr here — consumers
  /// must then decide through `tiles` (allocate_two_phase).
  std::shared_ptr<const util::FlatMatrix> nl;
  /// Tiled pair state (nullptr unless the builder runs in tiled mode).
  /// Shared across node-only epochs exactly like `nl`.
  std::shared_ptr<const TiledPairState> tiles;
  std::vector<int> pc;

  /// Position of each NodeId in `usable` (-1 = not usable). Batch admission
  /// uses this to debit capacity by node id.
  std::vector<std::int32_t> pos_of;

  // Broker-gate aggregates (gate_aggregates over usable/pc).
  double load_per_core = 0.0;
  int effective_capacity = 0;

  // Build provenance (observability / tests).
  bool incremental = false;     ///< last state change was a delta apply
  std::size_t delta_nodes = 0;  ///< in-working-set dirty nodes applied
  std::size_t delta_pairs = 0;  ///< in-working-set dirty pairs applied

  // Degradation provenance (set by ResourceBroker when a Degrader rewrote
  // the snapshot this epoch derives from; see core/degrade.h).
  bool degraded = false;           ///< snapshot was rewritten for staleness
  std::size_t quarantined = 0;     ///< nodes quarantined out of usable
  std::size_t pair_fallbacks = 0;  ///< pairs served from the 5-min fallback
};

/// Tiled-mode configuration for PreparedBuilder: how the working set is cut
/// into blocks, and whether epochs still carry the dense NL matrix. Without
/// it a builder keeps the working set as one block and always publishes
/// the dense matrix.
struct TilingOptions {
  /// Materialize the dense NL matrix only while the usable-node count is at
  /// most this; above it epochs carry nl == nullptr and only the tiled
  /// state, and decides must go through allocate_two_phase.
  std::size_t dense_nl_limit = 2048;
  /// 0 = one block per switch id (topology partition); > 0 = fixed-size
  /// blocks of the usable set in position order (topology-free clusters).
  std::size_t block_size = 0;
};

/// Owner-thread builder of PreparedSnapshot epochs. Not thread-safe; one
/// monitor/refresh thread drives it while decide() threads consume the
/// immutable epochs it builds. Pair state is one detail::TiledNlState; the
/// builder holds the snapshot it last saw, and update() re-reads dirty
/// pairs' old terms from it, so a caller must never modify a snapshot
/// after handing it over.
class PreparedBuilder {
 public:
  /// The working set is one block; every epoch carries the dense NL matrix
  /// and no TiledPairState.
  explicit PreparedBuilder(RequestProfile profile);
  /// Tiled mode: the working set is cut per switch (or into fixed-size
  /// blocks), and epochs additionally publish a TiledPairState.
  PreparedBuilder(RequestProfile profile, TilingOptions tiling);

  /// Attaches (or detaches, with nullptr) a refresh pool: full rebuilds,
  /// sharded delta applies and NL materializations then fan out over its
  /// workers. Results are bit-identical with or without a pool — the pool
  /// only changes wall time, never bits (fixed-range ExactSum partials
  /// folded in canonical order; see DESIGN.md §17). The pool must outlive
  /// every rebuild()/update()/build() call.
  void set_thread_pool(util::ThreadPool* pool) { pool_ = pool; }
  util::ThreadPool* thread_pool() const { return pool_; }

  const RequestProfile& profile() const { return profile_; }
  bool has_state() const { return has_state_; }
  std::uint64_t state_version() const { return version_; }

  /// Full O(V²) re-preparation from the snapshot. Also the fallback target
  /// of update() and the correctness oracle the tests compare against.
  void rebuild(std::shared_ptr<const monitor::ClusterSnapshot> snapshot);

  /// Applies a delta in O(dirty + V). Returns true when the
  /// delta was applied incrementally; falls back to rebuild() (returning
  /// false) whenever continuity cannot be proven: no prior state, version
  /// gap, livehosts change, an explicit full flag, a node-count change, a
  /// dirty node whose usability flipped, or working-set dirty pairs arriving
  /// on the very snapshot object the builder already holds (mutated in
  /// place, so the pairs' old terms are gone).
  bool update(std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
              const monitor::SnapshotDelta& delta);

  /// Materializes the current state as an immutable epoch. O(V²) only when
  /// pair state changed since the last build; otherwise the previous NL
  /// matrix is shared.
  std::shared_ptr<PreparedSnapshot> build();

 private:
  void recompute_node_state();

  RequestProfile profile_;
  util::ThreadPool* pool_ = nullptr;  ///< not owned; refresh fan-out target
  bool has_state_ = false;
  std::shared_ptr<const monitor::ClusterSnapshot> snapshot_;
  std::uint64_t version_ = 0;
  double time_ = 0.0;

  std::vector<cluster::NodeId> usable_;
  std::vector<std::int32_t> pos_of_;
  std::vector<double> cl_;
  std::vector<int> pc_;
  GateAggregates gate_;

  std::optional<TilingOptions> tiling_;  ///< nullopt = one block
  detail::TiledNlState pair_state_;
  std::shared_ptr<const util::FlatMatrix> nl_cache_;  ///< last materialized
  std::shared_ptr<const TiledPairState> tiles_cache_;  ///< tiled mode only
  bool nl_stale_ = true;

  bool incremental_ = false;
  std::size_t delta_nodes_ = 0;
  std::size_t delta_pairs_ = 0;
};

namespace simd {

/// Which addition-cost kernel runtime dispatch selected for this process.
enum class Kernel { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// The canonical scalar Algorithm-1 scoring row:
///   out[u] = alpha * cl[u] + beta * nl_row[u]
/// (the caller zeroes out[start] afterwards). This is the reference the
/// vector kernels are gated against; the equivalence suites pin the whole
/// fast path to it.
void score_addition_row_scalar(double alpha, std::span<const double> cl,
                               const double* nl_row, double beta,
                               std::span<double> out);

/// Dispatched scoring row: AVX2 on x86-64, NEON on aarch64, scalar
/// otherwise. The vector kernels use element-wise mul + add (never a fused
/// multiply-add), so each lane performs the same two IEEE roundings as the
/// scalar expression — and dispatch additionally runs a one-time exactness
/// probe, falling back to scalar if the local compiler contracted the
/// scalar loop differently. Results are therefore bit-identical to
/// score_addition_row_scalar on every platform, by construction or by gate.
void score_addition_row(double alpha, std::span<const double> cl,
                        const double* nl_row, double beta,
                        std::span<double> out);

// The three O(V) passes of Algorithm 1's capacity-weighted bucket select
// (core/candidate.cc), one call each per start node. Each has a scalar
// reference kernel; the dispatched ones run AVX2 on x86-64 and the scalar
// reference elsewhere. They produce integer bucket codes, survivor indices
// and min/max values, which involve no rounding, so the AVX2 kernels equal
// the references by construction. `cost` and `pc` have one entry per node
// and start < cost.size().

/// Cost buckets of the select; bucket codes run 0..kCostBuckets−1, and
/// kCostBuckets itself is the sentinel of a node the fill cannot take. More
/// buckets leave fewer survivors to sort and cost more per start to scan.
inline constexpr std::size_t kCostBuckets = 256;

/// The cost range of the nodes the fill can take from `start`: the min and
/// max of cost[u] over u ≠ start with pc[u] > 0. A NaN cost is ignored, as
/// std::min/std::max ignore it; with no such node lo = +∞ and hi = −∞.
/// `negative_capacity` tells whether some pc[u], u ≠ start, is negative. A
/// zero min or max may differ in sign from the reference's, which no bucket
/// code can see.
struct CostRange {
  double lo = 0.0;
  double hi = 0.0;
  bool negative_capacity = false;
};
CostRange cost_range_scalar(std::span<const double> cost,
                            std::span<const int> pc, std::size_t start);
CostRange cost_range(std::span<const double> cost, std::span<const int> pc,
                     std::size_t start);

/// out[u] = clamp(⌊(cost[u] − lo)·scale⌋, 0, kCostBuckets − 1), with a NaN
/// product in bucket 0, and kCostBuckets for u == start and for pc[u] == 0.
void bucket_codes_scalar(std::span<const double> cost,
                         std::span<const int> pc, std::size_t start,
                         double lo, double scale,
                         std::span<std::uint16_t> out);
void bucket_codes(std::span<const double> cost, std::span<const int> pc,
                  std::size_t start, double lo, double scale,
                  std::span<std::uint16_t> out);

/// Appends every u with codes[u] < keep to `out`, in ascending order.
void collect_survivors_scalar(std::span<const std::uint16_t> codes,
                              std::size_t keep,
                              std::vector<std::size_t>& out);
void collect_survivors(std::span<const std::uint16_t> codes,
                       std::size_t keep, std::vector<std::size_t>& out);

/// The kernel set the one-time dispatch landed on ("scalar", "avx2",
/// "neon"). It names the scoring row; the select kernels run AVX2 exactly
/// when it is "avx2".
Kernel active_kernel();
const char* active_kernel_name();

}  // namespace simd

/// Stateless Algorithms 1+2 against an immutable epoch — the concurrent
/// decide() hot path (thread safety comes from touching only the epoch,
/// thread-local scratch and atomic metrics).
///
/// `pc_override`/`starts` support batch admission: a non-empty pc_override
/// replaces the epoch's per-node capacities (zero entries are skipped by the
/// process fill), and a non-empty `starts` restricts candidate generation to
/// those working-set positions. Both empty = the plain single-request path.
/// `stats` (optional) receives the per-stage timings and counters.
Allocation allocate_prepared(const PreparedSnapshot& prepared,
                             const AllocationRequest& request,
                             const GenerationOptions& options = {},
                             AllocStats* stats = nullptr,
                             std::span<const int> pc_override = {},
                             std::span<const std::size_t> starts = {});

}  // namespace nlarm::core
