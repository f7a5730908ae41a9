// Microbenchmarks for incremental re-preparation and concurrent serving.
//
// BM_DeltaUpdate vs BM_FullPrepare quantifies the tentpole claim: applying a
// SnapshotDelta touching c% of nodes and pairs re-prepares O(dirty) state
// instead of the O(V²) from-scratch pipeline. BM_ConcurrentDecide measures
// decide() throughput against a pinned immutable epoch from 1/4/8 threads
// (the serialized classic path is benchmarked alongside for contrast — on a
// single-core host the thread counts time-slice, so the interesting number
// is the absence of a slowdown, not a speedup).
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "core/allocator.h"
#include "core/broker.h"
#include "core/epoch.h"
#include "core/prepared.h"
#include "monitor/snapshot.h"
#include "monitor/snapshot_delta.h"
#include "sim/rng.h"

using namespace nlarm;

namespace {

monitor::ClusterSnapshot synthetic_snapshot(int n, std::uint64_t seed) {
  sim::Rng rng(seed);
  monitor::ClusterSnapshot snap;
  snap.version = (seed << 20) | static_cast<std::uint64_t>(n);
  snap.livehosts.assign(static_cast<std::size_t>(n), true);
  snap.nodes.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& node = snap.nodes[static_cast<std::size_t>(i)];
    node.spec.id = i;
    node.spec.hostname = cluster::default_hostname(i);
    node.spec.core_count = rng.chance(0.5) ? 8 : 12;
    node.spec.cpu_freq_ghz = node.spec.core_count == 8 ? 2.8 : 4.6;
    node.spec.total_mem_gb = 16.0;
    node.valid = true;
    node.sample_time = 0.0;
    const double load = rng.uniform(0.0, 6.0);
    node.cpu_load = load;
    node.cpu_load_avg = {load, load, load};
    const double util = rng.uniform(0.0, 1.0);
    node.cpu_util = util;
    node.cpu_util_avg = {util, util, util};
    const double flow = rng.uniform(0.0, 500.0);
    node.net_flow_mbps = flow;
    node.net_flow_avg = {flow, flow, flow};
    node.mem_used_gb = rng.uniform(1.0, 12.0);
    const double avail = 16.0 - node.mem_used_gb;
    node.mem_avail_avg = {avail, avail, avail};
    node.users = static_cast<int>(rng.uniform_int(0, 5));
  }
  snap.net.latency_us = monitor::make_matrix(n, 0.0);
  snap.net.latency_5min_us = monitor::make_matrix(n, 0.0);
  snap.net.bandwidth_mbps = monitor::make_matrix(n, 0.0);
  snap.net.peak_mbps = monitor::make_matrix(n, 0.0);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      const double lat = rng.uniform(50.0, 600.0);
      const double bw = rng.uniform(100.0, 1000.0);
      const auto uu = static_cast<std::size_t>(u);
      const auto vv = static_cast<std::size_t>(v);
      snap.net.latency_us[uu][vv] = snap.net.latency_us[vv][uu] = lat;
      snap.net.latency_5min_us[uu][vv] = snap.net.latency_5min_us[vv][uu] =
          lat;
      snap.net.bandwidth_mbps[uu][vv] = snap.net.bandwidth_mbps[vv][uu] = bw;
      snap.net.peak_mbps[uu][vv] = snap.net.peak_mbps[vv][uu] = 1000.0;
    }
  }
  return snap;
}

core::AllocationRequest standard_request(int nprocs) {
  core::AllocationRequest request;
  request.nprocs = nprocs;
  request.ppn = 4;
  request.job = core::JobWeights{0.3, 0.7};
  return request;
}

/// Evenly strided sample of `count` dirty node ids out of [0, n).
std::vector<cluster::NodeId> strided_nodes(int n, int count) {
  std::vector<cluster::NodeId> ids;
  ids.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    ids.push_back(static_cast<cluster::NodeId>(
        static_cast<long long>(i) * n / count));
  }
  return ids;
}

/// Evenly strided sample of `count` (u, v) pairs in i-major order — already
/// sorted the way DeltaTracker::drain() emits them.
std::vector<std::pair<cluster::NodeId, cluster::NodeId>> strided_pairs(
    int n, long long count) {
  const long long total = static_cast<long long>(n) * (n - 1) / 2;
  std::vector<std::pair<cluster::NodeId, cluster::NodeId>> pairs;
  pairs.reserve(static_cast<std::size_t>(count));
  int u = 0;
  long long row_start = 0;  // linear index of pair (u, u + 1)
  for (long long i = 0; i < count; ++i) {
    const long long k = i * total / count;
    while (k >= row_start + (n - 1 - u)) {
      row_start += n - 1 - u;
      ++u;
    }
    const int v = u + 1 + static_cast<int>(k - row_start);
    pairs.emplace_back(u, v);
  }
  return pairs;
}

/// The churned-tick setup shared by the delta benches: every tick copies
/// the current snapshot and rewrites the copy's dirty subset, outside the
/// timed region. The copy is needed because update() re-reads dirty pairs'
/// old terms from the snapshot it last saw; `previous` keeps that one alive
/// until the next churn, so its release is never timed either.
struct DeltaFixture {
  DeltaFixture(int n, int churn_pct)
      : snap(std::make_shared<monitor::ClusterSnapshot>(
            synthetic_snapshot(n, 42))),
        rng(7),
        dirty_nodes(strided_nodes(n, std::max(1, n * churn_pct / 100))),
        dirty_pairs(strided_pairs(
            n, std::max<long long>(
                   1, static_cast<long long>(n) * (n - 1) / 2 * churn_pct /
                          100))) {}

  /// Copies the snapshot, rewrites the copy's dirty subset with fresh
  /// values, bumps its version, and returns the matching delta.
  monitor::SnapshotDelta churn() {
    previous = std::move(snap);
    snap = std::make_shared<monitor::ClusterSnapshot>(*previous);
    for (const cluster::NodeId id : dirty_nodes) {
      auto& node = snap->nodes[static_cast<std::size_t>(id)];
      const double load = rng.uniform(0.0, 6.0);
      node.cpu_load = load;
      node.cpu_load_avg = {load, load, load};
      node.mem_used_gb = rng.uniform(1.0, 12.0);
    }
    for (const auto& [u, v] : dirty_pairs) {
      const double lat = rng.uniform(50.0, 600.0);
      const double bw = rng.uniform(100.0, 1000.0);
      const auto uu = static_cast<std::size_t>(u);
      const auto vv = static_cast<std::size_t>(v);
      snap->net.latency_us[uu][vv] = snap->net.latency_us[vv][uu] = lat;
      snap->net.bandwidth_mbps[uu][vv] = snap->net.bandwidth_mbps[vv][uu] =
          bw;
    }
    monitor::SnapshotDelta delta;
    delta.base_version = snap->version;
    snap->version += 1;
    delta.version = snap->version;
    delta.dirty_nodes = dirty_nodes;
    delta.dirty_pairs = dirty_pairs;
    return delta;
  }

  std::shared_ptr<monitor::ClusterSnapshot> snap;
  std::shared_ptr<const monitor::ClusterSnapshot> previous;
  sim::Rng rng;
  std::vector<cluster::NodeId> dirty_nodes;
  std::vector<std::pair<cluster::NodeId, cluster::NodeId>> dirty_pairs;
};

/// Incremental path: apply a churn% delta to primed prepared state. Manual
/// time so the snapshot copy and rewrite stay out of the measurement.
void BM_DeltaUpdate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int churn_pct = static_cast<int>(state.range(1));
  DeltaFixture fixture(n, churn_pct);
  core::PreparedBuilder builder(
      core::RequestProfile::of(standard_request(32)));
  builder.rebuild(fixture.snap);
  for (auto _ : state) {
    const monitor::SnapshotDelta delta = fixture.churn();
    const auto start = std::chrono::steady_clock::now();
    const bool applied = builder.update(fixture.snap, delta);
    const auto end = std::chrono::steady_clock::now();
    if (!applied) {
      state.SkipWithError("incremental update fell back to a full rebuild");
      break;
    }
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.counters["dirty_nodes"] =
      static_cast<double>(fixture.dirty_nodes.size());
  state.counters["dirty_pairs"] =
      static_cast<double>(fixture.dirty_pairs.size());
}
BENCHMARK(BM_DeltaUpdate)
    ->Args({256, 1})
    ->Args({256, 10})
    ->Args({1024, 1})
    ->Args({1024, 10})
    ->Args({4096, 1})
    ->Args({4096, 10})
    ->UseManualTime();

/// Baseline the delta path is judged against: the O(V²) from-scratch
/// re-preparation of the same snapshot.
void BM_FullPrepare(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto snap = std::make_shared<const monitor::ClusterSnapshot>(
      synthetic_snapshot(n, 42));
  core::PreparedBuilder builder(
      core::RequestProfile::of(standard_request(32)));
  for (auto _ : state) {
    builder.rebuild(snap);
    benchmark::DoNotOptimize(builder.state_version());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_FullPrepare)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Complexity(benchmark::oNSquared);

/// End-to-end republish: delta update + immutable epoch build (including
/// the lazy NL materialization forced by the dirty pairs).
void BM_EpochBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int churn_pct = static_cast<int>(state.range(1));
  DeltaFixture fixture(n, churn_pct);
  core::PreparedBuilder builder(
      core::RequestProfile::of(standard_request(32)));
  builder.rebuild(fixture.snap);
  for (auto _ : state) {
    const monitor::SnapshotDelta delta = fixture.churn();
    const auto start = std::chrono::steady_clock::now();
    bool applied = builder.update(fixture.snap, delta);
    std::shared_ptr<const core::PreparedSnapshot> epoch = builder.build();
    const auto end = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(epoch);
    if (!applied) {
      state.SkipWithError("incremental update fell back to a full rebuild");
      break;
    }
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
}
BENCHMARK(BM_EpochBuild)
    ->Args({256, 1})
    ->Args({1024, 1})
    ->UseManualTime();

/// Lock-free serving: N threads decide against pinned immutable epochs.
void BM_ConcurrentDecide(benchmark::State& state) {
  static core::NetworkLoadAwareAllocator allocator;
  static core::ResourceBroker* broker = [] {
    auto* b = new core::ResourceBroker(allocator);
    b->refresh_epoch(std::make_shared<const monitor::ClusterSnapshot>(
                         synthetic_snapshot(256, 42)),
                     core::RequestProfile::of(standard_request(32)));
    return b;
  }();
  const auto request = standard_request(32);
  core::EpochPin pin = broker->pin_epoch();
  for (auto _ : state) {
    broker->refresh_pin(pin);
    benchmark::DoNotOptimize(broker->decide(pin, request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentDecide)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// Contrast: the classic decide() under the same fan-in. Each call
/// prepares CL/NL/pc from the snapshot and scores inside the allocator's
/// critical section, so it pays the O(V²) preparation the epoch path
/// amortizes as well as the lock.
void BM_ClassicDecideLocked(benchmark::State& state) {
  static core::NetworkLoadAwareAllocator allocator;
  static core::ResourceBroker broker(allocator);
  static const monitor::ClusterSnapshot snap = synthetic_snapshot(256, 42);
  const auto request = standard_request(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(broker.decide(snap, request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassicDecideLocked)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

}  // namespace

#include "bench_main.h"
NLARM_BENCHMARK_MAIN()
