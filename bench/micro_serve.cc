// Admission front-end microbenchmarks (google-benchmark).
//
// The claim: the sharded serve path (core/serve_shard.h) with its decision
// cache sustains >= 5x the decisions/sec of the uncached epoch path at 8
// producer threads. Four front ends over one V=256 snapshot, same request:
//
//   BM_MutexFrontedServe  classic decide(snapshot, request): every call
//                         prepares CL/NL/pc from the snapshot and scores
//                         with the allocator serialized on decide_mutex_.
//   BM_EpochDirectServe   decide(pin, request): lock-free epoch path, but
//                         every caller pays a full Algorithm-1/2 pass.
//   BM_ShardServeNoCache  4 shards, cache off: each caller fresh-scores
//                         under its shard's lock (isolates the plane's
//                         locking cost over the epoch-direct path).
//   BM_ShardServeWarm     4 shards + decision cache: steady-state replay of
//                         the scoring pass under the shard's lock.
//
// The committed BENCH_serve.json carries the full-length run; CI re-runs a
// short version and enforces the warm/epoch-direct ratio (see ci.yml).
//
// BM_ScoreAdditionRow* isolate the SIMD inner loop itself (addition costs
// A_v(u) = alpha*CL(u) + beta*NL(v,u) over one contiguous NL row).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/broker.h"
#include "core/prepared.h"
#include "core/serve_shard.h"
#include "monitor/snapshot.h"
#include "sim/rng.h"

#include "bench_main.h"

using namespace nlarm;

namespace {

constexpr int kNodes = 256;
constexpr int kProducerThreads = 8;

monitor::ClusterSnapshot synthetic_snapshot(int n, std::uint64_t seed) {
  sim::Rng rng(seed);
  monitor::ClusterSnapshot snap;
  snap.version = (seed << 16) | static_cast<std::uint64_t>(n);
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
    const double load = rng.uniform(0.0, 2.0);
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

core::AllocationRequest standard_request() {
  core::AllocationRequest request;
  request.nprocs = 32;
  request.ppn = 4;
  request.job = core::JobWeights{0.3, 0.7};
  return request;
}

core::BrokerPolicy permissive_policy() {
  // The synthetic loads would trip the wait gate; these benches measure the
  // serving machinery, so every decision should allocate.
  core::BrokerPolicy policy;
  policy.max_load_per_core = 1e9;
  policy.allow_oversubscription = true;
  return policy;
}

/// One broker + published epoch shared by all producer threads of a bench.
/// Function-local statics construct it exactly once (thread-safe init).
struct ServeWorld {
  monitor::ClusterSnapshot snapshot = synthetic_snapshot(kNodes, 7);
  core::AllocationRequest request = standard_request();
  core::NetworkLoadAwareAllocator allocator;
  core::ResourceBroker broker{allocator, permissive_policy()};

  ServeWorld() {
    broker.refresh_epoch(
        std::make_shared<const monitor::ClusterSnapshot>(snapshot),
        core::RequestProfile::of(request));
  }
};

struct PlaneWorld : ServeWorld {
  core::ServePlane plane;

  explicit PlaneWorld(bool cache)
      : plane(broker, [cache] {
          core::ServeOptions options;
          options.shards = 4;
          options.decision_cache = cache;
          options.debit_capacity = false;  // advisory closed-loop hammer
          return options;
        }()) {}
};

void BM_MutexFrontedServe(benchmark::State& state) {
  static ServeWorld world;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.broker.decide(world.snapshot,
                                                 world.request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutexFrontedServe)->Threads(kProducerThreads)->UseRealTime();

void BM_EpochDirectServe(benchmark::State& state) {
  static ServeWorld world;
  core::EpochPin pin = world.broker.pin_epoch();
  for (auto _ : state) {
    world.broker.refresh_pin(pin);
    benchmark::DoNotOptimize(world.broker.decide(pin, world.request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EpochDirectServe)->Threads(kProducerThreads)->UseRealTime();

void BM_ShardServeNoCache(benchmark::State& state) {
  static PlaneWorld world(/*cache=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.plane.decide(world.request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardServeNoCache)->Threads(kProducerThreads)->UseRealTime();

void BM_ShardServeWarm(benchmark::State& state) {
  static PlaneWorld world(/*cache=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.plane.decide(world.request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardServeWarm)->Threads(kProducerThreads)->UseRealTime();

// --- SIMD inner loop ---

void score_row_bench(benchmark::State& state, bool scalar) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(11);
  std::vector<double> cl(n);
  std::vector<double> row(n);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    cl[i] = rng.uniform(0.0, 1.0);
    row[i] = rng.uniform(0.0, 1.0);
  }
  for (auto _ : state) {
    if (scalar) {
      core::simd::score_addition_row_scalar(0.3, cl, row.data(), 0.7, out);
    } else {
      core::simd::score_addition_row(0.3, cl, row.data(), 0.7, out);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
  state.SetLabel(scalar ? "scalar" : core::simd::active_kernel_name());
}

void BM_ScoreAdditionRowScalar(benchmark::State& state) {
  score_row_bench(state, /*scalar=*/true);
}
BENCHMARK(BM_ScoreAdditionRowScalar)->Arg(256)->Arg(4096);

void BM_ScoreAdditionRowDispatched(benchmark::State& state) {
  score_row_bench(state, /*scalar=*/false);
}
BENCHMARK(BM_ScoreAdditionRowDispatched)->Arg(256)->Arg(4096);

}  // namespace

NLARM_BENCHMARK_MAIN()
