// Microbenchmarks for the allocation algorithms (google-benchmark).
//
// §3.3.2 claims: candidate generation O(V log V) per start (O(V² log V)
// total), best-candidate selection O(V·(n/ppn)²), and a total runtime of
// ~1–2 ms — "practically nil overhead". These benches verify the wall-clock
// claim at the paper's scale (V = 60) and the scaling trend beyond it.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <numeric>

#include "core/allocator.h"
#include "core/baselines.h"
#include "core/candidate.h"
#include "core/compute_load.h"
#include "core/network_load.h"
#include "monitor/snapshot.h"
#include "sim/rng.h"
#include "util/thread_pool.h"

using namespace nlarm;

namespace {

monitor::ClusterSnapshot synthetic_snapshot(int n, std::uint64_t seed) {
  sim::Rng rng(seed);
  monitor::ClusterSnapshot snap;
  // Versioned like a MonitorStore-assembled snapshot.
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

/// One classic allocate() per iteration: the O(V²) CL/NL/pc preparation
/// from the snapshot plus Algorithms 1+2 (the allocator keeps nothing
/// between calls).
void BM_FullAllocation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto snap = synthetic_snapshot(n, 42);
  const auto request = standard_request(32);
  core::NetworkLoadAwareAllocator allocator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(snap, request));
  }
  state.SetComplexityN(n);
}
// V=60 is the paper's cluster; the ~1-2 ms claim applies there.
BENCHMARK(BM_FullAllocation)->Arg(16)->Arg(60)->Arg(128)->Arg(256)->Arg(512)
    ->Arg(1024)->Complexity(benchmark::oNSquared);

void BM_CandidateGeneration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto snap = synthetic_snapshot(n, 42);
  std::vector<cluster::NodeId> usable(static_cast<std::size_t>(n));
  std::iota(usable.begin(), usable.end(), 0);
  const auto cl =
      core::compute_loads(snap, usable, core::ComputeLoadWeights{});
  const auto nl =
      core::network_loads(snap, usable, core::NetworkLoadWeights{});
  const std::vector<int> pc(static_cast<std::size_t>(n), 4);
  const core::JobWeights job{0.3, 0.7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::generate_all_candidates(cl, nl, pc, 32, job));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_CandidateGeneration)->Arg(16)->Arg(60)->Arg(128)->Arg(256)
    ->Arg(512)->Arg(1024)->Complexity();

/// All-starts generation at Eq. 3 capacities (ppn 0), the uneven pc that
/// perfbench and `nlarm_broker --ppn 0` decide with. Args: V, nprocs,
/// threads: 1 is serial, 4 fans out like an epoch decide of a broker with
/// `--refresh-threads 4` (3 pool workers plus the calling thread).
void BM_CandidateGenerationEq3(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int nprocs = static_cast<int>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));
  const auto snap = synthetic_snapshot(n, 42);
  std::vector<cluster::NodeId> usable(static_cast<std::size_t>(n));
  std::iota(usable.begin(), usable.end(), 0);
  const auto cl =
      core::compute_loads(snap, usable, core::ComputeLoadWeights{});
  const auto nl =
      core::network_loads(snap, usable, core::NetworkLoadWeights{});
  const std::vector<int> pc = core::effective_process_counts(snap, usable, 0);
  const core::JobWeights job{0.3, 0.7};
  util::ThreadPool pool(threads - 1);
  core::GenerationOptions options;
  options.pool = &pool;
  if (threads == 1) options.parallel_threshold = -1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::generate_all_candidates(cl, nl, pc, nprocs, job, {}, options));
  }
}
BENCHMARK(BM_CandidateGenerationEq3)
    ->ArgsProduct({{256, 2048}, {16, 128, 512}, {1, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Capacity probe: a fixed compute loop per thread. Its items/s at
/// threads:4 over threads:1 is how many cores the host gives this process
/// right now; quote it next to any parallel speedup, since the capacity of
/// a shared host drifts from minute to minute.
void BM_CapacityProbe(benchmark::State& state) {
  constexpr int kSteps = 1 << 20;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(
                                                state.thread_index());
  for (auto _ : state) {
    for (int i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations() * kSteps);
}
BENCHMARK(BM_CapacityProbe)->Threads(1)->Threads(4)->UseRealTime();

void BM_ComputeLoads(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto snap = synthetic_snapshot(n, 42);
  std::vector<cluster::NodeId> usable(static_cast<std::size_t>(n));
  std::iota(usable.begin(), usable.end(), 0);
  const core::ComputeLoadWeights weights;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_loads(snap, usable, weights));
  }
}
BENCHMARK(BM_ComputeLoads)->Arg(60)->Arg(256);

void BM_NetworkLoads(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto snap = synthetic_snapshot(n, 42);
  std::vector<cluster::NodeId> usable(static_cast<std::size_t>(n));
  std::iota(usable.begin(), usable.end(), 0);
  const core::NetworkLoadWeights weights;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::network_loads(snap, usable, weights));
  }
}
BENCHMARK(BM_NetworkLoads)->Arg(60)->Arg(256);

void BM_BaselineLoadAware(benchmark::State& state) {
  const auto snap = synthetic_snapshot(60, 42);
  const auto request = standard_request(32);
  core::LoadAwareAllocator allocator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(snap, request));
  }
}
BENCHMARK(BM_BaselineLoadAware);

void BM_BaselineRandom(benchmark::State& state) {
  const auto snap = synthetic_snapshot(60, 42);
  const auto request = standard_request(32);
  core::RandomAllocator allocator(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(snap, request));
  }
}
BENCHMARK(BM_BaselineRandom);

}  // namespace

#include "bench_main.h"
NLARM_BENCHMARK_MAIN()
