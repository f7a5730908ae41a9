// Epoch-refresh microbenchmarks (google-benchmark).
//
// The tentpole claim: the parallel refresh plane (DESIGN.md §17) takes
// PreparedBuilder full rebuilds, tiled rebuilds, and 1%-dirty delta applies
// from one core to all of them — with published epochs byte-identical to
// the serial path (the equivalence suite proves the bits; this file prices
// the wall time). Every case runs at 1 and 8 refresh threads:
//
//   BM_FullRebuild/V/T     flat rebuild() + build(): the O(V²) ExactSum
//                          pass over every directed pair plus the dense NL
//                          materialization, both pool fan-outs.
//   BM_TiledFullRebuild/V/T  tiled-state rebuild (block_size 64, dense NL
//                          suppressed above the limit): per-tile partials
//                          folded in canonical tile order.
//   BM_DeltaApply1pct/V/T  one epoch refresh from a 1%-dirty delta: the
//                          O(dirty) apply (one block, so one shard) + NL
//                          rematerialization.
//   BM_LogIngest/ahead     DeltaLogReader replay of a 64-delta log with
//                          decode-ahead off/on (CRC+decode of frame k+1
//                          overlaps the apply of frame k).
//
// The committed BENCH_refresh.json carries V=16384; CI re-runs the V=4096
// cases and enforces the 8-thread/1-thread full-rebuild ratio (see ci.yml).
// Single-core runners cannot show a speedup — the gate runs on multi-core
// CI machines; EXPERIMENTS.md records the provenance of committed numbers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/broker.h"
#include "core/prepared.h"
#include "monitor/delta_log.h"
#include "monitor/snapshot.h"
#include "monitor/store.h"
#include "util/thread_pool.h"

#include "bench_main.h"

using namespace nlarm;

namespace {

core::AllocationRequest standard_request() {
  core::AllocationRequest request;
  request.nprocs = 32;
  request.ppn = 4;
  request.job = core::JobWeights{0.3, 0.7};
  return request;
}

// Formula-filled snapshot: identical shape to the serve-bench generator but
// O(V²) without per-pair RNG, so V=16384 (268M directed pairs, ~8.6 GB of
// matrices) sets up in seconds.
std::shared_ptr<monitor::ClusterSnapshot> synthetic_snapshot(int n) {
  auto snap = std::make_shared<monitor::ClusterSnapshot>();
  snap->version = 1;
  snap->time = 1.0;
  snap->livehosts.assign(static_cast<std::size_t>(n), true);
  snap->nodes.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& node = snap->nodes[static_cast<std::size_t>(i)];
    node.spec.id = i;
    node.spec.hostname = cluster::default_hostname(i);
    node.spec.core_count = (i % 2 == 0) ? 8 : 12;
    node.spec.cpu_freq_ghz = node.spec.core_count == 8 ? 2.8 : 4.6;
    node.spec.total_mem_gb = 16.0;
    node.valid = true;
    node.sample_time = 1.0;
    const double load = 0.1 + 1.8 * ((i * 37) % 100) / 100.0;
    node.cpu_load = load;
    node.cpu_load_avg = {load, load, load};
    node.cpu_util = 0.5;
    node.cpu_util_avg = {0.5, 0.5, 0.5};
    node.net_flow_mbps = 10.0;
    node.net_flow_avg = {10.0, 10.0, 10.0};
    node.mem_used_gb = 4.0;
    node.mem_avail_avg = {12.0, 12.0, 12.0};
    node.users = i % 3;
  }
  snap->net.latency_us = monitor::make_matrix(n, 0.0);
  snap->net.latency_5min_us = monitor::make_matrix(n, 0.0);
  snap->net.bandwidth_mbps = monitor::make_matrix(n, 0.0);
  snap->net.peak_mbps = monitor::make_matrix(n, 0.0);
  for (int u = 0; u < n; ++u) {
    const auto uu = static_cast<std::size_t>(u);
    for (int v = 0; v < n; ++v) {
      if (u == v) continue;
      const auto vv = static_cast<std::size_t>(v);
      const int lo = u < v ? u : v;
      const int hi = u < v ? v : u;
      const double lat = 50.0 + ((lo * 131 + hi * 29) % 550);
      const double bw = 100.0 + ((lo * 17 + hi * 53) % 900);
      snap->net.latency_us[uu][vv] = lat;
      snap->net.latency_5min_us[uu][vv] = lat;
      snap->net.bandwidth_mbps[uu][vv] = bw;
      snap->net.peak_mbps[uu][vv] = 1000.0;
    }
  }
  return snap;
}

// Snapshots are expensive to synthesize at V=16384; share them across the
// thread-count variants of each bench (benches run sequentially).
std::shared_ptr<monitor::ClusterSnapshot> cached_snapshot(int n) {
  static std::map<int, std::shared_ptr<monitor::ClusterSnapshot>> cache;
  auto& slot = cache[n];
  if (!slot) slot = synthetic_snapshot(n);
  return slot;
}

void BM_FullRebuild(benchmark::State& state) {
  const int v = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  auto snap = cached_snapshot(v);
  util::ThreadPool pool(static_cast<std::size_t>(threads - 1));
  core::PreparedBuilder builder(core::RequestProfile::of(standard_request()));
  builder.set_thread_pool(threads > 1 ? &pool : nullptr);
  for (auto _ : state) {
    builder.rebuild(snap);
    benchmark::DoNotOptimize(builder.build());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(v) * v);
}
BENCHMARK(BM_FullRebuild)
    ->ArgsProduct({{4096, 16384}, {1, 8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TiledFullRebuild(benchmark::State& state) {
  const int v = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  auto snap = cached_snapshot(v);
  util::ThreadPool pool(static_cast<std::size_t>(threads - 1));
  core::TilingOptions tiling;
  tiling.block_size = 64;
  core::PreparedBuilder builder(core::RequestProfile::of(standard_request()),
                                tiling);
  builder.set_thread_pool(threads > 1 ? &pool : nullptr);
  for (auto _ : state) {
    builder.rebuild(snap);
    benchmark::DoNotOptimize(builder.build());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(v) * v);
}
BENCHMARK(BM_TiledFullRebuild)
    ->ArgsProduct({{4096, 16384}, {1, 8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_DeltaApply1pct(benchmark::State& state) {
  const int v = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  auto snap = cached_snapshot(v);
  util::ThreadPool pool(static_cast<std::size_t>(threads - 1));
  core::PreparedBuilder builder(core::RequestProfile::of(standard_request()));
  builder.set_thread_pool(threads > 1 ? &pool : nullptr);
  builder.rebuild(snap);
  (void)builder.build();

  const int dirty = v / 100;
  std::uint64_t version = snap->version;
  int phase = 0;
  // update() re-reads dirty pairs' old terms from the snapshot it last saw,
  // so every tick rewrites a fresh copy; `previous` outlives the timed
  // update so the old copy is released untimed too.
  std::shared_ptr<const monitor::ClusterSnapshot> previous;
  for (auto _ : state) {
    state.PauseTiming();
    previous = std::move(snap);
    snap = std::make_shared<monitor::ClusterSnapshot>(*previous);
    // 1% of nodes re-sampled and 1% of pairs re-measured, spread across the
    // cluster; advance the version chain.
    monitor::SnapshotDelta delta;
    delta.base_version = version;
    delta.version = ++version;
    const int stride = v / dirty;
    for (int i = 0; i < dirty; ++i) {
      const int id = (i * stride + phase) % v;
      auto& node = snap->nodes[static_cast<std::size_t>(id)];
      node.cpu_load = 0.1 + 1.8 * ((id + phase) % 100) / 100.0;
      node.cpu_load_avg = {node.cpu_load, node.cpu_load, node.cpu_load};
      delta.dirty_nodes.push_back(id);
    }
    std::sort(delta.dirty_nodes.begin(), delta.dirty_nodes.end());
    for (int i = 0; i < dirty; ++i) {
      const int u = (i * stride + phase) % (v - 1);
      const int w = u + 1 + (phase % (v - u - 1));
      const auto uu = static_cast<std::size_t>(u);
      const auto ww = static_cast<std::size_t>(w);
      const double lat = 50.0 + ((u + w + phase) % 550);
      snap->net.latency_us[uu][ww] = snap->net.latency_us[ww][uu] = lat;
      snap->net.latency_5min_us[uu][ww] =
          snap->net.latency_5min_us[ww][uu] = lat;
      delta.dirty_pairs.emplace_back(u, w);
    }
    std::sort(delta.dirty_pairs.begin(), delta.dirty_pairs.end());
    delta.dirty_pairs.erase(
        std::unique(delta.dirty_pairs.begin(), delta.dirty_pairs.end()),
        delta.dirty_pairs.end());
    snap->version = version;
    ++phase;
    state.ResumeTiming();

    if (!builder.update(snap, delta)) {
      state.SkipWithError("delta apply fell back to a full rebuild");
      break;
    }
    benchmark::DoNotOptimize(builder.build());
  }
  state.SetItemsProcessed(state.iterations() * dirty);
}
BENCHMARK(BM_DeltaApply1pct)
    ->ArgsProduct({{4096, 16384}, {1, 8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// A 1-full + 64-delta log replayed by a fresh reader per iteration, with
// the decode-ahead worker off (0) and on (1).
void BM_LogIngest(benchmark::State& state) {
  constexpr int kNodes = 512;
  constexpr int kFrames = 64;
  static const std::string path = [] {
    std::string p = "/tmp/micro_refresh_ingest.nlarmd";
    std::remove(p.c_str());
    monitor::MonitorStore store(kNodes);
    double now = 1.0;
    store.write_livehosts(now, std::vector<bool>(kNodes, true));
    for (int i = 0; i < kNodes; ++i) {
      monitor::NodeSnapshot record;
      record.spec.id = i;
      record.spec.hostname = cluster::default_hostname(i);
      record.spec.core_count = 8;
      record.spec.cpu_freq_ghz = 3.0;
      record.spec.total_mem_gb = 16.0;
      record.cpu_load = 0.5;
      store.write_node_record(now, record);
    }
    for (int u = 0; u < kNodes; ++u) {
      for (int w = u + 1; w < kNodes; ++w) {
        store.write_latency(now, u, w, 100.0 + u + w, 100.0 + u + w);
        store.write_bandwidth(now, u, w, 900.0, 1000.0);
      }
    }
    monitor::DeltaLogWriter::Options options;
    options.compact_after_deltas = 1 << 20;
    options.compact_bytes_ratio = 1e9;
    monitor::DeltaLogWriter writer(p, options);
    writer.append(store.assemble(now), store.drain_delta());
    for (int f = 0; f < kFrames; ++f) {
      now += 1.0;
      for (int i = 0; i < kNodes / 20; ++i) {
        monitor::NodeSnapshot record;
        const int id = (f * 31 + i * 20) % kNodes;
        record.spec.id = id;
        record.spec.hostname = cluster::default_hostname(id);
        record.spec.core_count = 8;
        record.spec.cpu_freq_ghz = 3.0;
        record.spec.total_mem_gb = 16.0;
        record.cpu_load = 0.1 + (f + i) % 10 * 0.2;
        store.write_node_record(now, record);
        const int u = id % (kNodes - 1);
        store.write_latency(now, u, u + 1, 100.0 + f, 100.0 + f);
      }
      writer.append(store.assemble(now), store.drain_delta());
    }
    return p;
  }();

  const bool ahead = state.range(0) != 0;
  for (auto _ : state) {
    monitor::DeltaLogReader reader(path);
    reader.set_decode_ahead(ahead);
    int frames = 0;
    while (int polled = reader.poll()) frames += polled;
    if (frames != kFrames + 1) {
      state.SkipWithError("short read of the ingest log");
      break;
    }
    benchmark::DoNotOptimize(reader.snapshot());
  }
  state.SetItemsProcessed(state.iterations() * (kFrames + 1));
  state.SetLabel(ahead ? "decode-ahead" : "serial");
}
BENCHMARK(BM_LogIngest)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

NLARM_BENCHMARK_MAIN()
