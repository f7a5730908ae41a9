// Delta append-log (`.nlarmd`): O(dirty) on-disk ingest. Replay must equal
// the live store bit for bit, torn tails must be ignored and healed by
// compaction, the compaction policy must bound the log, and a broker
// following the log must decide exactly like one fed from the live store.
#include "monitor/delta_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/allocator.h"
#include "core/broker.h"
#include "core/prepared.h"
#include "monitor/persistence.h"
#include "monitor/store.h"
#include "test_helpers.h"
#include "util/binio.h"
#include "util/check.h"

namespace nlarm::monitor {
namespace {

std::string log_path(const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name +
                           std::string(kDeltaLogExtension);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

// A store with every record written once (so snapshots are fully valid).
std::unique_ptr<MonitorStore> seeded_store(int n, double now = 10.0) {
  auto store = std::make_unique<MonitorStore>(n);
  store->write_livehosts(now, std::vector<bool>(static_cast<std::size_t>(n),
                                                true));
  for (int i = 0; i < n; ++i) {
    NodeSnapshot record;
    record.spec.id = i;
    record.spec.hostname = "host" + std::to_string(i);
    record.spec.core_count = 8;
    record.spec.cpu_freq_ghz = 3.0;
    record.spec.total_mem_gb = 16.0;
    record.cpu_load = 0.1 * i;
    store->write_node_record(now, record);
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      store->write_latency(now, u, v, 100.0 + u + v, 101.0 + u + v);
      store->write_latency(now, v, u, 100.0 + u + v, 101.0 + u + v);
      store->write_bandwidth(now, u, v, 900.0 - u - v, 941.0);
      store->write_bandwidth(now, v, u, 900.0 - u - v, 941.0);
    }
  }
  return store;
}

void expect_equal_state(const ClusterSnapshot& a, const ClusterSnapshot& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.version, b.version);
  EXPECT_DOUBLE_EQ(a.time, b.time);
  EXPECT_EQ(a.livehosts, b.livehosts);
  for (int i = 0; i < a.size(); ++i) {
    const auto& x = a.nodes[static_cast<std::size_t>(i)];
    const auto& y = b.nodes[static_cast<std::size_t>(i)];
    EXPECT_EQ(x.spec.hostname, y.spec.hostname);
    EXPECT_EQ(x.valid, y.valid);
    EXPECT_EQ(x.cpu_load, y.cpu_load) << "node " << i;
    EXPECT_EQ(x.sample_time, y.sample_time);
  }
  EXPECT_EQ(a.net.latency_us, b.net.latency_us);
  EXPECT_EQ(a.net.latency_5min_us, b.net.latency_5min_us);
  EXPECT_EQ(a.net.bandwidth_mbps, b.net.bandwidth_mbps);
  EXPECT_EQ(a.net.peak_mbps, b.net.peak_mbps);
}

TEST(DeltaLogTest, ReplayEqualsLiveStore) {
  const std::string path = log_path("replay_equals");
  auto store = seeded_store(5);
  DeltaLogWriter writer(path);

  double now = 10.0;
  ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));
  for (int epoch = 0; epoch < 7; ++epoch) {
    now += 3.0;
    NodeSnapshot record = store->node_record(epoch % 5);
    record.cpu_load += 0.5;
    store->write_node_record(now, record);
    store->write_latency(now, epoch % 5, (epoch + 1) % 5, 60.0 + epoch, 61.0);
    ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));
  }

  expect_equal_state(replay_delta_log(path), store->assemble(now));
  std::remove(path.c_str());
}

TEST(DeltaLogTest, ReaderFollowsIncrementally) {
  const std::string path = log_path("follows");
  auto store = seeded_store(4);
  DeltaLogWriter writer(path);
  DeltaLogReader reader(path);

  ASSERT_TRUE(writer.append(store->assemble(10.0), store->drain_delta()));
  EXPECT_EQ(reader.poll(), 1);
  const SnapshotDelta first = reader.drain_delta();
  EXPECT_TRUE(first.full);  // a full frame can only promise a rebuild
  const std::uint64_t v1 = reader.snapshot().version;

  NodeSnapshot record = store->node_record(2);
  record.cpu_load = 9.5;
  store->write_node_record(13.0, record);
  store->write_latency(13.0, 1, 3, 42.0, 43.0);
  store->write_latency(13.0, 3, 1, 42.0, 43.0);
  ASSERT_TRUE(writer.append(store->assemble(13.0), store->drain_delta()));

  EXPECT_EQ(reader.poll(), 1);
  const SnapshotDelta second = reader.drain_delta();
  EXPECT_FALSE(second.requires_full_rebuild());
  EXPECT_EQ(second.base_version, v1);
  EXPECT_EQ(second.version, reader.snapshot().version);
  ASSERT_EQ(second.dirty_nodes.size(), 1u);
  EXPECT_EQ(second.dirty_nodes[0], 2);
  ASSERT_EQ(second.dirty_pairs.size(), 1u);
  EXPECT_EQ(second.dirty_pairs[0], std::make_pair(1, 3));
  expect_equal_state(reader.snapshot(), store->assemble(13.0));

  // Nothing new on disk: poll is a no-op and the drained delta is empty.
  EXPECT_EQ(reader.poll(), 0);
  EXPECT_TRUE(reader.drain_delta().empty());
  std::remove(path.c_str());
}

TEST(DeltaLogTest, SparsePairwiseFullFramesRoundTrip) {
  // A store with only a handful of measured pairs (the tiled monitor's
  // O(G²) probe set) emits sparse-pairwise full/compaction frames; replay
  // must still equal the live store bit for bit, through delta frames too.
  const std::string path = log_path("sparse");
  const int n = 16;
  auto store = std::make_unique<MonitorStore>(n);
  store->write_livehosts(10.0,
                         std::vector<bool>(static_cast<std::size_t>(n), true));
  for (int i = 0; i < n; ++i) {
    NodeSnapshot record;
    record.spec.id = i;
    record.spec.hostname = "host" + std::to_string(i);
    record.spec.core_count = 8;
    record.spec.cpu_freq_ghz = 3.0;
    record.spec.total_mem_gb = 16.0;
    record.cpu_load = 0.1 * i;
    store->write_node_record(10.0, record);
  }
  // Only three measured pairs out of 120.
  for (const auto& [u, v] : {std::pair{0, 9}, {3, 4}, {7, 15}}) {
    store->write_latency(10.0, u, v, 100.0 + u + v, 101.0 + u + v);
    store->write_latency(10.0, v, u, 100.0 + u + v, 101.0 + u + v);
    store->write_bandwidth(10.0, u, v, 900.0 - u - v, 941.0);
    store->write_bandwidth(10.0, v, u, 900.0 - u - v, 941.0);
  }

  DeltaLogWriter writer(path);
  DeltaLogReader reader(path);
  ASSERT_TRUE(writer.append(store->assemble(10.0), store->drain_delta()));
  ASSERT_GT(reader.poll(), 0);
  reader.drain_delta();
  expect_equal_state(reader.snapshot(), store->assemble(10.0));

  // Delta frames on top of the sparse base replay identically too.
  store->write_latency(11.0, 3, 4, 55.0, 56.0);
  store->write_latency(11.0, 4, 3, 55.0, 56.0);
  store->write_bandwidth(11.0, 0, 9, 700.0, 941.0);
  store->write_bandwidth(11.0, 9, 0, 700.0, 941.0);
  ASSERT_TRUE(writer.append(store->assemble(11.0), store->drain_delta()));
  ASSERT_GT(reader.poll(), 0);
  const SnapshotDelta delta = reader.drain_delta();
  EXPECT_FALSE(delta.requires_full_rebuild());
  expect_equal_state(reader.snapshot(), store->assemble(11.0));
}

TEST(DeltaLogTest, LivehostsChangeForcesAFullFrame) {
  const std::string path = log_path("livehosts");
  auto store = seeded_store(3);
  DeltaLogWriter writer(path);
  DeltaLogReader reader(path);
  ASSERT_TRUE(writer.append(store->assemble(10.0), store->drain_delta()));
  reader.poll();
  (void)reader.drain_delta();

  // A liveness flip changes the usable set's shape, so the writer promotes
  // the epoch to a compaction (consumers must fully rebuild regardless).
  store->write_livehosts(12.0, {true, false, true});
  ASSERT_TRUE(writer.append(store->assemble(12.0), store->drain_delta()));
  EXPECT_EQ(writer.compactions(), 2);
  EXPECT_EQ(reader.poll(), 1);
  const SnapshotDelta delta = reader.drain_delta();
  EXPECT_TRUE(delta.full);
  EXPECT_TRUE(delta.requires_full_rebuild());
  EXPECT_FALSE(reader.snapshot().livehosts[1]);
  std::remove(path.c_str());
}

TEST(DeltaLogTest, TornTailIsIgnoredAndHealedByCompaction) {
  const std::string path = log_path("torn_tail");
  auto store = seeded_store(4);
  DeltaLogWriter writer(path);
  DeltaLogReader reader(path);

  ASSERT_TRUE(writer.append(store->assemble(10.0), store->drain_delta()));
  EXPECT_EQ(reader.poll(), 1);
  (void)reader.drain_delta();
  const std::uint64_t good_version = reader.snapshot().version;

  // The next append is torn mid-frame: the call fails, and the reader must
  // stop cleanly at the partial tail without advancing past it.
  NodeSnapshot record = store->node_record(0);
  record.cpu_load = 5.0;
  store->write_node_record(12.0, record);
  arm_torn_snapshot_write();
  EXPECT_FALSE(writer.append(store->assemble(12.0), store->drain_delta()));
  EXPECT_EQ(reader.poll(), 0);
  EXPECT_EQ(reader.snapshot().version, good_version);

  // The writer heals by compacting on the next append; the reader detects
  // the replaced file and replays the fresh full frame.
  record.cpu_load = 6.0;
  store->write_node_record(14.0, record);
  ASSERT_TRUE(writer.append(store->assemble(14.0), store->drain_delta()));
  EXPECT_EQ(writer.compactions(), 2);
  EXPECT_GE(reader.poll(), 1);
  EXPECT_TRUE(reader.drain_delta().full);
  expect_equal_state(reader.snapshot(), store->assemble(14.0));
  std::remove(path.c_str());
}

TEST(DeltaLogTest, CompactionPolicyBoundsTheLog) {
  const std::string path = log_path("compaction");
  auto store = seeded_store(4);
  DeltaLogWriter::Options options;
  options.compact_after_deltas = 2;
  options.compact_bytes_ratio = 1e9;  // only the count trips
  DeltaLogWriter writer(path, options);

  double now = 10.0;
  ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));
  EXPECT_EQ(writer.compactions(), 1);
  for (int epoch = 0; epoch < 6; ++epoch) {
    now += 3.0;
    NodeSnapshot record = store->node_record(epoch % 4);
    record.cpu_load += 0.25;
    store->write_node_record(now, record);
    ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));
  }
  // full, d, d, full(compact), d, d, full(compact): 2 deltas per full.
  EXPECT_EQ(writer.compactions(), 3);
  expect_equal_state(replay_delta_log(path), store->assemble(now));
  std::remove(path.c_str());
}

TEST(DeltaLogTest, GarbageAndMissingLogsAreHandled) {
  const std::string missing = log_path("missing");
  DeltaLogReader reader(missing);
  EXPECT_EQ(reader.poll(), 0);
  EXPECT_FALSE(reader.have_snapshot());
  EXPECT_THROW(replay_delta_log(missing), util::CheckError);

  const std::string garbage = log_path("garbage");
  {
    std::ofstream file(garbage, std::ios::binary);
    file << "this is not a delta log, not even close";
  }
  DeltaLogReader garbage_reader(garbage);
  EXPECT_EQ(garbage_reader.poll(), 0);
  EXPECT_GE(garbage_reader.bad_frames_seen(), 1);
  EXPECT_THROW(replay_delta_log(garbage), util::CheckError);
  std::remove(garbage.c_str());
}

/// Appends one CRC-valid delta frame (kind 1) around `body` — the envelope
/// DeltaLogWriter lays: "nlmd" magic, payload length, kind + body, CRC.
void append_delta_frame(const std::string& path, const std::string& body) {
  std::string payload(1, '\1');
  payload += body;
  std::string frame;
  util::put_u32(frame, 0x646d6c6eu);
  util::put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  frame += payload;
  util::put_u32(frame, util::crc32(payload));
  std::ofstream(path, std::ios::binary | std::ios::app) << frame;
}

/// Delta payload header: versions, time, declared node count and flags.
std::string delta_header(std::uint64_t base, std::uint32_t n,
                         std::uint8_t flags) {
  std::string body;
  util::put_u64(body, base);
  util::put_u64(body, base + 1);
  util::put_f64(body, 99.0);
  util::put_u32(body, n);
  util::put_u8(body, flags);
  return body;
}

TEST(DeltaLogTest, LivehostsCountBeyondTheFrameIsRejected) {
  // A sealed delta declaring livehosts for 2³² − 1 nodes in a frame a few
  // bytes long must be rejected before the reader sizes a buffer for it.
  const std::string path = log_path("crafted_livehosts");
  auto store = seeded_store(4);
  DeltaLogWriter writer(path);
  const ClusterSnapshot live = store->assemble(10.0);
  ASSERT_TRUE(writer.append(live, store->drain_delta()));
  append_delta_frame(path, delta_header(live.version, 0xffffffffu, 1));

  DeltaLogReader reader(path);
  EXPECT_EQ(reader.poll(), 1);
  EXPECT_EQ(reader.bad_frames_seen(), 1);
  expect_equal_state(reader.snapshot(), live);
  std::remove(path.c_str());
}

TEST(DeltaLogTest, PairRecordsWithoutPairwiseStateAreSkipped) {
  // A full frame without pairwise matrices (flags 0), then a sealed delta
  // carrying a pair record: the reader must skip the delta instead of
  // writing through the empty matrices.
  const std::string path = log_path("crafted_pairs");
  ClusterSnapshot base;
  base.version = 5;
  base.time = 1.0;
  base.livehosts.assign(4, true);
  base.nodes.resize(4);
  for (int i = 0; i < 4; ++i) {
    base.nodes[static_cast<std::size_t>(i)].spec.id = i;
  }
  DeltaLogWriter writer(path);
  ASSERT_TRUE(writer.write_full(base));
  std::string body = delta_header(base.version, 4, 0);
  util::put_varint(body, 0);  // dirty nodes
  util::put_varint(body, 1);  // dirty pairs
  util::put_varint(body, 0);
  util::put_varint(body, 1);
  for (int k = 0; k < 8; ++k) util::put_f64(body, 50.0);
  append_delta_frame(path, body);

  DeltaLogReader reader(path);
  EXPECT_EQ(reader.poll(), 1);
  EXPECT_EQ(reader.frames_applied(), 1);
  EXPECT_EQ(reader.snapshot().version, base.version);
  EXPECT_TRUE(reader.snapshot().net.latency_us.empty());
  std::remove(path.c_str());
}

TEST(DeltaLogTest, BrokerIngestsLogIdenticallyToLiveStore) {
  const std::string path = log_path("broker_parity");
  auto store = seeded_store(6);
  DeltaLogWriter writer(path);

  core::AllocationRequest request;
  request.nprocs = 8;
  request.ppn = 2;
  request.job = core::JobWeights{0.3, 0.7};
  const core::RequestProfile profile = core::RequestProfile::of(request);

  core::NetworkLoadAwareAllocator live_alloc;
  core::ResourceBroker live_broker(live_alloc);
  core::NetworkLoadAwareAllocator log_alloc;
  core::ResourceBroker log_broker(log_alloc);
  DeltaLogReader reader(path);

  double now = 10.0;
  for (int epoch = 0; epoch < 5; ++epoch) {
    now += 3.0;
    NodeSnapshot record = store->node_record(epoch % 6);
    record.cpu_load += 0.4;
    store->write_node_record(now, record);
    store->write_latency(now, epoch % 6, (epoch + 2) % 6, 80.0 + epoch, 81.0);
    store->write_latency(now, (epoch + 2) % 6, epoch % 6, 80.0 + epoch, 81.0);

    auto snapshot = std::make_shared<const ClusterSnapshot>(
        store->assemble(now));
    const SnapshotDelta delta = store->drain_delta();
    live_broker.refresh_epoch(snapshot, delta, profile);
    ASSERT_TRUE(writer.append(*snapshot, delta));
    EXPECT_EQ(log_broker.ingest_delta_log(reader, profile), 1);

    const core::BrokerDecision live =
        live_broker.decide(live_broker.pin_epoch(), request);
    const core::BrokerDecision followed =
        log_broker.decide(log_broker.pin_epoch(), request);
    EXPECT_EQ(live.action, followed.action) << "epoch " << epoch;
    EXPECT_EQ(live.allocation.nodes, followed.allocation.nodes);
    EXPECT_EQ(live.allocation.procs_per_node,
              followed.allocation.procs_per_node);
    EXPECT_EQ(live.cluster_load_per_core, followed.cluster_load_per_core);
    EXPECT_EQ(live.effective_capacity, followed.effective_capacity);
  }
  // No new frames: ingest publishes nothing and the epoch stays put.
  const std::uint64_t epoch_before = log_broker.epoch();
  EXPECT_EQ(log_broker.ingest_delta_log(reader, profile), 0);
  EXPECT_EQ(log_broker.epoch(), epoch_before);
  std::remove(path.c_str());
}

TEST(DeltaLogTest, StoreRestoreRehydratesEveryRecord) {
  auto store = seeded_store(4);
  store->write_livehosts(11.0, {true, true, false, true});
  const ClusterSnapshot snap = store->assemble(11.0);

  MonitorStore rebuilt(4);
  rebuilt.restore(snap);
  const ClusterSnapshot out = rebuilt.assemble(snap.time);
  EXPECT_EQ(out.livehosts, snap.livehosts);
  EXPECT_EQ(out.net.latency_us, snap.net.latency_us);
  EXPECT_EQ(out.net.bandwidth_mbps, snap.net.bandwidth_mbps);
  EXPECT_EQ(out.nodes[2].cpu_load, snap.nodes[2].cpu_load);
  // Measured pairs are credited with the snapshot time; the diagonal (and
  // anything never measured) stays "never written".
  EXPECT_EQ(rebuilt.pair_staleness(snap.time, 0, 1), 0.0);
  EXPECT_EQ(rebuilt.node_staleness(snap.time, 1),
            snap.time - snap.nodes[1].sample_time);
  // A restore invalidates incremental consumers exactly once.
  SnapshotDelta delta = rebuilt.drain_delta();
  EXPECT_TRUE(delta.full);

  MonitorStore wrong_size(5);
  EXPECT_THROW(wrong_size.restore(snap), util::CheckError);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Automatic compaction would collapse the setup frames early in the next
// two tests; they drive compaction explicitly through write_full instead.
DeltaLogWriter::Options no_compaction() {
  DeltaLogWriter::Options options;
  options.compact_after_deltas = 1 << 20;
  options.compact_bytes_ratio = 1e9;
  return options;
}

TEST(DeltaLogTest, CompactionShrinkingTheLogBetweenPollsRescans) {
  const std::string path = log_path("shrink_between_polls");
  auto store = seeded_store(5);
  DeltaLogWriter writer(path, no_compaction());
  DeltaLogReader reader(path);

  double now = 10.0;
  ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));
  for (int i = 0; i < 6; ++i) {
    now += 2.0;
    NodeSnapshot record = store->node_record(i % 5);
    record.cpu_load += 0.25;
    store->write_node_record(now, record);
    ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));
  }
  EXPECT_EQ(reader.poll(), 7);
  (void)reader.drain_delta();

  // While the reader sleeps, the writer compacts the log to a single full
  // frame SHORTER than the reader's cursor, then appends a fresh delta.
  // The stale cursor must not be replayed as a continuation.
  now += 2.0;
  store->write_latency(now, 0, 1, 77.0, 78.0);
  store->write_latency(now, 1, 0, 77.0, 78.0);
  (void)store->drain_delta();  // state rides in the compaction frame
  ASSERT_TRUE(writer.write_full(store->assemble(now)));
  now += 2.0;
  NodeSnapshot record = store->node_record(3);
  record.cpu_load = 4.5;
  store->write_node_record(now, record);
  ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));

  EXPECT_EQ(reader.poll(), 2);  // replayed from the new head: full + delta
  EXPECT_TRUE(reader.drain_delta().full);
  expect_equal_state(reader.snapshot(), store->assemble(now));
  std::remove(path.c_str());
}

TEST(DeltaLogTest, CompactionGrowingPastTheCursorIsStillDetected) {
  const std::string path = log_path("grow_past_cursor");
  auto store = seeded_store(4);
  DeltaLogWriter writer(path);
  DeltaLogReader reader(path);

  ASSERT_TRUE(writer.append(store->assemble(10.0), store->drain_delta()));
  EXPECT_EQ(reader.poll(), 1);  // cursor parks right after the full frame
  (void)reader.drain_delta();

  // The writer compacts (a same-shape full frame with a new identity) and
  // keeps appending until the file is LONGER than the reader's cursor: no
  // size check can see the swap — the head identity has to.
  double now = 12.0;
  NodeSnapshot record = store->node_record(1);
  record.cpu_load = 7.0;
  store->write_node_record(now, record);
  (void)store->drain_delta();
  ASSERT_TRUE(writer.write_full(store->assemble(now)));
  for (int i = 0; i < 4; ++i) {
    now += 1.0;
    store->write_latency(now, 0, 2, 30.0 + i, 31.0);
    store->write_latency(now, 2, 0, 30.0 + i, 31.0);
    ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));
  }

  EXPECT_EQ(reader.poll(), 5);  // new full + the four deltas
  EXPECT_TRUE(reader.drain_delta().full);
  expect_equal_state(reader.snapshot(), store->assemble(now));
  std::remove(path.c_str());
}

TEST(DeltaLogTest, TornCompactionHeadIsRetriedNotReplayedFromStaleOffsets) {
  const std::string path = log_path("torn_head");
  auto store = seeded_store(4);
  DeltaLogWriter writer(path, no_compaction());
  DeltaLogReader reader(path);

  double now = 10.0;
  ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));
  for (int i = 0; i < 5; ++i) {
    now += 1.0;
    NodeSnapshot record = store->node_record(i % 4);
    record.cpu_load += 0.3;
    store->write_node_record(now, record);
    ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));
  }
  EXPECT_EQ(reader.poll(), 6);
  (void)reader.drain_delta();
  const std::uint64_t good_version = reader.snapshot().version;

  // Build the bytes a finished compaction would leave, then install only a
  // torn prefix of them — the worst intermediate the poll-time race can
  // observe: smaller than the cursor AND a head frame that cannot be
  // identified yet.
  now += 1.0;
  NodeSnapshot record = store->node_record(0);
  record.cpu_load = 9.9;
  store->write_node_record(now, record);
  (void)store->drain_delta();
  const std::string staging = log_path("torn_head_staging");
  DeltaLogWriter staging_writer(staging);
  ASSERT_TRUE(staging_writer.write_full(store->assemble(now)));
  const std::string bytes = slurp(staging);
  ASSERT_GT(bytes.size(), 16u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  EXPECT_EQ(reader.poll(), 0);  // nothing usable yet — and nothing stale
  EXPECT_EQ(reader.snapshot().version, good_version);

  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_EQ(reader.poll(), 1);
  EXPECT_TRUE(reader.drain_delta().full);
  expect_equal_state(reader.snapshot(), store->assemble(now));
  std::remove(path.c_str());
  std::remove(staging.c_str());
}

TEST(DeltaLogTest, ConcurrentCompactionAndPollingConverge) {
  const std::string path = log_path("concurrent_compaction");
  auto store = seeded_store(4);
  DeltaLogWriter::Options options;
  options.compact_after_deltas = 2;  // compact constantly under the reader
  DeltaLogWriter writer(path, options);
  double now = 10.0;
  ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));

  DeltaLogReader reader(path);
  std::atomic<bool> writer_done{false};
  std::atomic<bool> monotone{true};
  std::thread tailer([&] {
    std::uint64_t last = 0;
    while (!writer_done.load(std::memory_order_acquire)) {
      reader.poll();
      if (reader.have_snapshot()) {
        const std::uint64_t version = reader.snapshot().version;
        if (version < last) monotone.store(false, std::memory_order_relaxed);
        last = version;
      }
      (void)reader.drain_delta();
    }
  });

  for (int i = 0; i < 150; ++i) {
    now += 1.0;
    NodeSnapshot record = store->node_record(i % 4);
    record.cpu_load = 0.01 * i;
    store->write_node_record(now, record);
    store->write_latency(now, i % 4, (i + 1) % 4, 50.0 + i, 51.0);
    ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));
  }
  writer_done.store(true, std::memory_order_release);
  tailer.join();

  EXPECT_TRUE(monotone.load());
  EXPECT_GT(writer.compactions(), 10);

  // Converge on the final state from wherever the race left the cursor.
  const ClusterSnapshot want = store->assemble(now);
  for (int i = 0; i < 100 && (!reader.have_snapshot() ||
                              reader.snapshot().version != want.version);
       ++i) {
    reader.poll();
  }
  ASSERT_TRUE(reader.have_snapshot());
  expect_equal_state(reader.snapshot(), want);
  std::remove(path.c_str());
}

TEST(DeltaLogTest, DecodeAheadReplayMatchesSerial) {
  // The pipelined reader (decode+CRC of frame k+1 on a worker thread while
  // frame k applies) must be an exact replay-semantics twin of the serial
  // one: same states, same frame counts, same drained deltas, poll by poll.
  const std::string path = log_path("decode_ahead");
  auto store = seeded_store(6);
  DeltaLogWriter writer(path, no_compaction());
  DeltaLogReader serial(path);
  DeltaLogReader pipelined(path);
  pipelined.set_decode_ahead(true);
  EXPECT_TRUE(pipelined.decode_ahead());

  double now = 10.0;
  ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));
  for (int batch = 0; batch < 4; ++batch) {
    // Several frames per poll so the decode-ahead pipeline actually runs
    // (a single-frame poll never has a "next" frame to hand the worker).
    for (int i = 0; i < 7; ++i) {
      now += 1.0;
      NodeSnapshot record = store->node_record((batch + i) % 6);
      record.cpu_load = 0.1 * (batch * 7 + i);
      store->write_node_record(now, record);
      store->write_latency(now, i % 6, (i + 2) % 6, 40.0 + i, 41.0);
      store->write_latency(now, (i + 2) % 6, i % 6, 40.0 + i, 41.0);
      ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));
    }
    const int want = serial.poll();
    EXPECT_EQ(pipelined.poll(), want);
    EXPECT_GT(want, 1);
    EXPECT_EQ(pipelined.frames_applied(), serial.frames_applied());
    EXPECT_EQ(pipelined.bad_frames_seen(), serial.bad_frames_seen());
    const SnapshotDelta serial_delta = serial.drain_delta();
    const SnapshotDelta pipelined_delta = pipelined.drain_delta();
    EXPECT_EQ(pipelined_delta.full, serial_delta.full);
    EXPECT_EQ(pipelined_delta.base_version, serial_delta.base_version);
    EXPECT_EQ(pipelined_delta.version, serial_delta.version);
    EXPECT_EQ(pipelined_delta.dirty_nodes, serial_delta.dirty_nodes);
    EXPECT_EQ(pipelined_delta.dirty_pairs, serial_delta.dirty_pairs);
    expect_equal_state(pipelined.snapshot(), serial.snapshot());
  }
  expect_equal_state(pipelined.snapshot(), store->assemble(now));
  std::remove(path.c_str());
}

TEST(DeltaLogTest, DecodeAheadStopsAtTornAndBadFramesLikeSerial) {
  const std::string path = log_path("decode_ahead_torn");
  auto store = seeded_store(4);
  DeltaLogWriter writer(path, no_compaction());
  DeltaLogReader serial(path);
  DeltaLogReader pipelined(path);
  pipelined.set_decode_ahead(true);

  double now = 10.0;
  ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));
  for (int i = 0; i < 5; ++i) {
    now += 1.0;
    store->write_latency(now, 0, 3, 70.0 + i, 71.0);
    store->write_latency(now, 3, 0, 70.0 + i, 71.0);
    ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));
  }
  // A torn tail: the next append is truncated mid-frame. Both readers must
  // apply the six good frames, stop at the partial one without advancing,
  // and report identical counters.
  now += 1.0;
  store->write_latency(now, 1, 2, 80.0, 81.0);
  store->write_latency(now, 2, 1, 80.0, 81.0);
  arm_torn_snapshot_write();
  EXPECT_FALSE(writer.append(store->assemble(now), store->drain_delta()));

  EXPECT_EQ(serial.poll(), 6);
  EXPECT_EQ(pipelined.poll(), 6);
  (void)serial.drain_delta();
  (void)pipelined.drain_delta();
  EXPECT_EQ(pipelined.bad_frames_seen(), serial.bad_frames_seen());
  expect_equal_state(pipelined.snapshot(), serial.snapshot());

  // The writer heals by compacting; both readers replay the fresh head and
  // converge on the same state.
  now += 1.0;
  store->write_latency(now, 1, 2, 82.0, 83.0);
  store->write_latency(now, 2, 1, 82.0, 83.0);
  ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));
  EXPECT_EQ(serial.poll(), 1);
  EXPECT_EQ(pipelined.poll(), 1);
  EXPECT_TRUE(serial.drain_delta().full);
  EXPECT_TRUE(pipelined.drain_delta().full);
  expect_equal_state(pipelined.snapshot(), store->assemble(now));
  expect_equal_state(pipelined.snapshot(), serial.snapshot());
  std::remove(path.c_str());
}

TEST(DeltaLogTest, DecodeAheadTogglesMidStream) {
  // Flipping the pipeline on and off between polls (stopping/starting the
  // worker thread) never changes what a poll replays.
  const std::string path = log_path("decode_ahead_toggle");
  auto store = seeded_store(4);
  DeltaLogWriter writer(path, no_compaction());
  DeltaLogReader reader(path);

  double now = 10.0;
  ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));
  for (int round = 0; round < 4; ++round) {
    reader.set_decode_ahead(round % 2 == 0);
    for (int i = 0; i < 3; ++i) {
      now += 1.0;
      store->write_latency(now, 0, 2, 90.0 + round + i, 91.0);
      store->write_latency(now, 2, 0, 90.0 + round + i, 91.0);
      ASSERT_TRUE(writer.append(store->assemble(now), store->drain_delta()));
    }
    EXPECT_EQ(reader.poll(), round == 0 ? 4 : 3);
    (void)reader.drain_delta();
    expect_equal_state(reader.snapshot(), store->assemble(now));
  }
  EXPECT_EQ(reader.bad_frames_seen(), 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nlarm::monitor
