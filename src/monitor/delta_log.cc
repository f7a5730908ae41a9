#include "monitor/delta_log.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "monitor/persistence.h"
#include "monitor/snapshot_codec.h"
#include "obs/catalog.h"
#include "util/binio.h"
#include "util/check.h"
#include "util/logging.h"

namespace nlarm::monitor {

namespace {

constexpr std::uint32_t kFrameMagic = 0x646d6c6eu;  // "nlmd" little-endian
constexpr std::uint8_t kKindFull = 0;
constexpr std::uint8_t kKindDelta = 1;
constexpr std::uint8_t kDeltaFlagLivehosts = 1u << 0;

/// Wraps a payload in the frame envelope: magic, length, payload, CRC.
std::string make_frame(std::uint8_t kind, std::string_view payload_body) {
  std::string frame;
  frame.reserve(payload_body.size() + 16);
  util::put_u32(frame, kFrameMagic);
  util::put_u32(frame, static_cast<std::uint32_t>(payload_body.size() + 1));
  const std::size_t payload_start = frame.size();
  util::put_u8(frame, kind);
  frame.append(payload_body);
  util::put_u32(frame,
                util::crc32(std::string_view(frame).substr(payload_start)));
  return frame;
}

std::string encode_delta_payload(const ClusterSnapshot& snapshot,
                                 const SnapshotDelta& delta) {
  const std::size_t n = snapshot.nodes.size();
  std::string out;
  out.reserve(64 + delta.dirty_nodes.size() * 256 +
              delta.dirty_pairs.size() * 72 +
              (delta.livehosts_changed ? n : 0));
  util::put_u64(out, delta.base_version);
  util::put_u64(out, delta.version);
  util::put_f64(out, snapshot.time);
  util::put_u32(out, static_cast<std::uint32_t>(n));
  util::put_u8(out, delta.livehosts_changed ? kDeltaFlagLivehosts : 0);
  if (delta.livehosts_changed) {
    for (std::size_t i = 0; i < n; ++i) {
      util::put_u8(out, snapshot.livehosts[i] ? 1 : 0);
    }
  }
  util::put_varint(out, delta.dirty_nodes.size());
  for (const cluster::NodeId node : delta.dirty_nodes) {
    NLARM_CHECK(node >= 0 && static_cast<std::size_t>(node) < n)
        << "dirty node " << node << " out of range";
    codec::encode_node(out, snapshot.nodes[static_cast<std::size_t>(node)]);
  }
  util::put_varint(out, delta.dirty_pairs.size());
  for (const auto& [u, v] : delta.dirty_pairs) {
    NLARM_CHECK(u >= 0 && v >= 0 && static_cast<std::size_t>(u) < n &&
                static_cast<std::size_t>(v) < n && u != v)
        << "dirty pair (" << u << ", " << v << ") out of range";
    const auto uu = static_cast<std::size_t>(u);
    const auto vv = static_cast<std::size_t>(v);
    util::put_varint(out, static_cast<std::uint64_t>(u));
    util::put_varint(out, static_cast<std::uint64_t>(v));
    util::put_f64(out, snapshot.net.latency_us[uu][vv]);
    util::put_f64(out, snapshot.net.latency_us[vv][uu]);
    util::put_f64(out, snapshot.net.latency_5min_us[uu][vv]);
    util::put_f64(out, snapshot.net.latency_5min_us[vv][uu]);
    util::put_f64(out, snapshot.net.bandwidth_mbps[uu][vv]);
    util::put_f64(out, snapshot.net.bandwidth_mbps[vv][uu]);
    util::put_f64(out, snapshot.net.peak_mbps[uu][vv]);
    util::put_f64(out, snapshot.net.peak_mbps[vv][uu]);
  }
  return out;
}

}  // namespace

DeltaLogWriter::DeltaLogWriter(std::string path, Options options)
    : path_(std::move(path)), options_(options) {
  NLARM_CHECK(options_.compact_after_deltas > 0)
      << "compact_after_deltas must be positive";
  NLARM_CHECK(options_.compact_bytes_ratio > 0.0)
      << "compact_bytes_ratio must be positive";
}

bool DeltaLogWriter::write_full(const ClusterSnapshot& snapshot) {
  std::string payload;
  encode_snapshot_binary(snapshot, payload);
  std::string frame = make_frame(kKindFull, payload);

  const bool torn = consume_torn_snapshot_write();
  if (torn) {
    frame.resize(frame.size() / 2);
    obs::metrics::chaos_torn_snapshot_writes().inc();
  }

  // Full frames are the compaction path: rewrite the whole log through
  // tmp + rename so a reader never sees a half-replaced file.
  const std::string tmp = path_ + ".tmp";
  const bool wrote_ok = util::write_file_durable(tmp, frame);
  if (torn || !wrote_ok) {
    have_full_ = false;  // force a fresh full frame on the next append
    NLARM_WARN << "delta-log full frame write to " << path_
               << (torn ? " torn by fault injection" : " failed")
               << "; previous log left untouched";
    return false;
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    have_full_ = false;
    NLARM_WARN << "delta-log rename " << tmp << " -> " << path_ << " failed";
    return false;
  }
  util::fsync_parent_dir(path_);

  have_full_ = true;
  tail_version_ = snapshot.version;
  full_bytes_ = frame.size();
  delta_bytes_since_full_ = 0;
  deltas_since_full_ = 0;
  ++frames_;
  ++compactions_;
  obs::metrics::snapshot_bytes_written().inc(frame.size());
  return true;
}

bool DeltaLogWriter::append(const ClusterSnapshot& snapshot,
                            const SnapshotDelta& delta) {
  NLARM_CHECK(delta.version == snapshot.version)
      << "delta version " << delta.version << " does not stamp snapshot "
      << snapshot.version;
  const bool chains = have_full_ && delta.base_version == tail_version_ &&
                      !delta.requires_full_rebuild();
  const bool compaction_due =
      deltas_since_full_ + 1 > options_.compact_after_deltas ||
      (full_bytes_ > 0 &&
       static_cast<double>(delta_bytes_since_full_) >
           options_.compact_bytes_ratio * static_cast<double>(full_bytes_));
  if (!chains || compaction_due) {
    return write_full(snapshot);
  }

  std::string frame =
      make_frame(kKindDelta, encode_delta_payload(snapshot, delta));

  const bool torn = consume_torn_snapshot_write();
  if (torn) {
    frame.resize(frame.size() / 2);
    obs::metrics::chaos_torn_snapshot_writes().inc();
  }

  const bool wrote_ok = util::append_file_durable(path_, frame);
  if (torn || !wrote_ok) {
    // The log tail may now hold a partial frame. Readers stop there; we
    // recover by laying a fresh full log on the next append.
    have_full_ = false;
    NLARM_WARN << "delta-log append to " << path_
               << (torn ? " torn by fault injection" : " failed")
               << "; log will be compacted on the next append";
    return false;
  }
  tail_version_ = delta.version;
  delta_bytes_since_full_ += frame.size();
  ++deltas_since_full_;
  ++frames_;
  obs::metrics::snapshot_bytes_written().inc(frame.size());
  return true;
}

DeltaLogReader::DeltaLogReader(std::string path) : path_(std::move(path)) {}

DeltaLogReader::~DeltaLogReader() { stop_decode_worker(); }

const ClusterSnapshot& DeltaLogReader::snapshot() const {
  NLARM_CHECK(have_state_) << "delta log '" << path_
                           << "' has not yielded a snapshot yet";
  return state_;
}

bool DeltaLogReader::decode_frame(std::uint8_t kind, std::string_view payload,
                                  DecodedFrame& out) const {
  out.kind = kind;
  if (kind == kKindFull) {
    out.full = decode_snapshot_binary(payload);
    return true;
  }
  if (kind != kKindDelta) {
    NLARM_WARN << "delta log '" << path_ << "': unknown frame kind "
               << static_cast<int>(kind);
    return false;
  }
  util::ByteReader reader(payload);
  out.base_version = reader.u64();
  out.version = reader.u64();
  out.time = reader.f64();
  out.n = static_cast<std::size_t>(reader.u32());
  const std::uint8_t flags = reader.u8();
  out.livehosts_changed = (flags & kDeltaFlagLivehosts) != 0;
  if (out.livehosts_changed) {
    NLARM_CHECK(out.n <= reader.remaining())
        << "delta frame livehosts for " << out.n << " nodes exceed the "
        << reader.remaining() << " bytes present";
    out.livehosts.resize(out.n);
    for (std::size_t i = 0; i < out.n; ++i) out.livehosts[i] = reader.u8();
  }
  const std::uint64_t dirty_nodes = reader.varint();
  for (std::uint64_t i = 0; i < dirty_nodes; ++i) {
    NodeSnapshot node = codec::decode_node(reader);
    NLARM_CHECK(node.spec.id >= 0 &&
                static_cast<std::size_t>(node.spec.id) < out.n)
        << "delta frame node id " << node.spec.id << " out of range";
    out.nodes.push_back(std::move(node));
  }
  const std::uint64_t dirty_pairs = reader.varint();
  for (std::uint64_t i = 0; i < dirty_pairs; ++i) {
    DecodedFrame::PairValues pair;
    pair.u = static_cast<cluster::NodeId>(reader.varint());
    pair.v = static_cast<cluster::NodeId>(reader.varint());
    NLARM_CHECK(pair.u >= 0 && pair.v >= 0 &&
                static_cast<std::size_t>(pair.u) < out.n &&
                static_cast<std::size_t>(pair.v) < out.n && pair.u != pair.v)
        << "delta frame pair (" << pair.u << ", " << pair.v
        << ") out of range";
    for (double& value : pair.values) value = reader.f64();
    out.pairs.push_back(pair);
  }
  NLARM_CHECK(reader.remaining() == 0)
      << reader.remaining() << " trailing byte(s) in delta frame";
  return true;
}

bool DeltaLogReader::apply_decoded(DecodedFrame& frame) {
  if (frame.kind == kKindFull) {
    state_ = std::move(frame.full);
    have_state_ = true;
    pending_.full = true;
    pending_.version = state_.version;
    return true;
  }
  if (!have_state_) {
    // A delta with nothing to apply it to (log started mid-stream); skip
    // it — the writer always lays a full frame first, so this only
    // happens on logs truncated by hand.
    return false;
  }
  if (frame.base_version != state_.version ||
      frame.n != state_.nodes.size()) {
    NLARM_WARN << "delta log '" << path_ << "': frame base "
               << frame.base_version << " does not chain onto state "
               << state_.version;
    return false;
  }
  const NetSnapshot& net = state_.net;
  const auto sized = [&](const util::FlatMatrix& m) {
    return m.size() == frame.n;
  };
  if (!frame.pairs.empty() &&
      !(sized(net.latency_us) && sized(net.latency_5min_us) &&
        sized(net.bandwidth_mbps) && sized(net.peak_mbps))) {
    NLARM_WARN << "delta log '" << path_ << "': frame carries "
               << frame.pairs.size()
               << " pair record(s) but the state has no " << frame.n << "x"
               << frame.n << " pairwise matrices";
    return false;
  }
  if (frame.livehosts_changed) {
    for (std::size_t i = 0; i < frame.n; ++i) {
      state_.livehosts[i] = frame.livehosts[i] != 0;
    }
    pending_.livehosts_changed = true;
  }
  for (NodeSnapshot& node : frame.nodes) {
    const auto id = static_cast<std::size_t>(node.spec.id);
    state_.nodes[id] = std::move(node);
    pending_.dirty_nodes.push_back(static_cast<cluster::NodeId>(id));
  }
  for (const DecodedFrame::PairValues& pair : frame.pairs) {
    const auto uu = static_cast<std::size_t>(pair.u);
    const auto vv = static_cast<std::size_t>(pair.v);
    state_.net.latency_us[uu][vv] = pair.values[0];
    state_.net.latency_us[vv][uu] = pair.values[1];
    state_.net.latency_5min_us[uu][vv] = pair.values[2];
    state_.net.latency_5min_us[vv][uu] = pair.values[3];
    state_.net.bandwidth_mbps[uu][vv] = pair.values[4];
    state_.net.bandwidth_mbps[vv][uu] = pair.values[5];
    state_.net.peak_mbps[uu][vv] = pair.values[6];
    state_.net.peak_mbps[vv][uu] = pair.values[7];
    pending_.dirty_pairs.emplace_back(std::min(pair.u, pair.v),
                                      std::max(pair.u, pair.v));
  }
  state_.time = frame.time;
  state_.version = frame.version;
  pending_.version = frame.version;
  return true;
}

DeltaLogReader::DecodeOutcome DeltaLogReader::decode_outcome(
    std::size_t offset, std::string_view payload,
    std::uint32_t stored_crc) const {
  DecodeOutcome out;
  out.offset = offset;
  out.crc_ok = util::crc32(payload) == stored_crc;
  if (!out.crc_ok) return out;
  try {
    out.known_kind = decode_frame(static_cast<std::uint8_t>(payload[0]),
                                  payload.substr(1), out.frame);
  } catch (const util::CheckError& error) {
    out.decode_error = true;
    out.error = error.what();
  }
  return out;
}

void DeltaLogReader::set_decode_ahead(bool enabled) {
  if (enabled == decode_ahead_) return;
  decode_ahead_ = enabled;
  // The worker starts lazily on the next poll; disabling stops it now.
  if (!enabled) stop_decode_worker();
}

void DeltaLogReader::start_decode_worker() {
  if (decode_thread_.joinable()) return;
  decode_stop_ = false;
  decode_thread_ = std::thread([this] { decode_worker_main(); });
}

void DeltaLogReader::stop_decode_worker() {
  if (!decode_thread_.joinable()) return;
  drain_decode();  // never abandon a job whose payload view may die
  {
    std::lock_guard<std::mutex> lock(decode_mutex_);
    decode_stop_ = true;
  }
  decode_cv_.notify_all();
  decode_thread_.join();
  decode_stop_ = false;
}

void DeltaLogReader::submit_decode(std::size_t offset,
                                   std::string_view payload,
                                   std::uint32_t stored_crc) {
  {
    std::lock_guard<std::mutex> lock(decode_mutex_);
    job_offset_ = offset;
    job_payload_ = payload;
    job_crc_ = stored_crc;
    job_ready_ = true;
    job_in_flight_ = true;
  }
  decode_cv_.notify_all();
  obs::metrics::refresh_decode_ahead_depth().set(1.0);
}

DeltaLogReader::DecodeOutcome DeltaLogReader::take_decode() {
  DecodeOutcome out;
  {
    std::unique_lock<std::mutex> lock(decode_mutex_);
    decode_cv_.wait(lock, [this] { return result_ready_; });
    out = std::move(decode_result_);
    decode_result_ = DecodeOutcome{};
    result_ready_ = false;
    job_in_flight_ = false;
  }
  obs::metrics::refresh_decode_ahead_depth().set(0.0);
  obs::metrics::refresh_decode_ahead_frames().inc();
  return out;
}

void DeltaLogReader::drain_decode() {
  {
    std::unique_lock<std::mutex> lock(decode_mutex_);
    if (!job_in_flight_) return;
    decode_cv_.wait(lock, [this] { return result_ready_; });
    decode_result_ = DecodeOutcome{};
    result_ready_ = false;
    job_in_flight_ = false;
  }
  obs::metrics::refresh_decode_ahead_depth().set(0.0);
}

void DeltaLogReader::decode_worker_main() {
  std::unique_lock<std::mutex> lock(decode_mutex_);
  for (;;) {
    decode_cv_.wait(lock, [this] { return decode_stop_ || job_ready_; });
    if (decode_stop_) return;
    const std::size_t offset = job_offset_;
    const std::string_view payload = job_payload_;
    const std::uint32_t crc = job_crc_;
    job_ready_ = false;
    lock.unlock();
    // decode_outcome only reads the payload bytes and const members, so it
    // runs safely while the main thread mutates state_.
    DecodeOutcome out = decode_outcome(offset, payload, crc);
    lock.lock();
    decode_result_ = std::move(out);
    result_ready_ = true;
    decode_cv_.notify_all();
  }
}

int DeltaLogReader::poll() {
  util::MappedFile mapped = util::MappedFile::open(path_);
  std::string buffer;
  std::string_view bytes;
  if (mapped.valid()) {
    bytes = mapped.view();
  } else {
    if (!util::read_file(path_, buffer)) return 0;
    bytes = buffer;
  }

  if (bytes.size() < offset_) {
    // The writer compacted (file shrank): replay from the top. The full
    // frame at the head makes the pending delta a full rebuild anyway.
    offset_ = 0;
    have_head_id_ = false;
  }
  if (bytes.size() < last_size_) {
    // The file shrank relative to the PREVIOUS poll even though our cursor
    // still fits — the writer compacted and then re-appended between our
    // size check and this frame read. Appends never shrink a log, so any
    // size decrease means replacement: the bytes at our cursor belong to a
    // different file generation and must not be replayed as a continuation.
    // (The head-identity check below catches most of these, but cannot
    // when the new head frame is itself torn or still partially written.)
    offset_ = 0;
    have_head_id_ = false;
  }
  last_size_ = bytes.size();

  // A compaction can also replace the log with an equal-or-larger file.
  // Identify the head frame by its length plus its last payload bytes:
  // when that changes between polls, the file we were tailing is gone —
  // replay from the top. The frame-level CRC would NOT work here: a full
  // frame's payload ends with the snapshot codec's own CRC32, and a CRC
  // over any message that ends with its own CRC lands on a constant
  // residue — every full frame stores the same outer CRC. (Integrity is
  // unaffected; only uniqueness is lost.) The trailing payload bytes are
  // the inner CRC itself, which does vary with content.
  if (bytes.size() >= 9) {
    util::ByteReader head(bytes.data(), bytes.size());
    if (head.u32() == kFrameMagic) {
      const std::uint32_t head_len = head.u32();
      if (head_len >= 4 &&
          8 + static_cast<std::size_t>(head_len) + 4 <= bytes.size()) {
        std::uint32_t head_tail;
        std::memcpy(&head_tail, bytes.data() + 8 + head_len - 4, 4);
        const std::uint64_t id =
            (static_cast<std::uint64_t>(head_len) << 32) | head_tail;
        if (have_head_id_ && id != head_id_) offset_ = 0;
        head_id_ = id;
        have_head_id_ = true;
      }
    }
  }

  int applied = 0;
  // A compaction can also replace the log with a *larger* file, leaving
  // our cursor pointing into the middle of unrelated bytes. The first
  // frame of a poll is therefore allowed one bad read: it resets the
  // cursor and replays from the head (whose full frame rebuilds state).
  // Bad frames after a good one in the same poll are real corruption.
  bool may_rescan = offset_ > 0;

  enum class HeadStatus { kOk, kBadMagic, kTorn };
  struct HeaderInfo {
    HeadStatus status = HeadStatus::kTorn;
    std::size_t frame_bytes = 0;
    std::string_view payload;
    std::uint32_t stored_crc = 0;
  };
  auto parse_header = [&bytes](std::size_t offset) {
    HeaderInfo info;
    if (offset + 9 > bytes.size()) return info;  // magic+length+≥1 payload
    util::ByteReader header(bytes.data() + offset, bytes.size() - offset);
    if (header.u32() != kFrameMagic) {
      info.status = HeadStatus::kBadMagic;
      return info;
    }
    const std::uint32_t payload_len = header.u32();
    const std::size_t frame_bytes =
        8 + static_cast<std::size_t>(payload_len) + 4;
    if (payload_len == 0 || offset + frame_bytes > bytes.size()) {
      return info;  // torn tail (writer mid-append or crashed)
    }
    info.status = HeadStatus::kOk;
    info.frame_bytes = frame_bytes;
    info.payload = bytes.substr(offset + 8, payload_len);
    std::memcpy(&info.stored_crc, bytes.data() + offset + 8 + payload_len, 4);
    return info;
  };

  const bool pipelined = decode_ahead_;
  if (pipelined) start_decode_worker();
  bool inflight = false;  ///< the worker holds the frame at inflight_offset
  std::size_t inflight_offset = 0;

  while (offset_ + 9 <= bytes.size()) {
    const HeaderInfo head = parse_header(offset_);
    if (head.status == HeadStatus::kBadMagic) {
      if (inflight) {
        drain_decode();  // stale submission from before a rescan
        inflight = false;
      }
      if (may_rescan) {
        may_rescan = false;
        offset_ = 0;
        continue;
      }
      ++bad_frames_;
      obs::metrics::snapshot_crc_failures().inc();
      NLARM_WARN << "delta log '" << path_ << "': bad frame magic at offset "
                 << offset_ << "; stopping replay";
      break;
    }
    if (head.status == HeadStatus::kTorn) break;  // retried next poll

    DecodeOutcome outcome;
    if (inflight && inflight_offset == offset_) {
      outcome = take_decode();
      inflight = false;
    } else {
      if (inflight) {
        drain_decode();  // submission no longer at the cursor (rescan)
        inflight = false;
      }
      outcome = decode_outcome(offset_, head.payload, head.stored_crc);
    }

    if (!outcome.crc_ok) {
      if (may_rescan) {
        may_rescan = false;
        offset_ = 0;
        continue;
      }
      ++bad_frames_;
      obs::metrics::snapshot_crc_failures().inc();
      NLARM_WARN << "delta log '" << path_ << "': CRC mismatch at offset "
                 << offset_ << "; stopping replay";
      break;
    }
    may_rescan = false;
    if (outcome.decode_error) {
      ++bad_frames_;
      NLARM_WARN << "delta log '" << path_ << "': bad frame at offset "
                 << offset_ << ": " << outcome.error;
      break;
    }

    // Prime the pipeline: hand frame k+1's CRC + decode to the worker
    // before applying frame k, so the two overlap.
    if (pipelined) {
      const std::size_t next = offset_ + head.frame_bytes;
      const HeaderInfo next_head = parse_header(next);
      if (next_head.status == HeadStatus::kOk) {
        submit_decode(next, next_head.payload, next_head.stored_crc);
        inflight = true;
        inflight_offset = next;
      }
    }

    const bool frame_ok =
        outcome.known_kind && apply_decoded(outcome.frame);
    offset_ += head.frame_bytes;
    if (frame_ok) {
      ++applied;
      ++frames_applied_;
    }
  }
  // The worker's payload view dies with this poll's mapping: drain any
  // submission the loop exited past (torn tail, bad frame, end of log).
  if (inflight) drain_decode();
  // Follower-lag telemetry: the cursor vs the file size at this poll is
  // how far behind the log's tail this reader runs.
  obs::metrics::delta_log_tail_bytes().set(static_cast<double>(offset_));
  return applied;
}

SnapshotDelta DeltaLogReader::drain_delta() {
  SnapshotDelta delta = std::move(pending_);
  pending_ = SnapshotDelta{};
  delta.base_version = drain_base_version_;
  if (delta.version == 0 && have_state_) delta.version = state_.version;
  drain_base_version_ = have_state_ ? state_.version : 0;
  delta.normalize();
  return delta;
}

ClusterSnapshot replay_delta_log(const std::string& path) {
  DeltaLogReader reader(path);
  reader.poll();
  NLARM_CHECK(reader.have_snapshot())
      << "delta log '" << path << "' holds no usable snapshot";
  return reader.snapshot();
}

}  // namespace nlarm::monitor
