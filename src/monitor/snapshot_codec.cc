#include "monitor/snapshot_codec.h"

#include <cstring>

#include "util/binio.h"
#include "util/check.h"

namespace nlarm::monitor {

namespace {

constexpr std::uint32_t kFlagHasPairwise = 1u << 0;
constexpr std::uint32_t kFlagSparsePairwise = 1u << 1;

/// Per-pair sparse record: u32 u · u32 v · f64 lat · f64 lat5 · f64 bw ·
/// f64 peak.
constexpr std::size_t kSparseRecordBytes = 2 * 4 + 4 * sizeof(double);

/// Smallest encoded node record (codec::encode_node with an empty
/// hostname): five 4-byte ints, seven f64s, four 3-f64 means, the u32
/// hostname length.
constexpr std::size_t kMinNodeRecordBytes = 5 * 4 + 7 * 8 + 4 * 3 * 8 + 4;

std::uint64_t f64_bits(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// A pairwise section is sparse-eligible when it can be reconstructed from
/// the measured pairs alone: every unmeasured off-diagonal cell holds the
/// exact -1.0 sentinel, diagonals are exactly 0.0, and all four matrices are
/// bit-for-bit symmetric (bit comparison, so symmetric NaN payloads stay
/// eligible and round-trip exactly while asymmetric cells disqualify). On
/// success `measured` is the number of unordered pairs with at least one
/// non-sentinel value.
bool sparse_eligible(const NetSnapshot& net, std::size_t n,
                     std::size_t& measured) {
  const util::FlatMatrix* ms[4] = {&net.latency_us, &net.latency_5min_us,
                                   &net.bandwidth_mbps, &net.peak_mbps};
  const std::uint64_t sentinel = f64_bits(-1.0);
  const std::uint64_t zero = f64_bits(0.0);
  measured = 0;
  for (const util::FlatMatrix* m : ms) {
    if (m->size() != n) return false;
    for (std::size_t i = 0; i < n; ++i) {
      if (f64_bits((*m)[i][i]) != zero) return false;
    }
  }
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      bool any = false;
      for (const util::FlatMatrix* m : ms) {
        const std::uint64_t uv = f64_bits((*m)[u][v]);
        if (uv != f64_bits((*m)[v][u])) return false;
        if (uv != sentinel) any = true;
      }
      if (any) ++measured;
    }
  }
  return true;
}

void encode_sparse_pairwise(std::string& out, const NetSnapshot& net,
                            std::size_t n, std::size_t measured) {
  util::put_u64(out, static_cast<std::uint64_t>(measured));
  const std::uint64_t sentinel = f64_bits(-1.0);
  std::size_t written = 0;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      const double lat = net.latency_us[u][v];
      const double lat5 = net.latency_5min_us[u][v];
      const double bw = net.bandwidth_mbps[u][v];
      const double peak = net.peak_mbps[u][v];
      if (f64_bits(lat) == sentinel && f64_bits(lat5) == sentinel &&
          f64_bits(bw) == sentinel && f64_bits(peak) == sentinel) {
        continue;
      }
      util::put_u32(out, static_cast<std::uint32_t>(u));
      util::put_u32(out, static_cast<std::uint32_t>(v));
      util::put_f64(out, lat);
      util::put_f64(out, lat5);
      util::put_f64(out, bw);
      util::put_f64(out, peak);
      ++written;
    }
  }
  NLARM_CHECK(written == measured)
      << "sparse pairwise count drifted during encode";
}

void decode_sparse_pairwise(util::ByteReader& reader, NetSnapshot& net,
                            std::size_t n) {
  const std::uint64_t count = reader.u64();
  NLARM_CHECK(count <= n * (n - 1) / 2)
      << "sparse pairwise record count " << count << " exceeds " << n
      << "-node pair space";
  NLARM_CHECK(count <= reader.remaining() / kSparseRecordBytes)
      << "sparse pairwise record count " << count << " exceeds the "
      << reader.remaining() << " bytes present";
  net.latency_us.assign(n, -1.0);
  net.latency_5min_us.assign(n, -1.0);
  net.bandwidth_mbps.assign(n, -1.0);
  net.peak_mbps.assign(n, -1.0);
  net.latency_us.zero_diagonal();
  net.latency_5min_us.zero_diagonal();
  net.bandwidth_mbps.zero_diagonal();
  net.peak_mbps.zero_diagonal();
  for (std::uint64_t r = 0; r < count; ++r) {
    const std::uint32_t u = reader.u32();
    const std::uint32_t v = reader.u32();
    NLARM_CHECK(u < v && v < n)
        << "sparse pairwise record (" << u << "," << v
        << ") out of range or not upper-triangular";
    const double lat = reader.f64();
    const double lat5 = reader.f64();
    const double bw = reader.f64();
    const double peak = reader.f64();
    net.latency_us[u][v] = net.latency_us[v][u] = lat;
    net.latency_5min_us[u][v] = net.latency_5min_us[v][u] = lat5;
    net.bandwidth_mbps[u][v] = net.bandwidth_mbps[v][u] = bw;
    net.peak_mbps[u][v] = net.peak_mbps[v][u] = peak;
  }
}

void require_little_endian() {
  NLARM_CHECK(util::host_is_little_endian())
      << "binary snapshot codec requires a little-endian host";
}

void encode_matrix(std::string& out, const util::FlatMatrix& m,
                   std::size_t n) {
  NLARM_CHECK(m.size() == n) << "pairwise matrix is " << m.size() << "x"
                             << m.size() << ", snapshot has " << n << " nodes";
  out.append(reinterpret_cast<const char*>(m.data()),
             m.value_count() * sizeof(double));
}

void decode_matrix(util::ByteReader& reader, util::FlatMatrix& m,
                   std::size_t n) {
  const std::size_t bytes = n * n * sizeof(double);
  NLARM_CHECK(bytes <= reader.remaining())
      << "dense pairwise block of " << bytes << " bytes exceeds the "
      << reader.remaining() << " bytes present";
  m.assign(n, 0.0);
  reader.read_into(m.data(), bytes);
}

void encode_means(std::string& out, const RunningMeans& means) {
  util::put_f64(out, means.one_min);
  util::put_f64(out, means.five_min);
  util::put_f64(out, means.fifteen_min);
}

RunningMeans decode_means(util::ByteReader& reader) {
  RunningMeans means;
  means.one_min = reader.f64();
  means.five_min = reader.f64();
  means.fifteen_min = reader.f64();
  return means;
}

}  // namespace

bool is_binary_snapshot(std::string_view bytes) {
  return bytes.substr(0, kBinarySnapshotMagic.size()) == kBinarySnapshotMagic;
}

namespace codec {

void encode_node(std::string& out, const NodeSnapshot& node) {
  util::put_i32(out, node.spec.id);
  util::put_i32(out, node.spec.switch_id);
  util::put_i32(out, node.spec.core_count);
  util::put_i32(out, node.users);
  util::put_u32(out, node.valid ? 1 : 0);
  util::put_f64(out, node.spec.cpu_freq_ghz);
  util::put_f64(out, node.spec.total_mem_gb);
  util::put_f64(out, node.sample_time);
  util::put_f64(out, node.cpu_load);
  util::put_f64(out, node.cpu_util);
  util::put_f64(out, node.mem_used_gb);
  util::put_f64(out, node.net_flow_mbps);
  encode_means(out, node.cpu_load_avg);
  encode_means(out, node.cpu_util_avg);
  encode_means(out, node.net_flow_avg);
  encode_means(out, node.mem_avail_avg);
  util::put_u32(out, static_cast<std::uint32_t>(node.spec.hostname.size()));
  out.append(node.spec.hostname);
}

NodeSnapshot decode_node(util::ByteReader& reader) {
  NodeSnapshot node;
  node.spec.id = reader.i32();
  node.spec.switch_id = reader.i32();
  node.spec.core_count = reader.i32();
  node.users = reader.i32();
  node.valid = reader.u32() != 0;
  node.spec.cpu_freq_ghz = reader.f64();
  node.spec.total_mem_gb = reader.f64();
  node.sample_time = reader.f64();
  node.cpu_load = reader.f64();
  node.cpu_util = reader.f64();
  node.mem_used_gb = reader.f64();
  node.net_flow_mbps = reader.f64();
  node.cpu_load_avg = decode_means(reader);
  node.cpu_util_avg = decode_means(reader);
  node.net_flow_avg = decode_means(reader);
  node.mem_avail_avg = decode_means(reader);
  const std::uint32_t hostname_len = reader.u32();
  node.spec.hostname = std::string(reader.bytes(hostname_len));
  return node;
}

}  // namespace codec

void encode_snapshot_binary(const ClusterSnapshot& snapshot,
                            std::string& out) {
  require_little_endian();
  const std::size_t n = snapshot.nodes.size();
  NLARM_CHECK(n > 0) << "snapshot has no nodes";
  NLARM_CHECK(snapshot.livehosts.size() == n)
      << "livehosts size " << snapshot.livehosts.size() << " != node count "
      << n;
  const bool has_pairwise = !snapshot.net.latency_us.empty();

  // Tile-sparse pairwise: when the measured pairs are few (a tiled monitor
  // probes O(G²) inter-block pairs, not O(V²)) and the section is losslessly
  // reconstructible, ship only the measured records.
  std::size_t measured = 0;
  bool sparse = has_pairwise && sparse_eligible(snapshot.net, n, measured) &&
                8 + measured * kSparseRecordBytes <
                    4 * n * n * sizeof(double);

  const std::size_t start = out.size();
  // One reservation for the whole artifact: the matrices dominate.
  out.reserve(start + kBinarySnapshotMagic.size() + 24 + n * 256 + n +
              (has_pairwise && !sparse ? 4 * n * n * sizeof(double)
                                       : 8 + measured * kSparseRecordBytes) +
              4);
  out.append(kBinarySnapshotMagic);
  util::put_u32(out, static_cast<std::uint32_t>(n));
  util::put_u32(out, sparse ? kFlagSparsePairwise
                            : (has_pairwise ? kFlagHasPairwise : 0));
  util::put_f64(out, snapshot.time);
  util::put_u64(out, snapshot.version);

  for (std::size_t i = 0; i < n; ++i) {
    const NodeSnapshot& node = snapshot.nodes[i];
    NLARM_CHECK(node.spec.id == static_cast<cluster::NodeId>(i))
        << "node records must be dense and ordered";
    codec::encode_node(out, node);
  }
  for (std::size_t i = 0; i < n; ++i) {
    util::put_u8(out, snapshot.livehosts[i] ? 1 : 0);
  }
  if (sparse) {
    encode_sparse_pairwise(out, snapshot.net, n, measured);
  } else if (has_pairwise) {
    encode_matrix(out, snapshot.net.latency_us, n);
    encode_matrix(out, snapshot.net.latency_5min_us, n);
    encode_matrix(out, snapshot.net.bandwidth_mbps, n);
    encode_matrix(out, snapshot.net.peak_mbps, n);
  }
  const std::uint32_t crc =
      util::crc32(std::string_view(out).substr(start));
  util::put_u32(out, crc);
}

ClusterSnapshot decode_snapshot_binary(std::string_view bytes) {
  require_little_endian();
  NLARM_CHECK(is_binary_snapshot(bytes))
      << "not a binary nlarm snapshot (missing '"
      << std::string(kBinarySnapshotMagic.substr(
             0, kBinarySnapshotMagic.size() - 1))
      << "')";
  NLARM_CHECK(bytes.size() >= kBinarySnapshotMagic.size() + 4)
      << "binary snapshot truncated before header";
  const std::uint32_t stored_crc =
      [&] {
        std::uint32_t v;
        std::memcpy(&v, bytes.data() + bytes.size() - 4, 4);
        return v;
      }();
  const std::uint32_t computed_crc =
      util::crc32(bytes.substr(0, bytes.size() - 4));
  NLARM_CHECK(stored_crc == computed_crc)
      << "binary snapshot CRC mismatch (stored " << stored_crc
      << ", computed " << computed_crc << ") — truncated or corrupt file";

  util::ByteReader reader(bytes.substr(0, bytes.size() - 4));
  reader.skip(kBinarySnapshotMagic.size());
  const std::uint32_t n32 = reader.u32();
  NLARM_CHECK(n32 > 0 && n32 <= (1u << 24))
      << "implausible node count " << n32;
  const std::size_t n = n32;
  const std::uint32_t flags = reader.u32();

  ClusterSnapshot snapshot;
  snapshot.time = reader.f64();
  snapshot.version = reader.u64();
  NLARM_CHECK(n <= reader.remaining() / kMinNodeRecordBytes)
      << "node count " << n << " exceeds the " << reader.remaining()
      << " bytes present";
  snapshot.nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    NodeSnapshot node = codec::decode_node(reader);
    NLARM_CHECK(node.spec.id == static_cast<cluster::NodeId>(i))
        << "node records must be dense and ordered";
    snapshot.nodes.push_back(std::move(node));
  }
  snapshot.livehosts.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    snapshot.livehosts[i] = reader.u8() != 0;
  }
  if ((flags & kFlagSparsePairwise) != 0) {
    decode_sparse_pairwise(reader, snapshot.net, n);
  } else if ((flags & kFlagHasPairwise) != 0) {
    decode_matrix(reader, snapshot.net.latency_us, n);
    decode_matrix(reader, snapshot.net.latency_5min_us, n);
    decode_matrix(reader, snapshot.net.bandwidth_mbps, n);
    decode_matrix(reader, snapshot.net.peak_mbps, n);
  }
  NLARM_CHECK(reader.remaining() == 0)
      << reader.remaining() << " trailing byte(s) after pairwise section";
  return snapshot;
}

}  // namespace nlarm::monitor
