#include "core/network_load.h"

#include <algorithm>

#include "core/normalize.h"
#include "util/check.h"

namespace nlarm::core {

namespace {

/// Fills unmeasured (<0) entries of a pairwise value list with the mean of
/// the measured entries (or `fallback` if nothing was measured).
void fill_missing(std::vector<double>& values, double fallback) {
  double sum = 0.0;
  std::size_t measured = 0;
  for (double v : values) {
    if (v >= 0.0) {
      sum += v;
      ++measured;
    }
  }
  const double fill =
      measured > 0 ? sum / static_cast<double>(measured) : fallback;
  for (double& v : values) {
    if (v < 0.0) v = fill;
  }
}

}  // namespace

PairMetrics pair_metrics(const monitor::ClusterSnapshot& snapshot,
                         cluster::NodeId u, cluster::NodeId v) {
  NLARM_CHECK(u != v) << "pair metrics of a self pair";
  const auto uu = static_cast<std::size_t>(u);
  const auto vv = static_cast<std::size_t>(v);
  NLARM_CHECK(uu < snapshot.net.latency_us.size() &&
              vv < snapshot.net.latency_us.size())
      << "pair out of snapshot";
  PairMetrics m;
  m.latency_us = snapshot.net.latency_us[uu][vv];
  const double bw = snapshot.net.bandwidth_mbps[uu][vv];
  const double peak = snapshot.net.peak_mbps[uu][vv];
  if (bw < 0.0 || peak < 0.0) {
    m.bandwidth_complement_mbps = -1.0;  // unmeasured
  } else {
    m.bandwidth_complement_mbps = std::max(0.0, peak - bw);
  }
  return m;
}

util::FlatMatrix network_loads(const monitor::ClusterSnapshot& snapshot,
                               std::span<const cluster::NodeId> nodes,
                               const NetworkLoadWeights& weights) {
  util::FlatMatrix nl;
  network_loads_into(snapshot, nodes, weights, nl);
  return nl;
}

void network_loads_into(const monitor::ClusterSnapshot& snapshot,
                        std::span<const cluster::NodeId> nodes,
                        const NetworkLoadWeights& weights,
                        util::FlatMatrix& out) {
  weights.validate();
  const std::size_t count = nodes.size();
  out.assign(count, 0.0);
  if (count < 2) return;

  const std::size_t matrix_size =
      static_cast<std::size_t>(snapshot.net.size());
  const util::FlatMatrix& lat_m = snapshot.net.latency_us;
  const util::FlatMatrix& bw_m = snapshot.net.bandwidth_mbps;
  const util::FlatMatrix& peak_m = snapshot.net.peak_mbps;

  // Gather the upper-triangle pair terms. The scratch vectors are
  // thread-local so repeated calls reuse their allocations.
  const std::size_t pair_count = count * (count - 1) / 2;
  thread_local std::vector<double> latency;
  thread_local std::vector<double> complement;
  latency.resize(pair_count);
  complement.resize(pair_count);
  std::size_t k = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto ui = static_cast<std::size_t>(nodes[i]);
    NLARM_CHECK(ui < matrix_size) << "pair out of snapshot";
    const double* lat_row = lat_m[ui];
    const double* bw_row = bw_m[ui];
    const double* peak_row = peak_m[ui];
    for (std::size_t j = i + 1; j < count; ++j, ++k) {
      const auto vj = static_cast<std::size_t>(nodes[j]);
      NLARM_CHECK(vj < matrix_size) << "pair out of snapshot";
      NLARM_CHECK(vj != ui) << "pair metrics of a self pair";
      latency[k] = lat_row[vj];  // may be <0 (unmeasured)
      const double bw = bw_row[vj];
      const double peak = peak_row[vj];
      complement[k] =
          (bw < 0.0 || peak < 0.0) ? -1.0 : std::max(0.0, peak - bw);
    }
  }
  fill_missing(latency, /*fallback=*/100.0);
  fill_missing(complement, /*fallback=*/0.0);

  // "Normalization is done similar to compute load" — divide by the sum
  // over pairs. Both terms are already minimization criteria (latency, and
  // bandwidth complemented at the measurement stage).
  const std::vector<double> latency_norm = normalize_by_sum(latency);
  const std::vector<double> complement_norm = normalize_by_sum(complement);

  k = 0;
  double* const values = out.data();
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t j = i + 1; j < count; ++j, ++k) {
      const double value = weights.latency * latency_norm[k] +
                           weights.bandwidth * complement_norm[k];
      values[i * count + j] = value;
      values[j * count + i] = value;
    }
  }
}

double group_network_load(const util::FlatMatrix& nl,
                          std::span<const std::size_t> member_indices) {
  const std::size_t count = member_indices.size();
  if (count < 2) return 0.0;
  double sum = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t j = i + 1; j < count; ++j) {
      const std::size_t a = member_indices[i];
      const std::size_t b = member_indices[j];
      NLARM_CHECK(a < nl.size() && b < nl.size()) << "member out of matrix";
      sum += nl[a][b];
      ++pairs;
    }
  }
  return sum / static_cast<double>(pairs);
}

}  // namespace nlarm::core
