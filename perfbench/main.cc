// nlarm pipeline benchmark: one program, three workloads, driven through the
// broker's public library API from a single process.
//
//   nlarm_pipeline_bench --workload tick_v2048|admit_v256|burst_v256
//                        --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Every workload runs a fixed number of operations derived from --seconds
// and per-workload rates (so counts and memory do not move with speed; the
// rates are set so a run lasts about S seconds on a 4-core box). All inputs
// are generated from --seed before anything is timed. After the timed loop an
// output oracle checks the decisions against the paper's reference
// algorithms, leader/follower parity, cache replays, the on-disk log and the
// audit trail; any mismatch makes the run fail.
//
// Output: human-readable lines, then one `RESULT {json}` line holding the
// end-to-end metrics, the per-layer metrics (traced runs) and provenance.
// perfbench/run.py builds this program and turns that line into the
// benchmark's result.
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/allocator.h"
#include "core/broker.h"
#include "core/reference.h"
#include "core/serve_shard.h"
#include "monitor/delta_log.h"
#include "monitor/snapshot_codec.h"
#include "obs/audit.h"
#include "pipeline.h"
#include "sim/rng.h"
#include "trace.h"
#include "util/logging.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace core = nlarm::core;
namespace nm = nlarm::monitor;

// --- workload sizing --------------------------------------------------------

constexpr int kTickNodes = 2048;
constexpr int kAdmitNodes = 256;
constexpr int kTickSetups = 3;
constexpr int kAdmitSetups = 15;
// Operations per second of --seconds.
constexpr double kTickRate = 2.0;       // ticks
constexpr double kAdmitRate = 620.0;    // decisions
constexpr double kBurstRate = 10000.0;  // decisions
constexpr double kAdmitTickRate = 25.0;  // monitor ticks
constexpr double kBurstTickRate = 10.0;  // monitor ticks (epochs)
constexpr int kTickRefreshThreads = 4;
constexpr int kTickReferenceChecks = 3;
// Monitor ticks the admission workloads run after their clients stop; their
// lag and CPU figures come from these (see run_admission).
constexpr int kQuietTicks = 1100;
constexpr int kAdmitClients = 2;
constexpr int kBurstClients = 2;
constexpr int kBurstReplayRequests = 3000;
constexpr int kBurstReplayEvery = 500;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = ".bench_build/run";
};

// --- statistics -------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The highest percentile of {90, 75, 50} that has at least ten samples
/// beyond it (nearest-rank), with the sample count. The ladder stops at p90:
/// on a shared 4-core VM, host scheduling stalls of a few milliseconds hit a
/// few percent of operations in some runs and not in others, which moved
/// p95/p99 of the millisecond-scale operations 2-5x between runs.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

Tail tail_of(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (double p : {90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    if (n - 1 - index >= 10 || p == 50.0) {
      tail.value = values[index];
      tail.percentile = p;
      tail.beyond = n - 1 - index;
      return tail;
    }
  }
  return tail;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- decision comparison ----------------------------------------------------

bool same_allocation(const core::Allocation& a, const core::Allocation& b) {
  return a.nodes == b.nodes && a.procs_per_node == b.procs_per_node &&
         a.total_procs == b.total_procs && a.total_cost == b.total_cost &&
         a.avg_cpu_load == b.avg_cpu_load &&
         a.avg_latency_us == b.avg_latency_us &&
         a.avg_bw_complement_mbps == b.avg_bw_complement_mbps;
}

/// Byte-for-byte decision parity, diagnostics included.
bool same_decision(const core::BrokerDecision& a, const core::BrokerDecision& b) {
  return a.action == b.action && a.reason == b.reason &&
         a.cluster_load_per_core == b.cluster_load_per_core &&
         a.effective_capacity == b.effective_capacity &&
         a.allocation.policy == b.allocation.policy &&
         same_allocation(a.allocation, b.allocation);
}

/// Every field of both snapshots, compared through their binary encoding.
bool same_state(const nm::ClusterSnapshot& a, const nm::ClusterSnapshot& b) {
  std::string x;
  std::string y;
  nm::encode_snapshot_binary(a, x);
  nm::encode_snapshot_binary(b, y);
  return x == y;
}

// --- what a workload run leaves behind -------------------------------------

struct Outcome {
  int node_count = 0;
  std::map<std::string, int> threads;  ///< thread count per role
  std::vector<double> setup_s;
  std::vector<double> decide_s;  ///< per decision, wall
  std::vector<double> decide_at_s;  ///< completion, from the loop's start
  double run_wall_s = 0.0;       ///< timed loop
  long decisions = 0;            ///< attempted by the workload
  long exceptions = 0;
  long refusals = 0;
  long waits = 0;
  long pin_changes = 0;
  std::vector<double> refresh_lag_s;
  std::vector<double> follower_lag_s;
  std::vector<double> tick_cpu_s;
  double peak_rss_mb = 0.0;

  long writes = 0;
  long dirty_nodes = 0;
  long dirty_pairs = 0;
  long frames = 0;
  long full_frames = 0;
  long refreshes = 0;
  long incremental = 0;
  std::vector<double> frame_kb;
  std::vector<double> generate_s;
  std::vector<double> select_s;
  core::ServeStats serve;
  long replay_cache_hits = 0;
  long audit_records = 0;
  double audit_bytes = 0.0;

  long oracle_checks = 0;
  std::vector<std::string> mismatches;
  std::vector<std::vector<SpanRecord>> spans;

  void mismatch(std::string what) { mismatches.push_back(std::move(what)); }
  void check(bool ok, const std::string& what) {
    ++oracle_checks;
    if (!ok) mismatch(what);
  }
  /// A tick's lag and CPU, then its counts. The log append counts with its
  /// CPU time, not its wall time: the log sits on the checkout's disk, whose
  /// fsync latency would otherwise set the lag tails, and on tmpfs an append
  /// costs about its CPU time.
  void account(const PublishResult& pub, double poll_s, double cpu_s) {
    const double disk_wait = pub.append_wall_s - pub.append_cpu_s;
    refresh_lag_s.push_back(pub.publish_end_s - pub.start_s - disk_wait);
    follower_lag_s.push_back(pub.append_end_s - pub.start_s - disk_wait +
                             poll_s);
    tick_cpu_s.push_back(cpu_s);
    count(pub);
  }
  void count(const PublishResult& pub) {
    writes += pub.writes;
    dirty_nodes += static_cast<long>(pub.dirty_nodes);
    dirty_pairs += static_cast<long>(pub.dirty_pairs);
    ++frames;
    if (pub.full_frame) ++full_frames;
    frame_kb.push_back(static_cast<double>(pub.frame_bytes) / 1024.0);
    ++refreshes;
    if (pub.incremental) ++incremental;
  }
};

/// Audit-derived layer inputs: allocator stage times of scoring passes, and
/// the record count and computed heap footprint of the log.
void read_audit(const nlarm::obs::AuditLog& audit, Outcome& out) {
  const std::vector<nlarm::obs::AuditRecord> records = audit.records();
  out.audit_records = static_cast<long>(records.size());
  const auto string_bytes = [](const std::string& s) {
    return s.capacity() > 15 ? static_cast<double>(s.capacity() + 1) : 0.0;
  };
  for (const nlarm::obs::AuditRecord& r : records) {
    if (r.candidates_generated > 0) {
      out.generate_s.push_back(r.generate_seconds);
      out.select_s.push_back(r.select_seconds);
    }
    double bytes = sizeof(nlarm::obs::AuditRecord) + string_bytes(r.action) +
                   string_bytes(r.reason) + string_bytes(r.degradation) +
                   string_bytes(r.policy);
    bytes += static_cast<double>(r.nodes.capacity() * sizeof(int) +
                                 r.procs_per_node.capacity() * sizeof(int) +
                                 r.hostnames.capacity() * sizeof(std::string));
    for (const std::string& host : r.hostnames) bytes += string_bytes(host);
    out.audit_bytes += bytes;
  }
}

core::DegradationPolicy degradation_policy() {
  core::DegradationPolicy policy;  // 30 s node budget, 600 s pair budget
  policy.node_readmit_s = policy.node_staleness_budget_s / 2.0;
  return policy;
}

core::AllocationRequest make_request(int nprocs, double alpha) {
  core::AllocationRequest request;
  request.nprocs = nprocs;
  request.ppn = 0;  // Eq. 3 per-node process counts
  request.job = core::JobWeights{alpha, 1.0 - alpha};
  return request;
}

std::string log_path_for(const Args& args, int setup) {
  return args.out_dir + "/" + args.workload + "-" + std::to_string(getpid()) +
         "-" + std::to_string(setup) + ".nlarmd";
}

/// Builds the pipeline `runs` times (each build is one full set-up) and
/// keeps the last one.
std::unique_ptr<Pipeline> set_up(const Args& args, const ClusterPlan& plan,
                                 PipelineOptions options, int runs,
                                 Outcome& out) {
  std::unique_ptr<Pipeline> pipeline;
  for (int r = 0; r < runs; ++r) {
    pipeline.reset();
    options.log_path = log_path_for(args, r);
    const double start = wall_s();
    pipeline = std::make_unique<Pipeline>(plan, options);
    out.setup_s.push_back(wall_s() - start);
  }
  return pipeline;
}

void check_replay(Pipeline& pipeline, Outcome& out) {
  out.check(same_state(nm::replay_delta_log(pipeline.log_path()),
                       pipeline.last_snapshot()),
            "replay_delta_log of the final log differs from the final assemble");
}

void check_audit(const nlarm::obs::AuditLog& audit, long issued, Outcome& out) {
  out.check(static_cast<long>(audit.size()) == issued,
            "audit holds " + std::to_string(audit.size()) + " records for " +
                std::to_string(issued) + " decisions");
}

// --- tick_v2048 -------------------------------------------------------------

Outcome run_tick(const Args& args) {
  Outcome out;
  out.node_count = kTickNodes;
  out.threads = {{"driver", 1},
                 {"leader_refresh_pool", kTickRefreshThreads - 1},
                 {"follower_refresh_pool", 0},
                 {"follower_decode_ahead", 0}};
  TrafficOptions traffic;
  traffic.ticks = std::max(
      24, static_cast<int>(std::lround(args.seconds * kTickRate)));
  traffic.tick_s = 5.0;  // the monitor time nlarm_broker's leader loop ticks
  traffic.pair_probes = true;
  traffic.livehost_changes = 2;
  const ClusterPlan plan = make_cluster_plan(args.seed, kTickNodes, traffic);

  // Decide cost grows with nprocs, so every seed gets the same stratified
  // spread of 64..512 processes, in seeded order.
  nlarm::sim::Rng rng = nlarm::sim::Rng(args.seed).fork("requests");
  std::vector<int> nprocs;
  for (int k = 0; k < traffic.ticks; ++k) {
    nprocs.push_back(64 + static_cast<int>((k + 0.5) * 448.0 / traffic.ticks));
  }
  rng.shuffle(nprocs.data(), nprocs.size());
  std::vector<core::AllocationRequest> requests;
  for (int procs : nprocs) {
    requests.push_back(make_request(procs, rng.uniform(0.2, 0.8)));
  }
  // Oracle samples: leader/follower parity on a seeded quarter of the ticks,
  // reference::allocate on kTickReferenceChecks seeded ticks.
  std::vector<bool> parity_tick(requests.size());
  for (std::size_t k = 0; k < parity_tick.size(); ++k) {
    parity_tick[k] = rng.chance(0.25);
  }
  std::vector<std::size_t> order(requests.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order.data(), order.size());
  std::vector<bool> reference_tick(requests.size());
  for (int c = 0; c < kTickReferenceChecks; ++c) {
    reference_tick[order[static_cast<std::size_t>(c)]] = true;
  }

  PipelineOptions options;
  options.profile = core::RequestProfile::of(requests.front());
  options.degradation = degradation_policy();
  options.refresh_threads = kTickRefreshThreads;
  std::unique_ptr<Pipeline> pipeline =
      set_up(args, plan, options, kTickSetups, out);
  core::ResourceBroker& leader = pipeline->leader();
  nlarm::obs::AuditLog audit;
  leader.set_audit_log(&audit);

  SpanBuffer spans(args.trace, /*process_cpu=*/true, 1);
  core::EpochPin pin;
  core::BrokerDecision last;
  for (std::size_t k = 0; k < plan.ticks.size(); ++k) {
    const TickPlan& tick = plan.ticks[k];
    const auto id = static_cast<std::int64_t>(k);
    const double cpu_start = spans.cpu_now();
    Span root(spans, "bench.tick", 0, id);
    const PublishResult pub = pipeline->publish(tick, spans, root.id(), id);
    {
      Span span(spans, "core.epoch.pin", root.id(), id);
      if (leader.refresh_pin(pin)) ++out.pin_changes;
    }
    {
      Span span(spans, "core.broker.decide", root.id(), id);
      const double start = wall_s();
      try {
        last = leader.decide(pin, requests[k]);
      } catch (const std::exception& error) {
        ++out.exceptions;
        out.mismatch(std::string("decide threw: ") + error.what());
      }
      out.decide_s.push_back(wall_s() - start);
    }
    const double poll_s = pipeline->replicate(tick.now, spans, root.id(), id);
    root.end();
    const double tick_s = wall_s() - pub.start_s;
    out.account(pub, poll_s, spans.cpu_now() - cpu_start);
    out.run_wall_s += tick_s;
    ++out.decisions;

    // Oracle, outside the timed region: the follower, at the same frame,
    // must decide byte-identically to the leader.
    if (parity_tick[k]) {
      core::FollowerBroker& follower = pipeline->follower();
      out.check(follower.status(tick.now).state_version == pin.prepared->version,
                "follower is not at the leader's frame, tick " + std::to_string(k));
      out.check(same_decision(follower.decide(requests[k], tick.now), last),
                "leader/follower decisions differ at tick " + std::to_string(k));
    }
    if (reference_tick[k] &&
        last.action == core::BrokerDecision::Action::kAllocate) {
      out.check(same_allocation(last.allocation,
                                core::reference::allocate(
                                    *pin.prepared->snapshot, requests[k])),
                "decision at tick " + std::to_string(k) +
                    " differs from reference::allocate");
    }
  }
  out.peak_rss_mb = peak_rss_mb();
  out.waits = leader.waits_recommended();
  out.refusals = leader.stale_refusals();
  read_audit(audit, out);
  check_audit(audit, out.decisions, out);
  check_replay(*pipeline, out);
  out.spans.push_back(spans.spans());
  return out;
}

// --- admit_v256 / burst_v256 ------------------------------------------------

struct Shape {
  int nprocs;
  double alpha;
};

/// Two closed-loop admission workloads on V=256 with one monitor thread
/// ticking the pipeline every `per_tick` completed decisions. Once the
/// clients stop, kQuietTicks more ticks give the lag and tick CPU figures.
///  admit: 2 clients, uncached ResourceBroker::decide(pin), unique shapes.
///  burst: 2 clients through a 1-shard ServePlane with its decision cache,
///         shapes drawn Zipf-style from six fixed ones.
Outcome run_admission(const Args& args, bool burst) {
  Outcome out;
  out.node_count = kAdmitNodes;
  const int clients = burst ? kBurstClients : kAdmitClients;
  const long total = std::max<long>(
      clients * 100L,
      std::lround(args.seconds * (burst ? kBurstRate : kAdmitRate)));
  const long per_client = total / clients;
  const long issued = per_client * clients;
  const int ticks = std::max(
      10, static_cast<int>(std::lround(
              args.seconds * (burst ? kBurstTickRate : kAdmitTickRate))));
  const long per_tick = std::max<long>(1, issued / ticks);
  out.threads = {{"clients", clients},
                 {"monitor", 1},
                 {"serve_shards", burst ? 1 : 0},
                 {"refresh_pool", 0},
                 {"follower_decode_ahead", 0}};

  TrafficOptions traffic;
  traffic.ticks = ticks + kQuietTicks +
                  (burst ? kBurstReplayRequests / kBurstReplayEvery : 0);
  traffic.tick_s = 0.2;
  const ClusterPlan plan = make_cluster_plan(args.seed, kAdmitNodes, traffic);

  nlarm::sim::Rng rng = nlarm::sim::Rng(args.seed).fork("requests");
  const std::vector<Shape> shapes = {{16, 0.3}, {32, 0.4}, {48, 0.5},
                                     {64, 0.3}, {96, 0.6}, {128, 0.4}};
  std::vector<double> zipf;  // cumulative, s = 1.1
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    zipf.push_back((zipf.empty() ? 0.0 : zipf.back()) +
                   1.0 / std::pow(static_cast<double>(i + 1), 1.1));
  }
  const auto draw_shape = [&]() {
    const double x = rng.uniform(0.0, zipf.back());
    return static_cast<std::size_t>(
        std::upper_bound(zipf.begin(), zipf.end(), x) - zipf.begin());
  };
  std::vector<std::vector<core::AllocationRequest>> streams(
      static_cast<std::size_t>(clients));
  std::vector<std::vector<std::size_t>> shape_of(streams.size());
  std::vector<std::vector<bool>> sampled(streams.size());
  for (std::size_t c = 0; c < streams.size(); ++c) {
    for (long i = 0; i < per_client; ++i) {
      if (burst) {
        const std::size_t s = std::min(draw_shape(), shapes.size() - 1);
        shape_of[c].push_back(s);
        streams[c].push_back(make_request(shapes[s].nprocs, shapes[s].alpha));
      } else {
        streams[c].push_back(make_request(
            static_cast<int>(rng.uniform_int(16, 192)), rng.uniform(0.1, 0.9)));
      }
      sampled[c].push_back(rng.chance(8.0 / static_cast<double>(per_client)));
    }
  }

  PipelineOptions options;
  options.profile = core::RequestProfile::of(streams[0][0]);
  options.degradation = degradation_policy();
  options.refresh_threads = 1;
  std::unique_ptr<Pipeline> pipeline =
      set_up(args, plan, options, kAdmitSetups, out);
  core::ResourceBroker& leader = pipeline->leader();
  nlarm::obs::AuditLog audit;
  leader.set_audit_log(&audit);

  std::unique_ptr<core::ServePlane> plane;
  if (burst) {
    core::ServeOptions serve;
    serve.shards = 1;
    serve.decision_cache = true;
    serve.debit_capacity = false;
    plane = std::make_unique<core::ServePlane>(leader, serve);
  }

  struct ClientResult {
    std::vector<double> latency;
    std::vector<double> ends;  ///< completion times, steady clock
    long checks = 0;
    std::vector<std::string> mismatches;
    long exceptions = 0;
    long pin_changes = 0;
    std::string error;
  };
  std::vector<ClientResult> results(streams.size());
  std::vector<SpanBuffer> buffers;
  buffers.reserve(streams.size() + 1);
  for (std::size_t i = 0; i <= streams.size(); ++i) {
    buffers.emplace_back(args.trace, /*process_cpu=*/false, i + 1);
  }

  std::atomic<bool> go{false};
  std::atomic<long> completed{0};
  std::atomic<int> clients_done{0};
  std::string monitor_error;

  std::thread monitor([&] {
    SpanBuffer& spans = buffers[0];
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    try {
      for (int k = 0; k < ticks; ++k) {
        while (completed.load(std::memory_order_acquire) < (k + 1) * per_tick &&
               clients_done.load(std::memory_order_acquire) < clients) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        const TickPlan& tick = plan.ticks[static_cast<std::size_t>(k)];
        Span root(spans, "bench.tick", 0, k);
        const PublishResult pub = pipeline->publish(tick, spans, root.id(), k);
        pipeline->replicate(tick.now, spans, root.id(), k);
        root.end();
        out.count(pub);
      }
    } catch (const std::exception& error) {
      monitor_error = error.what();
    }
  });

  std::vector<std::thread> workers;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    workers.emplace_back([&, c] {
      SpanBuffer& spans = buffers[c + 1];
      ClientResult& result = results[c];
      result.latency.reserve(streams[c].size());
      result.ends.reserve(streams[c].size());
      core::EpochPin pin = leader.pin_epoch();
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = 0; i < streams[c].size(); ++i) {
        const auto id = static_cast<std::int64_t>((c << 32) | i);
        const core::AllocationRequest& request = streams[c][i];
        Span root(spans, "bench.request", 0, id);
        core::BrokerDecision decision;
        const double start = wall_s();
        try {
          if (burst) {
            Span span(spans, "core.serve.decide", root.id(), id);
            decision = plane->decide(request);
          } else {
            {
              Span span(spans, "core.epoch.pin", root.id(), id);
              if (leader.refresh_pin(pin)) ++result.pin_changes;
            }
            Span span(spans, "core.broker.decide", root.id(), id);
            decision = leader.decide(pin, request);
          }
        } catch (const std::exception& error) {
          ++result.exceptions;
          if (result.error.empty()) result.error = error.what();
        }
        const double end = wall_s();
        result.latency.push_back(end - start);
        result.ends.push_back(end);
        root.end();
        completed.fetch_add(1, std::memory_order_acq_rel);
        // Oracle on a seeded sample, between requests and outside their
        // timing: the decision must equal the reference algorithms on the
        // epoch it was made on. Checked here so no old epoch is kept alive.
        if (!burst && sampled[c][i] &&
            decision.action == core::BrokerDecision::Action::kAllocate) {
          ++result.checks;
          if (!same_allocation(decision.allocation,
                               core::reference::allocate(
                                   *pin.prepared->snapshot, request))) {
            result.mismatches.push_back(
                "sampled decision (epoch " + std::to_string(pin.epoch) +
                ") differs from reference::allocate");
          }
        }
      }
      clients_done.fetch_add(1, std::memory_order_acq_rel);
    });
  }

  const double start = wall_s();
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();
  out.run_wall_s = wall_s() - start;
  monitor.join();
  if (plane != nullptr) plane->stop();
  out.peak_rss_mb = peak_rss_mb();
  out.decisions = issued;
  for (const ClientResult& result : results) {
    out.decide_s.insert(out.decide_s.end(), result.latency.begin(),
                        result.latency.end());
    for (double end : result.ends) out.decide_at_s.push_back(end - start);
    out.exceptions += result.exceptions;
    out.pin_changes += result.pin_changes;
    if (!result.error.empty()) out.mismatch("decide threw: " + result.error);
    out.oracle_checks += result.checks;
    for (const std::string& what : result.mismatches) out.mismatch(what);
  }
  if (!monitor_error.empty()) out.mismatch("monitor tick threw: " + monitor_error);
  out.waits = leader.waits_recommended();
  out.refusals = leader.stale_refusals();
  if (plane != nullptr) out.serve = plane->stats();
  read_audit(audit, out);

  // Lag and tick CPU come from monitor ticks run after the clients stop.
  // Beside the clients, the monitor's millisecond ticks were preempted in
  // some runs and not in others, and their lag tails moved 30-50% between
  // runs of one build.
  SpanBuffer quiet(args.trace, /*process_cpu=*/true, buffers.size());
  std::size_t next_tick = static_cast<std::size_t>(ticks);
  for (int q = 0; q < kQuietTicks; ++q, ++next_tick) {
    const TickPlan& tick = plan.ticks[next_tick];
    const auto id = static_cast<std::int64_t>(next_tick);
    const double cpu_start = quiet.cpu_now();
    Span root(quiet, "bench.tick", 0, id);
    const PublishResult pub = pipeline->publish(tick, quiet, root.id(), id);
    const double poll_s = pipeline->replicate(tick.now, quiet, root.id(), id);
    root.end();
    out.account(pub, poll_s, quiet.cpu_now() - cpu_start);
    // Spread the ticks over a few seconds of host time, as the monitor's
    // own cadence would.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const SpanBuffer& buffer : buffers) out.spans.push_back(buffer.spans());
  out.spans.push_back(quiet.spans());

  // --- oracle, outside the timed region ---
  check_audit(audit, issued, out);
  leader.set_audit_log(nullptr);
  core::FollowerBroker& follower = pipeline->follower();

  if (!burst) {
    // Leader/follower parity at the final frame.
    const double now = plan.ticks[next_tick - 1].now;
    const core::EpochPin final_pin = leader.pin_epoch();
    for (std::size_t i = 0; i < 8 && i < streams[0].size(); ++i) {
      out.check(same_decision(leader.decide(final_pin, streams[0][i]),
                              follower.decide(streams[0][i], now)),
                "leader/follower decisions differ at the final frame");
    }
    check_replay(*pipeline, out);
    return out;
  }

  // Burst: a deterministic single-client replay through a fresh plane. The
  // main thread publishes a new tick every kBurstReplayEvery requests, so
  // the plane's cache hits depend only on the seed. Every placement it
  // serves, cached or not, must equal a fresh decide(pin) on that epoch.
  core::ServeOptions serve = plane->options();
  plane.reset();
  core::ServePlane replay(leader, serve);
  std::map<std::pair<std::uint64_t, std::size_t>, core::BrokerDecision> fresh;
  SpanBuffer untraced(false, false, 0);
  for (int i = 0; i < kBurstReplayRequests; ++i) {
    if (i > 0 && i % kBurstReplayEvery == 0) {
      const TickPlan& tick = plan.ticks[next_tick++];
      pipeline->publish(tick, untraced, 0, 0);
      pipeline->replicate(tick.now, untraced, 0, 0);
    }
    const std::size_t row = static_cast<std::size_t>(i) % shape_of[0].size();
    const std::size_t s = shape_of[0][row];
    const core::AllocationRequest& request = streams[0][row];
    const core::BrokerDecision served = replay.decide(request);
    const core::EpochPin pin = leader.pin_epoch();
    auto [entry, inserted] =
        fresh.try_emplace({pin.epoch, s}, core::BrokerDecision{});
    if (inserted) entry->second = leader.decide(pin, request);
    out.check(same_decision(served, entry->second),
              "serve-plane placement differs from a fresh decide(pin)");
  }
  out.replay_cache_hits = static_cast<long>(replay.stats().cache_hits);
  replay.stop();

  // Every shape at the final frame: reference algorithms and follower parity.
  const core::EpochPin final_pin = leader.pin_epoch();
  const double final_now = plan.ticks[next_tick - 1].now;
  for (const Shape& shape : shapes) {
    const core::AllocationRequest request =
        make_request(shape.nprocs, shape.alpha);
    const core::BrokerDecision decision = leader.decide(final_pin, request);
    if (decision.action == core::BrokerDecision::Action::kAllocate) {
      out.check(same_allocation(decision.allocation,
                                core::reference::allocate(
                                    *final_pin.prepared->snapshot, request)),
                "final-epoch decision differs from reference::allocate");
    }
    out.check(same_decision(decision, follower.decide(request, final_now)),
              "leader/follower decisions differ at the final frame");
  }
  check_replay(*pipeline, out);
  return out;
}

// --- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string tail_note(const Tail& tail) {
  std::ostringstream note;
  note << "p" << tail.percentile << " of " << tail.samples << " samples, "
       << tail.beyond << " beyond";
  return note.str();
}

/// Timings of a run cut into slices of consecutive samples. Each statistic
/// is the median of its per-slice values, so a host stall that covers less
/// than half the run does not move it. A run with too few samples for a
/// p90 in every slice (tick_v2048) is one slice.
struct Summary {
  double p50 = 0.0;
  Tail tail;  ///< value: median over slices; the rest: one slice's ladder
  double rate = 0.0;  ///< samples per second of the slices' time
  std::size_t slices = 1;

  std::string note() const {
    return slices > 1 ? ", median of " + std::to_string(slices) + " slices"
                      : "";
  }
};

constexpr std::size_t kSlices = 10;

/// `values` in ms; `at_s`, when given, the time each sample completed, used
/// to order them and to cut the slices by time.
Summary summarise(const std::vector<double>& values,
                  const std::vector<double>& at_s = {}, double span_s = 0.0) {
  // p90 needs 110 samples for ten beyond it.
  const std::size_t count = values.size() >= 110 * kSlices ? kSlices : 1;
  std::vector<std::vector<double>> slices(count);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double position =
        at_s.empty() ? static_cast<double>(i) / static_cast<double>(values.size())
                     : at_s[i] / span_s;
    const auto slice =
        static_cast<std::size_t>(position * static_cast<double>(count));
    slices[std::min(slice, count - 1)].push_back(values[i]);
  }
  Summary summary;
  std::vector<double> p50s;
  std::vector<double> tails;
  std::vector<double> rates;
  for (const std::vector<double>& slice : slices) {
    p50s.push_back(median(slice));
    summary.tail = tail_of(slice);
    tails.push_back(summary.tail.value);
    if (span_s > 0.0) {
      rates.push_back(static_cast<double>(slice.size()) *
                      static_cast<double>(count) / span_s);
    }
  }
  summary.p50 = median(p50s);
  summary.tail.value = median(tails);
  summary.rate = median(rates);
  summary.slices = count;
  return summary;
}

std::vector<Metric> end_to_end(const Outcome& out) {
  const auto ms = [](std::vector<double> v) {
    for (double& x : v) x *= 1e3;
    return v;
  };
  const Summary decide =
      out.decide_at_s.empty()
          ? summarise(ms(out.decide_s), {}, out.run_wall_s)
          : summarise(ms(out.decide_s), out.decide_at_s, out.run_wall_s);
  const Summary refresh = summarise(ms(out.refresh_lag_s));
  const Summary follower = summarise(ms(out.follower_lag_s));
  const auto per_slice = [](const Summary& s) {
    return tail_note(s.tail) + (s.slices > 1 ? " per slice" : "") + s.note();
  };
  return {
      {"setup_s", median(out.setup_s), "s",
       "median of " + std::to_string(out.setup_s.size()) + " set-ups"},
      {"decide_p50_ms", decide.p50, "ms",
       std::to_string(out.decide_s.size()) + " decisions" + decide.note()},
      {"decide_tail_ms", decide.tail.value, "ms", per_slice(decide)},
      {"admit_rps", decide.rate, "1/s",
       std::to_string(out.decisions) + " decisions in " +
           json_number(out.run_wall_s) + " s" + decide.note()},
      {"refresh_lag_p50_ms", refresh.p50, "ms",
       std::to_string(out.refresh_lag_s.size()) + " ticks" + refresh.note()},
      {"refresh_lag_tail_ms", refresh.tail.value, "ms", per_slice(refresh)},
      {"follower_lag_p50_ms", follower.p50, "ms",
       std::to_string(out.follower_lag_s.size()) + " ticks" + follower.note()},
      {"follower_lag_tail_ms", follower.tail.value, "ms", per_slice(follower)},
      {"tick_cpu_ms", median(ms(out.tick_cpu_s)), "ms", "median per tick"},
      {"peak_rss_mb", out.peak_rss_mb, "MB", "ru_maxrss after the timed loop"},
  };
}

/// Per-span-name wall/self/CPU samples from every thread's buffer.
struct LayerSamples {
  std::vector<double> self_s;
  std::vector<double> cpu_s;
};

std::map<std::string, LayerSamples> summarise_spans(const Outcome& out,
                                                    long& span_count) {
  std::unordered_map<std::uint64_t, double> child_time;
  span_count = 0;
  for (const auto& buffer : out.spans) {
    for (const SpanRecord& span : buffer) {
      ++span_count;
      if (span.parent != 0) child_time[span.parent] += span.end_s - span.start_s;
    }
  }
  std::map<std::string, LayerSamples> layers;
  for (const auto& buffer : out.spans) {
    for (const SpanRecord& span : buffer) {
      LayerSamples& layer = layers[span.name];
      const auto child = child_time.find(span.id);
      const double children = child == child_time.end() ? 0.0 : child->second;
      layer.self_s.push_back(span.end_s - span.start_s - children);
      layer.cpu_s.push_back(span.cpu_s);
    }
  }
  return layers;
}

std::vector<Metric> per_layer(const Outcome& out) {
  long span_count = 0;
  std::map<std::string, LayerSamples> layers = summarise_spans(out, span_count);
  const auto self = [&](const char* name, double scale) {
    return median(layers[name].self_s) * scale;
  };
  const auto cpu = [&](const char* name, double scale) {
    return median(layers[name].cpu_s) * scale;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double serve_decisions = static_cast<double>(out.serve.decisions);
  return {
      {"monitor.store.write_ms", self("monitor.store.write", 1e3), "ms", ""},
      {"monitor.store.write_cpu_ms", cpu("monitor.store.write", 1e3), "ms", ""},
      {"monitor.store.writes", static_cast<double>(out.writes), "count", ""},
      {"monitor.store.assemble_ms", self("monitor.store.assemble", 1e3), "ms", ""},
      {"monitor.store.assemble_cpu_ms", cpu("monitor.store.assemble", 1e3), "ms", ""},
      {"monitor.store.assemble_mb", assemble_bytes(out.node_count) / 1048576.0,
       "MB_computed", "bytes copied per assemble, from sizes"},
      {"monitor.store.drain_delta_ms", self("monitor.store.drain_delta", 1e3), "ms", ""},
      {"monitor.delta.dirty_nodes", static_cast<double>(out.dirty_nodes), "count", ""},
      {"monitor.delta.dirty_pairs", static_cast<double>(out.dirty_pairs), "count", ""},
      {"monitor.delta_log.append_ms", self("monitor.delta_log.append", 1e3), "ms", ""},
      {"monitor.delta_log.append_cpu_ms", cpu("monitor.delta_log.append", 1e3), "ms", ""},
      {"monitor.delta_log.frame_kb", median(out.frame_kb), "KB", "median frame"},
      {"monitor.delta_log.frames", static_cast<double>(out.frames), "count", ""},
      {"monitor.delta_log.full_frames", static_cast<double>(out.full_frames), "count", ""},
      {"monitor.store.staleness_view_ms", self("monitor.store.staleness_view", 1e3), "ms", ""},
      {"monitor.store.staleness_view_cpu_ms", cpu("monitor.store.staleness_view", 1e3), "ms", ""},
      {"core.broker.refresh_ms", self("core.broker.refresh", 1e3), "ms", ""},
      {"core.broker.refresh_cpu_ms", cpu("core.broker.refresh", 1e3), "ms", ""},
      {"core.broker.incremental_applies", static_cast<double>(out.incremental), "count", ""},
      {"core.broker.incremental_ratio",
       ratio(static_cast<double>(out.incremental), static_cast<double>(out.refreshes)),
       "ratio", "incremental applies / refreshes"},
      {"core.replica.poll_ms", self("core.replica.poll", 1e3), "ms", ""},
      {"core.replica.poll_cpu_ms", cpu("core.replica.poll", 1e3), "ms", ""},
      {"core.epoch.pin_us", self("core.epoch.pin", 1e6), "us", ""},
      {"core.epoch.pin_changes", static_cast<double>(out.pin_changes), "count", ""},
      {"core.broker.decide_ms", self("core.broker.decide", 1e3), "ms", ""},
      {"core.broker.decide_cpu_ms", cpu("core.broker.decide", 1e3), "ms", ""},
      {"core.allocator.generate_ms", median(out.generate_s) * 1e3, "ms",
       "audit stage field"},
      {"core.allocator.select_ms", median(out.select_s) * 1e3, "ms",
       "audit stage field"},
      {"core.broker.wait_ratio",
       ratio(static_cast<double>(out.waits), static_cast<double>(out.decisions)),
       "ratio", ""},
      {"core.serve.decide_us", self("core.serve.decide", 1e6), "us", ""},
      {"core.serve.cache_hit_ratio",
       ratio(static_cast<double>(out.serve.cache_hits), serve_decisions), "ratio", ""},
      {"core.serve.cache_hits", static_cast<double>(out.serve.cache_hits), "count", ""},
      {"core.serve.scoring_passes", static_cast<double>(out.serve.scoring_passes), "count", ""},
      {"core.serve.coalesced", static_cast<double>(out.serve.coalesced), "count", ""},
      {"core.serve.invalidations", static_cast<double>(out.serve.cache_invalidations), "count", ""},
      {"core.serve.replay_cache_hits", static_cast<double>(out.replay_cache_hits), "count",
       "single-client replay, repeats per seed"},
      {"obs.audit.records", static_cast<double>(out.audit_records), "count", ""},
      {"obs.audit.mb", out.audit_bytes / 1048576.0, "MB_computed",
       "record sizes plus their heap strings and vectors"},
      {"bench.tick.self_ms", self("bench.tick", 1e3), "ms", "tick minus its layer calls"},
      {"bench.request.self_us", self("bench.request", 1e6), "us",
       "request minus its layer calls"},
      {"trace.spans", static_cast<double>(span_count), "count", ""},
  };
}

std::string filesystem_of(const std::string& path) {
  struct statfs info{};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

std::string provenance_json(const Args& args, const Outcome& out) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  std::string threads = "{";
  for (const auto& [role, count] : out.threads) {
    if (threads.size() > 1) threads += ", ";
    threads += json_string(role) + ": " + std::to_string(count);
  }
  threads += "}";
  return "{\"num_cpus\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"nproc\": " + std::to_string(nproc) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"ndebug\": true, \"compiler\": " + json_string(__VERSION__) +
         ", \"workload\": " + json_string(args.workload) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + json_number(args.seconds) +
         ", \"trace\": " + (args.trace ? "true" : "false") +
         ", \"V\": " + std::to_string(out.node_count) +
         ", \"threads\": " + threads +
         ", \"log_filesystem\": " + json_string(filesystem_of(args.out_dir)) +
         "}";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-38s %14.4f %-12s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void write_spans(const Args& args, const Outcome& out) {
  const std::string path = args.out_dir + "/spans-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".tsv";
  std::ofstream file(path);
  file << "name\tstart_us\tend_us\tcpu_us\tid\tparent\tunit\n";
  double origin = 0.0;
  for (const auto& buffer : out.spans) {
    for (const SpanRecord& span : buffer) {
      if (origin == 0.0 || span.start_s < origin) origin = span.start_s;
    }
  }
  for (const auto& buffer : out.spans) {
    for (const SpanRecord& span : buffer) {
      file << span.name << '\t' << std::lround((span.start_s - origin) * 1e6)
           << '\t' << std::lround((span.end_s - origin) * 1e6) << '\t'
           << std::lround(span.cpu_s * 1e6) << '\t' << span.id << '\t'
           << span.parent << '\t' << span.unit << '\n';
    }
  }
  std::printf("spans written to %s\n", path.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: nlarm_pipeline_bench --workload "
               "tick_v2048|admit_v256|burst_v256 --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  return 2;
}

int run(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to measure a build without NDEBUG\n");
  return 2;
#endif
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--out-dir") args.out_dir = value;
    else return usage();
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) return usage();
  std::filesystem::create_directories(args.out_dir);
  nlarm::util::set_log_level(nlarm::util::LogLevel::kOff);

  Outcome out;
  if (args.workload == "tick_v2048") out = run_tick(args);
  else if (args.workload == "admit_v256") out = run_admission(args, false);
  else if (args.workload == "burst_v256") out = run_admission(args, true);
  else return usage();

  const long failed = out.exceptions + out.refusals +
                      static_cast<long>(out.mismatches.size());
  // A run whose decisions were all waits would measure nothing.
  const bool gate_open = out.waits < out.decisions;
  const bool correct = failed == 0 && gate_open;
  const std::vector<Metric> e2e = end_to_end(out);
  const std::vector<Metric> layers = args.trace ? per_layer(out)
                                                : std::vector<Metric>{};

  std::printf("workload %s  seed %llu  V=%d  %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), out.node_count,
              args.trace ? "traced" : "untraced");
  const std::string provenance = provenance_json(args, out);
  std::printf("provenance %s\n", provenance.c_str());
  print_metrics("end-to-end:", e2e);
  std::printf("  %-38s %14.4f %-12s %ld exceptions, %ld stale refusals, "
              "%zu mismatches of %ld decisions\n",
              "error_frac",
              static_cast<double>(failed) / static_cast<double>(out.decisions),
              "ratio", out.exceptions, out.refusals, out.mismatches.size(),
              out.decisions);
  std::printf("oracle: %ld checks, %zu mismatches%s\n", out.oracle_checks,
              out.mismatches.size(), gate_open ? "" : "; every decision waited");
  for (std::size_t i = 0; i < out.mismatches.size() && i < 10; ++i) {
    std::printf("  MISMATCH %s\n", out.mismatches[i].c_str());
  }
  if (args.trace) {
    print_metrics("per-layer (traced):", layers);
    write_spans(args, out);
  }
  std::printf("RESULT {\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"run_wall_s\": %s, \"metrics\": %s, \"layers\": %s, "
              "\"provenance\": %s}\n",
              correct ? "true" : "false", out.decisions, failed,
              json_number(out.run_wall_s).c_str(), metrics_json(e2e).c_str(),
              metrics_json(layers).c_str(), provenance.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "nlarm_pipeline_bench: %s\n", error.what());
    return 1;
  }
}
