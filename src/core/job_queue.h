// JobQueue: a queued front-end over the ResourceBroker.
//
// The paper's broker answers one request at a time and, under §6's
// extension, may answer "wait". This module closes the loop: waiting jobs
// stay queued and are retried on the next poll. Options cover the two
// behaviours a shared cluster actually needs:
//  * node reservation — queued jobs do not double-book nodes that earlier
//    jobs are still running on (a real shared cluster has no enforcement,
//    but the broker should not *recommend* overlap);
//  * conservative backfill — when the head job cannot start, later jobs
//    that fit may jump it (classic EASY-style backfill restricted to
//    currently-free capacity).
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/broker.h"
#include "sim/rng.h"

namespace nlarm::core {

using JobId = std::int64_t;

struct QueueOptions {
  BrokerPolicy broker;
  bool reserve_nodes = true;
  bool backfill = true;
  /// Give up and reject a job after this many failed attempts (0 = never).
  int max_attempts = 0;
  /// Exponential backoff for wait verdicts: after the k-th failed attempt a
  /// job is not retried for min(base * 2^(k-1), max) seconds, with a
  /// uniform ±jitter fraction so synchronized jobs desynchronize. 0 keeps
  /// the legacy behavior (retry on every poll).
  double backoff_base_s = 0.0;
  double backoff_max_s = 300.0;
  double backoff_jitter = 0.2;  ///< fraction of the delay, in [0, 1)
  std::uint64_t backoff_seed = 0x6a6f62;  ///< jitter stream seed
};

struct QueuedJob {
  JobId id = -1;
  std::string name;
  AllocationRequest request;
  double submit_time = 0.0;
  int attempts = 0;
  double not_before = 0.0;  ///< backoff: skip polls before this time
};

struct StartedJob {
  JobId id = -1;
  std::string name;
  Allocation allocation;
  double submit_time = 0.0;
  double start_time = 0.0;
  double wait_time() const { return start_time - submit_time; }
};

class JobQueue {
 public:
  /// The queue borrows the allocator; it must outlive the queue.
  JobQueue(Allocator& allocator, QueueOptions options = {});

  /// Enqueues a request; returns its job id.
  JobId submit(const std::string& name, const AllocationRequest& request,
               double now);

  /// Attempts to start queued jobs against the snapshot (FIFO, with
  /// optional backfill). Started jobs hold their nodes until release().
  std::vector<StartedJob> poll(const monitor::ClusterSnapshot& snapshot,
                               double now);

  /// Marks a started job finished, freeing its nodes.
  void release(JobId id);

  std::size_t pending() const { return queue_.size(); }
  std::size_t running() const { return running_.size(); }
  int rejected() const { return rejected_; }

  /// Nodes currently reserved by running jobs.
  std::vector<cluster::NodeId> reserved_nodes() const;

  /// Mean wait time of all jobs started so far.
  double mean_wait_time() const;

 private:
  /// Attempts one job; on success registers the reservation.
  std::optional<StartedJob> try_start(
      const QueuedJob& job, const monitor::ClusterSnapshot& snapshot,
      double now);

  /// The post-failure backoff deadline for a job on its (new) attempt count.
  double backoff_deadline(const QueuedJob& job, double now);

  ResourceBroker broker_;
  QueueOptions options_;
  sim::Rng backoff_rng_;
  std::deque<QueuedJob> queue_;
  std::map<JobId, StartedJob> running_;
  JobId next_id_ = 0;
  int rejected_ = 0;
  double wait_sum_ = 0.0;
  std::size_t started_count_ = 0;
};

}  // namespace nlarm::core
