#include "core/job_queue.h"

#include <algorithm>
#include <cmath>

#include "obs/catalog.h"
#include "util/check.h"
#include "util/logging.h"

namespace nlarm::core {

JobQueue::JobQueue(Allocator& allocator, QueueOptions options)
    : broker_(allocator, options.broker),
      options_(options),
      backoff_rng_(options.backoff_seed) {
  NLARM_CHECK(options.max_attempts >= 0) << "negative max attempts";
  NLARM_CHECK(options.backoff_base_s >= 0.0) << "negative backoff base";
  NLARM_CHECK(options.backoff_max_s >= options.backoff_base_s)
      << "backoff max below base";
  NLARM_CHECK(options.backoff_jitter >= 0.0 && options.backoff_jitter < 1.0)
      << "backoff jitter must be in [0, 1)";
}

JobId JobQueue::submit(const std::string& name,
                       const AllocationRequest& request, double now) {
  request.validate();
  QueuedJob job;
  job.id = next_id_++;
  job.name = name;
  job.request = request;
  job.submit_time = now;
  queue_.push_back(std::move(job));
  return queue_.back().id;
}

std::vector<cluster::NodeId> JobQueue::reserved_nodes() const {
  std::vector<cluster::NodeId> reserved;
  for (const auto& [id, job] : running_) {
    reserved.insert(reserved.end(), job.allocation.nodes.begin(),
                    job.allocation.nodes.end());
  }
  std::sort(reserved.begin(), reserved.end());
  reserved.erase(std::unique(reserved.begin(), reserved.end()),
                 reserved.end());
  return reserved;
}

std::optional<StartedJob> JobQueue::try_start(
    const QueuedJob& job, const monitor::ClusterSnapshot& snapshot,
    double now) {
  // The view keeps the parent's version while dropping reserved hosts, so
  // nothing below the broker may treat the version as the state's identity.
  monitor::ClusterSnapshot view = snapshot;
  if (options_.reserve_nodes) {
    for (cluster::NodeId id : reserved_nodes()) {
      view.livehosts[static_cast<std::size_t>(id)] = false;
    }
  }
  if (view.usable_nodes().empty()) return std::nullopt;

  const BrokerDecision decision = broker_.decide(view, job.request);
  if (decision.action != BrokerDecision::Action::kAllocate) {
    NLARM_DEBUG << "job " << job.id << " held: " << decision.reason;
    return std::nullopt;
  }
  StartedJob started;
  started.id = job.id;
  started.name = job.name;
  started.allocation = decision.allocation;
  started.submit_time = job.submit_time;
  started.start_time = now;
  return started;
}

double JobQueue::backoff_deadline(const QueuedJob& job, double now) {
  // Exponent capped well below the double range; the min() against
  // backoff_max_s bounds the delay either way.
  const int exponent = std::min(job.attempts - 1, 32);
  double delay =
      std::min(std::ldexp(options_.backoff_base_s, exponent),
               options_.backoff_max_s);
  if (options_.backoff_jitter > 0.0) {
    delay *= backoff_rng_.uniform(1.0 - options_.backoff_jitter,
                                  1.0 + options_.backoff_jitter);
  }
  return now + delay;
}

std::vector<StartedJob> JobQueue::poll(
    const monitor::ClusterSnapshot& snapshot, double now) {
  std::vector<StartedJob> started;
  bool head_blocked = false;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (head_blocked && !options_.backfill) break;

    // A job inside its backoff window is not attempted (and does not burn
    // an attempt); it still blocks the head for FIFO purposes.
    if (now < it->not_before) {
      head_blocked = true;
      ++it;
      continue;
    }

    std::optional<StartedJob> attempt = try_start(*it, snapshot, now);
    if (attempt.has_value()) {
      running_.emplace(attempt->id, *attempt);
      wait_sum_ += attempt->wait_time();
      ++started_count_;
      started.push_back(std::move(*attempt));
      it = queue_.erase(it);
      continue;
    }

    it->attempts += 1;
    if (options_.max_attempts > 0 && it->attempts >= options_.max_attempts) {
      NLARM_WARN << "job " << it->id << " rejected after " << it->attempts
                 << " attempts";
      ++rejected_;
      it = queue_.erase(it);
      continue;
    }
    if (options_.backoff_base_s > 0.0) {
      it->not_before = backoff_deadline(*it, now);
      obs::metrics::jobqueue_backoffs().inc();
      NLARM_DEBUG << "job " << it->id << " backing off until "
                  << it->not_before << " (attempt " << it->attempts << ")";
    }
    head_blocked = true;
    ++it;
  }
  return started;
}

void JobQueue::release(JobId id) {
  NLARM_CHECK(running_.erase(id) == 1) << "release of unknown job " << id;
}

double JobQueue::mean_wait_time() const {
  if (started_count_ == 0) return 0.0;
  return wait_sum_ / static_cast<double>(started_count_);
}

}  // namespace nlarm::core
