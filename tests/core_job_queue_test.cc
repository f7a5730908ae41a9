#include "core/job_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/baselines.h"
#include "test_helpers.h"
#include "util/check.h"

namespace nlarm::core {
namespace {

using nlarm::testing::TestNode;
using nlarm::testing::idle_nodes;
using nlarm::testing::make_snapshot;

AllocationRequest request_for(int nprocs, int ppn = 4) {
  AllocationRequest req;
  req.nprocs = nprocs;
  req.ppn = ppn;
  req.job = JobWeights::balanced();
  return req;
}

/// Every case that polls a snapshot runs twice: once on unversioned
/// snapshots, once on snapshots stamped the way a MonitorStore stamps them
/// (store id in the high word). The queue's reservation views keep their
/// parent's version while dropping reserved hosts, so any version-keyed
/// state below the queue shows up as a double booking in the stamped run.
class JobQueueTest : public ::testing::Test {
 protected:
  template <typename Body>
  void for_each_version(Body body) {
    for (const std::uint64_t first : {std::uint64_t{0},
                                      (std::uint64_t{1} << 32) | 7}) {
      SCOPED_TRACE(::testing::Message() << "first version " << first);
      next_version_ = first;
      body();
    }
  }

  /// A snapshot over `nodes`, stamped with the run's next version (each
  /// new snapshot gets a fresh one, like successive store assemblies).
  monitor::ClusterSnapshot snapshot(const std::vector<TestNode>& nodes) {
    monitor::ClusterSnapshot snap = make_snapshot(nodes);
    if (next_version_ != 0) snap.version = next_version_++;
    return snap;
  }

  NetworkLoadAwareAllocator allocator_;
  std::uint64_t next_version_ = 0;
};

TEST_F(JobQueueTest, StartsJobImmediatelyWhenClusterFree) {
  for_each_version([&] {
    JobQueue queue(allocator_);
    auto snap = snapshot(idle_nodes(6));
    queue.submit("job-a", request_for(8), 0.0);
    const auto started = queue.poll(snap, 1.0);
    ASSERT_EQ(started.size(), 1u);
    EXPECT_EQ(started[0].name, "job-a");
    EXPECT_DOUBLE_EQ(started[0].wait_time(), 1.0);
    EXPECT_EQ(queue.pending(), 0u);
    EXPECT_EQ(queue.running(), 1u);
  });
}

TEST_F(JobQueueTest, ReservationPreventsDoubleBooking) {
  for_each_version([&] {
    JobQueue queue(allocator_);
    auto snap = snapshot(idle_nodes(4));  // 4 nodes × ppn4 = 16 slots
    queue.submit("a", request_for(8), 0.0);   // 2 nodes
    queue.submit("b", request_for(8), 0.0);   // 2 nodes
    const auto started = queue.poll(snap, 0.0);
    ASSERT_EQ(started.size(), 2u);
    // Disjoint node sets.
    for (cluster::NodeId n : started[0].allocation.nodes) {
      for (cluster::NodeId m : started[1].allocation.nodes) {
        EXPECT_NE(n, m);
      }
    }
    EXPECT_EQ(queue.reserved_nodes().size(), 4u);
  });
}

TEST_F(JobQueueTest, FullClusterQueuesUntilRelease) {
  for_each_version([&] {
    JobQueue queue(allocator_);
    auto snap = snapshot(idle_nodes(2));
    const JobId first = queue.submit("big", request_for(8), 0.0);
    queue.submit("second", request_for(8), 0.0);
    auto started = queue.poll(snap, 0.0);
    ASSERT_EQ(started.size(), 1u);
    EXPECT_EQ(started[0].id, first);
    EXPECT_EQ(queue.pending(), 1u);
    // Still blocked.
    EXPECT_TRUE(queue.poll(snap, 5.0).empty());
    // Free the nodes; the queued job starts.
    queue.release(first);
    started = queue.poll(snap, 10.0);
    ASSERT_EQ(started.size(), 1u);
    EXPECT_EQ(started[0].name, "second");
    EXPECT_DOUBLE_EQ(started[0].wait_time(), 10.0);
  });
}

TEST_F(JobQueueTest, BackfillLetsSmallJobJumpBlockedHead) {
  for_each_version([&] {
    QueueOptions options;
    options.backfill = true;
    JobQueue queue(allocator_, options);
    auto snap = snapshot(idle_nodes(3));
    // Head job needs 3 nodes but 2 are taken; small job fits in 1.
    const JobId runner = queue.submit("runner", request_for(8), 0.0);
    queue.poll(snap, 0.0);
    queue.submit("head-too-big", request_for(8), 1.0);   // needs 2 free, has 1
    queue.submit("small", request_for(4), 1.0);          // needs 1 free
    const auto started = queue.poll(snap, 2.0);
    ASSERT_EQ(started.size(), 1u);
    EXPECT_EQ(started[0].name, "small");
    EXPECT_EQ(queue.pending(), 1u);
    queue.release(runner);
  });
}

TEST_F(JobQueueTest, FifoWithoutBackfill) {
  for_each_version([&] {
    QueueOptions options;
    options.backfill = false;
    JobQueue queue(allocator_, options);
    auto snap = snapshot(idle_nodes(3));
    queue.submit("runner", request_for(8), 0.0);
    queue.poll(snap, 0.0);
    queue.submit("head-too-big", request_for(8), 1.0);
    queue.submit("small", request_for(4), 1.0);
    EXPECT_TRUE(queue.poll(snap, 2.0).empty());  // strict FIFO blocks
    EXPECT_EQ(queue.pending(), 2u);
  });
}

TEST_F(JobQueueTest, MaxAttemptsRejects) {
  for_each_version([&] {
    QueueOptions options;
    options.max_attempts = 2;
    JobQueue queue(allocator_, options);
    std::vector<TestNode> nodes = idle_nodes(2);
    for (auto& n : nodes) n.cpu_load = 50.0;  // broker always says wait
    auto snap = snapshot(nodes);
    queue.submit("doomed", request_for(4), 0.0);
    EXPECT_TRUE(queue.poll(snap, 1.0).empty());
    EXPECT_EQ(queue.rejected(), 0);
    EXPECT_TRUE(queue.poll(snap, 2.0).empty());
    EXPECT_EQ(queue.rejected(), 1);
    EXPECT_EQ(queue.pending(), 0u);
  });
}

TEST_F(JobQueueTest, ReleaseUnknownJobThrows) {
  JobQueue queue(allocator_);
  EXPECT_THROW(queue.release(99), util::CheckError);
}

TEST_F(JobQueueTest, MeanWaitTimeTracked) {
  for_each_version([&] {
    JobQueue queue(allocator_);
    auto snap = snapshot(idle_nodes(4));
    queue.submit("a", request_for(4), 0.0);
    queue.submit("b", request_for(4), 0.0);
    queue.poll(snap, 3.0);
    EXPECT_DOUBLE_EQ(queue.mean_wait_time(), 3.0);
  });
}

TEST_F(JobQueueTest, ReservationCanBeDisabled) {
  for_each_version([&] {
    QueueOptions options;
    options.reserve_nodes = false;
    JobQueue queue(allocator_, options);
    auto snap = snapshot(idle_nodes(2));
    queue.submit("a", request_for(8), 0.0);
    queue.submit("b", request_for(8), 0.0);
    // Without reservations both start (overlapping, like today's unmanaged
    // shared clusters).
    EXPECT_EQ(queue.poll(snap, 0.0).size(), 2u);
  });
}

TEST_F(JobQueueTest, InvalidRequestRejectedAtSubmit) {
  JobQueue queue(allocator_);
  AllocationRequest bad;
  bad.nprocs = 0;
  EXPECT_THROW(queue.submit("bad", bad, 0.0), util::CheckError);
}

namespace backoff {

std::vector<TestNode> loaded_nodes(int n = 2) {
  std::vector<TestNode> nodes = idle_nodes(n);
  for (auto& node : nodes) node.cpu_load = 50.0;  // broker always says wait
  return nodes;
}

QueueOptions backoff_options(double base, double max, double jitter = 0.0) {
  QueueOptions options;
  options.backoff_base_s = base;
  options.backoff_max_s = max;
  options.backoff_jitter = jitter;
  return options;
}

}  // namespace backoff

TEST_F(JobQueueTest, BackoffDisabledByDefaultRetriesEveryPoll) {
  for_each_version([&] {
    QueueOptions options;
    EXPECT_DOUBLE_EQ(options.backoff_base_s, 0.0);  // legacy default
    options.max_attempts = 3;
    JobQueue queue(allocator_, options);
    const auto snap = snapshot(backoff::loaded_nodes());
    queue.submit("doomed", request_for(4), 0.0);
    // Back-to-back polls each burn an attempt: no deferral anywhere.
    EXPECT_TRUE(queue.poll(snap, 0.1).empty());
    EXPECT_TRUE(queue.poll(snap, 0.2).empty());
    EXPECT_TRUE(queue.poll(snap, 0.3).empty());
    EXPECT_EQ(queue.rejected(), 1);
  });
}

TEST_F(JobQueueTest, BackoffDelaysGrowExponentiallyAndCap) {
  for_each_version([&] {
    // base 2 s, cap 8 s, no jitter: deadlines after each failed attempt are
    // t+2, t+4, t+8, t+8... Observed via an idle cluster: the job may be
    // startable, but not before its backoff deadline passes.
    JobQueue queue(allocator_, backoff::backoff_options(2.0, 8.0));
    const auto busy = snapshot(backoff::loaded_nodes());
    const auto idle = snapshot(idle_nodes(2));
    queue.submit("patient", request_for(4), 0.0);

    EXPECT_TRUE(queue.poll(busy, 0.0).empty());   // attempt 1 → wait until 2
    EXPECT_TRUE(queue.poll(idle, 1.9).empty());   // deferred even though free
    EXPECT_TRUE(queue.poll(busy, 2.0).empty());   // attempt 2 → wait until 6
    EXPECT_TRUE(queue.poll(idle, 5.9).empty());
    EXPECT_TRUE(queue.poll(busy, 6.0).empty());   // attempt 3 → wait until 14
    EXPECT_TRUE(queue.poll(idle, 13.9).empty());
    EXPECT_TRUE(queue.poll(busy, 14.0).empty());  // attempt 4 → capped: 22
    EXPECT_TRUE(queue.poll(idle, 21.9).empty());
    const auto started = queue.poll(idle, 22.0);  // deadline passed: starts
    ASSERT_EQ(started.size(), 1u);
    EXPECT_EQ(started[0].name, "patient");
  });
}

TEST_F(JobQueueTest, DeferredPollsDoNotBurnAttempts) {
  for_each_version([&] {
    QueueOptions options = backoff::backoff_options(10.0, 100.0);
    options.max_attempts = 2;
    JobQueue queue(allocator_, options);
    const auto busy = snapshot(backoff::loaded_nodes());
    queue.submit("doomed", request_for(4), 0.0);
    EXPECT_TRUE(queue.poll(busy, 0.0).empty());  // attempt 1 → wait until 10
    // Polls inside the backoff window are free: still not rejected.
    for (double t = 1.0; t < 10.0; t += 1.0) {
      EXPECT_TRUE(queue.poll(busy, t).empty());
    }
    EXPECT_EQ(queue.rejected(), 0);
    EXPECT_EQ(queue.pending(), 1u);
    EXPECT_TRUE(queue.poll(busy, 10.0).empty());  // attempt 2 → rejected
    EXPECT_EQ(queue.rejected(), 1);
  });
}

TEST_F(JobQueueTest, BackoffJitterStaysWithinBounds) {
  for_each_version([&] {
    // base 10 s with ±50% jitter: the deadline lands in [5, 15]. The job
    // must still be deferred right after the failure and must be startable
    // by the upper bound.
    JobQueue queue(allocator_, backoff::backoff_options(10.0, 100.0, 0.5));
    const auto busy = snapshot(backoff::loaded_nodes());
    const auto idle = snapshot(idle_nodes(2));
    queue.submit("jittered", request_for(4), 0.0);
    EXPECT_TRUE(queue.poll(busy, 0.0).empty());
    EXPECT_TRUE(queue.poll(idle, 4.9).empty());      // below the lower bound
    EXPECT_EQ(queue.poll(idle, 15.0).size(), 1u);    // at the upper bound
  });
}

TEST_F(JobQueueTest, BackfillJumpsHeadInBackoff) {
  for_each_version([&] {
    // The head job sits in its backoff window; with backfill on, a later job
    // that fits starts instead of idling the free capacity.
    QueueOptions options = backoff::backoff_options(50.0, 100.0);
    options.backfill = true;
    JobQueue queue(allocator_, options);
    const auto busy = snapshot(backoff::loaded_nodes(3));
    const auto idle = snapshot(idle_nodes(3));
    queue.submit("head", request_for(8), 0.0);
    EXPECT_TRUE(queue.poll(busy, 0.0).empty());  // head → backoff until 50
    queue.submit("small", request_for(4), 1.0);
    const auto started = queue.poll(idle, 2.0);
    ASSERT_EQ(started.size(), 1u);
    EXPECT_EQ(started[0].name, "small");
    EXPECT_EQ(queue.pending(), 1u);  // head still waiting out its backoff
  });
}

TEST_F(JobQueueTest, BackoffOptionsValidated) {
  QueueOptions bad;
  bad.backoff_base_s = -1.0;
  EXPECT_THROW(JobQueue(allocator_, bad), util::CheckError);
  bad = QueueOptions{};
  bad.backoff_base_s = 10.0;
  bad.backoff_max_s = 5.0;  // max < base
  EXPECT_THROW(JobQueue(allocator_, bad), util::CheckError);
  bad = QueueOptions{};
  bad.backoff_jitter = 1.0;  // jitter must stay below 100%
  EXPECT_THROW(JobQueue(allocator_, bad), util::CheckError);
}

}  // namespace
}  // namespace nlarm::core
