#include "core/candidate.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/reference.h"
#include "util/check.h"

namespace nlarm::core {
namespace {

std::vector<std::vector<double>> uniform_nl(std::size_t n, double value) {
  std::vector<std::vector<double>> nl(n, std::vector<double>(n, value));
  for (std::size_t i = 0; i < n; ++i) nl[i][i] = 0.0;
  return nl;
}

TEST(FillProcessesTest, StopsWhenSatisfied) {
  const std::vector<std::size_t> order{2, 0, 1};
  const std::vector<int> pc{4, 4, 4};
  const FillResult fill = fill_processes(order, pc, 6);
  EXPECT_EQ(fill.members, (std::vector<std::size_t>{2, 0}));
  EXPECT_EQ(fill.procs, (std::vector<int>{4, 2}));
}

TEST(FillProcessesTest, ExactFit) {
  const std::vector<std::size_t> order{0, 1};
  const std::vector<int> pc{4, 4};
  const FillResult fill = fill_processes(order, pc, 8);
  EXPECT_EQ(fill.procs, (std::vector<int>{4, 4}));
}

TEST(FillProcessesTest, RoundRobinOverflow) {
  const std::vector<std::size_t> order{0, 1};
  const std::vector<int> pc{2, 2};
  const FillResult fill = fill_processes(order, pc, 9);
  // 2+2 capacity, 5 extra spread round-robin: 0 gets 3 extra, 1 gets 2.
  EXPECT_EQ(fill.procs, (std::vector<int>{5, 4}));
  EXPECT_EQ(std::accumulate(fill.procs.begin(), fill.procs.end(), 0), 9);
}

TEST(FillProcessesTest, InvalidInputsRejected) {
  const std::vector<std::size_t> order{0};
  const std::vector<int> pc{4};
  EXPECT_THROW(fill_processes(order, pc, 0), util::CheckError);
  EXPECT_THROW(fill_processes({}, pc, 4), util::CheckError);
  const std::vector<int> bad_pc{0};
  EXPECT_THROW(fill_processes(order, bad_pc, 4), util::CheckError);
}

TEST(CandidateTest, StartNodeAlwaysFirst) {
  const std::vector<double> cl{0.9, 0.1, 0.5};
  const auto nl = uniform_nl(3, 0.2);
  const std::vector<int> pc{4, 4, 4};
  // Even though node 0 is the most loaded, a candidate started at 0 keeps it.
  const Candidate c =
      generate_candidate(0, cl, nl, pc, 8, JobWeights::balanced());
  ASSERT_GE(c.members.size(), 1u);
  EXPECT_EQ(c.members[0], 0u);
  EXPECT_EQ(c.start_index, 0u);
}

TEST(CandidateTest, PrefersLowAdditionCost) {
  // From start 0: node 1 has lower CL than node 2, equal NL → pick 1.
  const std::vector<double> cl{0.5, 0.1, 0.9};
  const auto nl = uniform_nl(3, 0.2);
  const std::vector<int> pc{4, 4, 4};
  const Candidate c =
      generate_candidate(0, cl, nl, pc, 8, JobWeights::balanced());
  EXPECT_EQ(c.members, (std::vector<std::size_t>{0, 1}));
}

TEST(CandidateTest, NetworkLoadSteersSelection) {
  // Node 1 is lightly loaded but far (high NL from 0); node 2 loaded but
  // close. With β-heavy weights the candidate picks node 2.
  const std::vector<double> cl{0.1, 0.1, 0.4};
  auto nl = uniform_nl(3, 0.0);
  nl[0][1] = nl[1][0] = 0.9;
  nl[0][2] = nl[2][0] = 0.05;
  const std::vector<int> pc{4, 4, 4};
  const Candidate comm = generate_candidate(0, cl, nl, pc, 8,
                                            JobWeights{0.1, 0.9});
  EXPECT_EQ(comm.members, (std::vector<std::size_t>{0, 2}));
  const Candidate comp = generate_candidate(0, cl, nl, pc, 8,
                                            JobWeights{0.9, 0.1});
  EXPECT_EQ(comp.members, (std::vector<std::size_t>{0, 1}));
}

TEST(CandidateTest, ProcsSumToRequest) {
  const std::vector<double> cl{0.1, 0.2, 0.3, 0.4};
  const auto nl = uniform_nl(4, 0.1);
  const std::vector<int> pc{4, 4, 4, 4};
  for (int n : {1, 3, 4, 9, 16, 40}) {
    const Candidate c =
        generate_candidate(1, cl, nl, pc, n, JobWeights::balanced());
    EXPECT_EQ(std::accumulate(c.procs.begin(), c.procs.end(), 0), n);
    EXPECT_EQ(c.total_procs, n);
  }
}

TEST(CandidateTest, AllCandidatesGenerated) {
  const std::vector<double> cl{0.1, 0.2, 0.3};
  const auto nl = uniform_nl(3, 0.1);
  const std::vector<int> pc{2, 2, 2};
  const auto candidates =
      generate_all_candidates(cl, nl, pc, 4, JobWeights::balanced());
  ASSERT_EQ(candidates.size(), 3u);
  for (std::size_t v = 0; v < 3; ++v) {
    EXPECT_EQ(candidates[v].start_index, v);
    EXPECT_EQ(candidates[v].members[0], v);
  }
}

TEST(CandidateTest, DeterministicTieBreakByIndex) {
  const std::vector<double> cl{0.5, 0.5, 0.5};
  const auto nl = uniform_nl(3, 0.5);
  const std::vector<int> pc{4, 4, 4};
  const Candidate c =
      generate_candidate(2, cl, nl, pc, 12, JobWeights::balanced());
  // Ties resolved by ascending index after the start node.
  EXPECT_EQ(c.members, (std::vector<std::size_t>{2, 0, 1}));
}

TEST(CandidateTest, ZeroCostTieKeepsStartFirst) {
  // An idle homogeneous cluster has CL = 0 on every node, so with β = 0
  // every node ties with the start node at addition cost 0. The start node
  // stays member 0 and the rest follow by index, from every start.
  const std::size_t n = 6;
  const std::vector<double> cl(n, 0.0);
  const auto nl = uniform_nl(n, 0.3);
  const std::vector<int> pc(n, 4);
  const JobWeights compute_only{1.0, 0.0};
  for (std::size_t v = 0; v < n; ++v) {
    SCOPED_TRACE(::testing::Message() << "start " << v);
    std::vector<std::size_t> want{v};
    for (std::size_t u = 0; want.size() < 3; ++u) {
      if (u != v) want.push_back(u);
    }
    const Candidate fast = generate_candidate(v, cl, nl, pc, 12, compute_only);
    EXPECT_EQ(fast.members, want);
    EXPECT_EQ(fast.procs, (std::vector<int>{4, 4, 4}));
    EXPECT_EQ(
        reference::generate_candidate(v, cl, nl, pc, 12, compute_only).members,
        want);
  }
}

TEST(CandidateTest, SizeMismatchRejected) {
  const std::vector<double> cl{0.1, 0.2};
  const auto nl = uniform_nl(3, 0.1);
  const std::vector<int> pc{2, 2};
  EXPECT_THROW(
      generate_candidate(0, cl, nl, pc, 2, JobWeights::balanced()),
      util::CheckError);
  const auto nl2 = uniform_nl(2, 0.1);
  EXPECT_THROW(
      generate_candidate(5, cl, nl2, pc, 2, JobWeights::balanced()),
      util::CheckError);
}

TEST(CandidateTest, AlphaBetaMustSumToOne) {
  const std::vector<double> cl{0.1, 0.2};
  const auto nl = uniform_nl(2, 0.1);
  const std::vector<int> pc{2, 2};
  EXPECT_THROW(
      generate_candidate(0, cl, nl, pc, 2, JobWeights{0.5, 0.9}),
      util::CheckError);
}

}  // namespace
}  // namespace nlarm::core
