#include "core/candidate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>

#include "core/prepared.h"
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

// --- The select's kernels (core::simd): dispatched vs scalar reference ---

/// A row of addition costs and capacities: costs over a few decades, pc in
/// 0..5 with about one node in six drained.
struct KernelRow {
  std::vector<double> cost;
  std::vector<int> pc;
};

KernelRow kernel_row(std::size_t n, std::uint64_t seed) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  KernelRow row;
  for (std::size_t u = 0; u < n; ++u) {
    const double unit = static_cast<double>(next() >> 11) * 0x1.0p-53;
    row.cost.push_back(unit * std::pow(10.0, static_cast<double>(u % 5) - 2));
    row.pc.push_back(static_cast<int>(next() % 6));
  }
  return row;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The dispatched kernels against the scalar references on one row from one
/// start: the same range, the same bucket codes at the generation's scale
/// and at a narrow one that clamps at both ends, the same survivors for
/// every keep.
void check_select_kernels(const KernelRow& row, std::size_t start) {
  SCOPED_TRACE(::testing::Message() << "n=" << row.cost.size()
                                    << " start=" << start << " kernel "
                                    << simd::active_kernel_name());
  const simd::CostRange want =
      simd::cost_range_scalar(row.cost, row.pc, start);
  const simd::CostRange got = simd::cost_range(row.cost, row.pc, start);
  EXPECT_EQ(bits(got.lo), bits(want.lo));
  EXPECT_EQ(bits(got.hi), bits(want.hi));
  EXPECT_EQ(got.negative_capacity, want.negative_capacity);

  double scale = want.hi > want.lo ? 255.0 / (want.hi - want.lo) : 0.0;
  if (!std::isfinite(scale)) scale = 0.0;
  const std::size_t n = row.cost.size();
  for (const auto& [lo, s] : {std::pair{want.lo, scale},
                              std::pair{0.01, 2000.0}}) {
    std::vector<std::uint16_t> want_codes(n);
    std::vector<std::uint16_t> got_codes(n);
    simd::bucket_codes_scalar(row.cost, row.pc, start, lo, s, want_codes);
    simd::bucket_codes(row.cost, row.pc, start, lo, s, got_codes);
    EXPECT_EQ(got_codes, want_codes) << "lo=" << lo << " scale=" << s;
    EXPECT_EQ(want_codes[start], simd::kCostBuckets);
    for (const std::size_t keep : {0, 1, 7, 128, 255, 256}) {
      std::vector<std::size_t> want_survivors{start};
      std::vector<std::size_t> got_survivors{start};
      simd::collect_survivors_scalar(want_codes, keep, want_survivors);
      simd::collect_survivors(got_codes, keep, got_survivors);
      EXPECT_EQ(got_survivors, want_survivors) << "keep=" << keep;
    }
  }
}

// Row lengths around the 4-, 8- and 16-lane vector widths, so every tail
// length occurs, with the start node everywhere (in a vector body and in a
// tail, on either side of it) and drained nodes in bodies and tails.
TEST(SelectKernelTest, MatchScalarAtEveryTailLength) {
  for (const std::size_t n : {1, 3, 7, 15, 17, 31, 33, 257}) {
    const KernelRow row = kernel_row(n, n);
    for (std::size_t start = 0; start < n; ++start) {
      check_select_kernels(row, start);
    }
  }
}

TEST(SelectKernelTest, EqualCostsNaNAndInfinity) {
  for (const std::size_t n : {7, 17, 33, 257}) {
    KernelRow row = kernel_row(n, 100 + n);
    // hi == lo: every costed node in bucket 0.
    KernelRow flat = row;
    std::fill(flat.cost.begin(), flat.cost.end(), 0.25);
    check_select_kernels(flat, 0);
    check_select_kernels(flat, n - 1);
    // A NaN cost in a body and in the tail is passed over by the range.
    row.pc[1] = row.pc[n - 2] = 3;
    row.cost[1] = row.cost[n - 2] = std::numeric_limits<double>::quiet_NaN();
    check_select_kernels(row, 0);
    check_select_kernels(row, n / 2);
    // An infinite cost widens the range to infinity: the scale becomes 0.
    row.cost[n / 3] = std::numeric_limits<double>::infinity();
    row.pc[n / 3] = 2;
    check_select_kernels(row, 0);
    row.cost[n - 1] = -std::numeric_limits<double>::infinity();
    row.pc[n - 1] = 1;
    check_select_kernels(row, 0);
    // Every other node drained: an empty range.
    KernelRow drained = kernel_row(n, 200 + n);
    std::fill(drained.pc.begin(), drained.pc.end(), 0);
    drained.pc[n / 2] = 4;
    check_select_kernels(drained, n / 2);
  }
}

TEST(SelectKernelTest, NegativeCapacityFlaggedAndNamedAsBefore) {
  const std::size_t n = 33;
  const KernelRow row = kernel_row(n, 7);
  const std::vector<double> cl(row.cost.begin(), row.cost.end());
  const auto nl = uniform_nl(n, 0.2);
  // The first negative entry is named, with the check's expression as
  // before the kernels. From start 17 entry 4 lies in a vector body and
  // entry 32 in a tail; from start 0 both lie in bodies.
  for (const auto& [body, tail, named] :
       {std::tuple{-3, 0, -3}, std::tuple{0, -7, -7}, std::tuple{-3, -7, -3}}) {
    std::vector<int> pc(n, 2);
    pc[4] = body;
    pc[32] = tail;
    for (const std::size_t start : {0, 17}) {
      KernelRow negative{row.cost, pc};
      check_select_kernels(negative, start);
      EXPECT_TRUE(simd::cost_range(row.cost, pc, start).negative_capacity);
      try {
        generate_candidate(start, cl, nl, pc, 8, JobWeights::balanced());
        ADD_FAILURE() << "negative capacity accepted";
      } catch (const util::CheckError& error) {
        const std::string what = error.what();
        const std::string message =
            " — node with negative capacity " + std::to_string(named);
        EXPECT_NE(what.find("NLARM_CHECK failed: (pc[u] >= 0) at "),
                  std::string::npos)
            << what;
        ASSERT_GE(what.size(), message.size()) << what;
        EXPECT_EQ(what.substr(what.size() - message.size()), message);
      }
    }
  }
}

}  // namespace
}  // namespace nlarm::core
