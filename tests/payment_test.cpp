#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "core/payment.h"
#include "rng/rng.h"
#include "tree/builders.h"

namespace rit::core {
namespace {

// platform -> {P1, P2}, P1 -> {P3, P4}, P4 -> {P5} (participants 0..4).
tree::IncentiveTree example_tree() {
  return tree::IncentiveTree({0, 0, 0, 1, 1, 4});
}

TEST(PaymentReference, HandComputedExample) {
  const auto t = example_tree();
  // Participants:      0        1        2        3        4
  // Node:              1        2        3        4        5
  // Depth:             1        1        2        2        3
  const std::vector<TaskType> types{TaskType{0}, TaskType{1}, TaskType{1},
                                    TaskType{1}, TaskType{0}};
  const std::vector<double> pa{10.0, 20.0, 8.0, 4.0, 16.0};
  const auto p = tree_payments_reference(t, types, pa, 0.5);
  // P1 (participant 0, type 0) collects from descendants P3 (t1, depth 2),
  // P4 (t1, depth 2), P5 (t0, depth 3 — same type, excluded):
  EXPECT_DOUBLE_EQ(p[0], 10.0 + 0.25 * 8.0 + 0.25 * 4.0);
  // P2 (participant 1) is a leaf.
  EXPECT_DOUBLE_EQ(p[1], 20.0);
  // P3 leaf.
  EXPECT_DOUBLE_EQ(p[2], 8.0);
  // P4 (type 1) collects from P5 (type 0, depth 3).
  EXPECT_DOUBLE_EQ(p[3], 4.0 + 0.125 * 16.0);
  EXPECT_DOUBLE_EQ(p[4], 16.0);
}

TEST(PaymentReference, SameTypeDescendantsNeverContribute) {
  const auto t = tree::chain_tree(4);
  const std::vector<TaskType> types(4, TaskType{0});
  const std::vector<double> pa{1.0, 2.0, 4.0, 8.0};
  const auto p = tree_payments_reference(t, types, pa, 0.5);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(p[i], pa[i]) << "participant " << i;
  }
}

TEST(PaymentReference, AbsoluteDepthWeighting) {
  // Chain: P0 (depth1, t0) <- P1 (depth2, t1). P0 gets (1/2)^2 * pa1, i.e.
  // the contributor's absolute depth, not the relative distance 1.
  const auto t = tree::chain_tree(2);
  const std::vector<TaskType> types{TaskType{0}, TaskType{1}};
  const std::vector<double> pa{0.0, 12.0};
  const auto p = tree_payments_reference(t, types, pa, 0.5);
  EXPECT_DOUBLE_EQ(p[0], 0.25 * 12.0);
}

TEST(PaymentReference, FlatTreeIsAuctionOnly) {
  const auto t = tree::flat_tree(6);
  const std::vector<TaskType> types(6, TaskType{0});
  std::vector<double> pa;
  for (int i = 0; i < 6; ++i) pa.push_back(i * 1.5);
  EXPECT_EQ(tree_payments_reference(t, types, pa, 0.5), pa);
}

TEST(PaymentReference, ConfigurableBase) {
  const auto t = tree::chain_tree(2);
  const std::vector<TaskType> types{TaskType{0}, TaskType{1}};
  const std::vector<double> pa{0.0, 27.0};
  const auto p = tree_payments_reference(t, types, pa, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(p[0], 27.0 / 9.0);
}

TEST(PaymentFast, MatchesReferenceOnExample) {
  const auto t = example_tree();
  const std::vector<TaskType> types{TaskType{0}, TaskType{1}, TaskType{1},
                                    TaskType{1}, TaskType{0}};
  const std::vector<double> pa{10.0, 20.0, 8.0, 4.0, 16.0};
  EXPECT_EQ(tree_payments(t, types, pa, 0.5),
            tree_payments_reference(t, types, pa, 0.5));
}

TEST(PaymentFast, MatchesReferenceOnRandomTrees) {
  rng::Rng rng(100);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.uniform_index(200));
    const auto t = tree::random_recursive_tree(n, 0.2, rng);
    const auto num_types =
        static_cast<std::uint32_t>(1 + rng.uniform_index(6));
    std::vector<TaskType> types;
    std::vector<double> pa;
    for (std::uint32_t i = 0; i < n; ++i) {
      types.push_back(
          TaskType{static_cast<std::uint32_t>(rng.uniform_index(num_types))});
      pa.push_back(rng.bernoulli(0.3) ? 0.0
                                      : rng.uniform_real_left_open(0.0, 50.0));
    }
    const auto fast = tree_payments(t, types, pa, 0.5);
    const auto ref = tree_payments_reference(t, types, pa, 0.5);
    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_NEAR(fast[i], ref[i], 1e-9 * (1.0 + std::abs(ref[i])))
          << "trial " << trial << " participant " << i;
    }
  }
}

TEST(PaymentFast, MatchesReferenceOnDeepChain) {
  // Depths in the thousands: the discount underflows to exactly 0.0 and the
  // two implementations must agree bit-for-bit on that.
  const std::uint32_t n = 2000;
  const auto t = tree::chain_tree(n);
  std::vector<TaskType> types;
  std::vector<double> pa;
  for (std::uint32_t i = 0; i < n; ++i) {
    types.push_back(TaskType{i % 2});
    pa.push_back(1.0);
  }
  const auto fast = tree_payments(t, types, pa, 0.5);
  const auto ref = tree_payments_reference(t, types, pa, 0.5);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(fast[i], ref[i], 1e-12) << i;
  }
}

TEST(PaymentFast, PaymentsAtLeastAuctionPayments) {
  rng::Rng rng(200);
  const auto t = tree::random_recursive_tree(300, 0.1, rng);
  std::vector<TaskType> types;
  std::vector<double> pa;
  for (std::uint32_t i = 0; i < 300; ++i) {
    types.push_back(
        TaskType{static_cast<std::uint32_t>(rng.uniform_index(4))});
    pa.push_back(rng.uniform01() * 10.0);
  }
  const auto p = tree_payments(t, types, pa, 0.5);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_GE(p[i], pa[i]);
  }
}

TEST(PaymentFast, BudgetBoundPremiumAtMostTotalAuctionPayment) {
  // Sec. 7-C: sum(p_j - p_j^A) <= sum(p_j^A). Each contributor i at depth
  // r_i >= 1 feeds at most (r_i - 1) ancestors a share of (1/2)^(r_i) each,
  // totalling < p_i^A.
  rng::Rng rng(300);
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = static_cast<std::uint32_t>(2 + rng.uniform_index(400));
    const auto t = tree::random_recursive_tree(n, 0.05, rng);
    std::vector<TaskType> types;
    std::vector<double> pa;
    double total_pa = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      types.push_back(
          TaskType{static_cast<std::uint32_t>(rng.uniform_index(5))});
      pa.push_back(rng.uniform01() * 10.0);
      total_pa += pa.back();
    }
    const auto p = tree_payments(t, types, pa, 0.5);
    EXPECT_LE(solicitation_premium(p, pa), total_pa + 1e-9);
  }
}

TEST(PaymentFast, EmptyTreeNoParticipants) {
  const auto t = tree::IncentiveTree::root_only();
  EXPECT_TRUE(tree_payments(t, {}, {}, 0.5).empty());
}

TEST(Payment, RejectsBadInputs) {
  const auto t = tree::flat_tree(2);
  const std::vector<TaskType> types{TaskType{0}, TaskType{0}};
  const std::vector<double> pa{1.0, 1.0};
  EXPECT_THROW(tree_payments(t, types, std::vector<double>{1.0}, 0.5),
               CheckFailure);
  EXPECT_THROW(tree_payments(t, types, pa, 0.0), CheckFailure);
  EXPECT_THROW(tree_payments(t, types, pa, 1.0), CheckFailure);
  const std::vector<TaskType> too_few{TaskType{0}};
  EXPECT_THROW(tree_payments(t, too_few, pa, 0.5), CheckFailure);
}

TEST(PaymentFast, IsLinearInAuctionPayments) {
  // p = pA + W * pA for a fixed weight matrix W determined by (tree, types,
  // base): scaling pA scales the payments, and payments of a sum are the
  // sum of payments. Catches any accidental nonlinearity (clamps, etc.).
  rng::Rng rng(400);
  const std::uint32_t n = 120;
  const auto t = tree::random_recursive_tree(n, 0.2, rng);
  std::vector<TaskType> types;
  std::vector<double> a(n);
  std::vector<double> b(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    types.push_back(
        TaskType{static_cast<std::uint32_t>(rng.uniform_index(3))});
    a[i] = rng.uniform01() * 5.0;
    b[i] = rng.uniform01() * 7.0;
  }
  const auto pa = tree_payments(t, types, a, 0.5);
  const auto pb = tree_payments(t, types, b, 0.5);
  std::vector<double> sum(n);
  std::vector<double> scaled(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    sum[i] = a[i] + b[i];
    scaled[i] = 3.0 * a[i];
  }
  const auto psum = tree_payments(t, types, sum, 0.5);
  const auto pscaled = tree_payments(t, types, scaled, 0.5);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_NEAR(psum[i], pa[i] + pb[i], 1e-9 * (1.0 + psum[i]));
    EXPECT_NEAR(pscaled[i], 3.0 * pa[i], 1e-9 * (1.0 + pscaled[i]));
  }
}

// FNV-1a over the bit pattern of every payment, so a moved ulp or a flipped
// zero sign changes the digest.
std::uint64_t payment_digest(const std::vector<double>& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double x : p) {
    const auto v = std::bit_cast<std::uint64_t>(x);
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

struct DigestCase {
  const char* name;
  tree::IncentiveTree tree;
  std::vector<TaskType> types;
  std::vector<double> pa;
  std::uint64_t digest;
};

// Random recursive tree over 6 types in which each participant won with
// probability `contributors`; `signed_zeros` makes every loser's payment
// -0.0 instead of +0.0.
DigestCase random_case(const char* name, double contributors,
                       bool signed_zeros, std::uint64_t digest) {
  rng::Rng rng(4242);
  const std::uint32_t n = 20000;
  DigestCase c{name, tree::random_recursive_tree(n, 0.02, rng), {}, {},
               digest};
  for (std::uint32_t i = 0; i < n; ++i) {
    c.types.push_back(
        TaskType{static_cast<std::uint32_t>(rng.uniform_index(6))});
    c.pa.push_back(rng.bernoulli(contributors)
                       ? rng.uniform_real_left_open(0.0, 50.0)
                       : (signed_zeros ? -0.0 : 0.0));
  }
  return c;
}

TEST(PaymentFast, OutputBytesArePinned) {
  // The payment pass may get faster but must keep producing these exact
  // bytes at every thread count: payments feed the budget checks and the
  // bench CSVs, so "close" is not enough.
  std::vector<DigestCase> cases;
  cases.push_back(
      random_case("random 1%", 0.01, false, 0x07466ab722187f71ULL));
  cases.push_back(
      random_case("random 30%", 0.30, false, 0x1f8b393ddf2690c9ULL));
  cases.push_back(
      random_case("random 100%", 1.0, false, 0xc05879c4a286f3c6ULL));
  cases.push_back(random_case("random 30%, -0.0 losers", 0.30, true,
                              0xa7860ed9145cf8c9ULL));
  cases.push_back(random_case("all zero", 0.0, false, 0x5d221d5070447725ULL));
  {
    // Star: one hub under the root, every other participant its leaf.
    const std::uint32_t n = 5000;
    std::vector<std::uint32_t> parents(n + 1, 1);
    parents[0] = 0;
    parents[1] = 0;
    DigestCase c{"star", tree::IncentiveTree(parents), {}, {},
                 0x0affa580a4c51f87ULL};
    rng::Rng rng(77);
    for (std::uint32_t i = 0; i < n; ++i) {
      c.types.push_back(TaskType{i % 3});
      c.pa.push_back(rng.uniform_real_left_open(0.0, 10.0));
    }
    cases.push_back(std::move(c));
  }
  {
    // 2000-deep chain: every discount past depth ~1075 underflows to 0.0,
    // so the deep winners contribute nothing.
    const std::uint32_t n = 2000;
    DigestCase c{"deep chain", tree::chain_tree(n), {}, {},
                 0xd7c826c316ca889fULL};
    for (std::uint32_t i = 0; i < n; ++i) {
      c.types.push_back(TaskType{i % 2});
      c.pa.push_back(1.0);
    }
    cases.push_back(std::move(c));
  }
  // One workspace per thread count, reused across all cases twice, so
  // state left over from a differently shaped run is exercised too.
  for (unsigned threads : {1u, 2u, 4u}) {
    PaymentWorkspace ws;
    std::vector<double> out;
    for (int pass = 0; pass < 2; ++pass) {
      for (const DigestCase& c : cases) {
        tree_payments_into(c.tree, c.types, c.pa, 0.5, threads, ws, out);
        EXPECT_EQ(payment_digest(out), c.digest)
            << c.name << " threads=" << threads << " digest 0x" << std::hex
            << payment_digest(out);
      }
    }
  }
}

TEST(Payment, SolicitationPremiumComputation) {
  const std::vector<double> p{5.0, 3.0};
  const std::vector<double> pa{4.0, 3.0};
  EXPECT_DOUBLE_EQ(solicitation_premium(p, pa), 1.0);
}

}  // namespace
}  // namespace rit::core
