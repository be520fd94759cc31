// Section 4 of the paper: why a truthful auction and a sybil-proof incentive
// tree cannot simply be composed. These tests reconstruct both
// counterexamples against the naive combination (baselines/naive_combo.h)
// and verify RIT resists the same manipulations.
#include <gtest/gtest.h>

#include <vector>

#include "attack/sybil_apply.h"
#include "attack/sybil_plan.h"
#include "baselines/naive_combo.h"
#include "core/rit.h"
#include "rng/rng.h"
#include "stats/online_stats.h"
#include "tree/builders.h"
#include "tree/incentive_tree.h"

namespace rit {
namespace {

using baselines::run_naive_combo;
using core::Ask;
using core::Job;

// ----- Fig. 2 flavor: auctions break the tree's sybil-proofness -----
//
// Instance: chain platform -> P1 -> P2 -> P3 with truthful asks
// (tau1,2,2), (tau1,1,3), (tau1,1,5); the job needs two tau1 tasks.
// Under the 3rd-price auction P1 wins both tasks at price 3 (pA = 6).
// After P1 splits into P11 (1 task, ask 2) above P12 (1 task, ask 6), the
// clearing price inflates to 5 and P2's winning payment flows into the
// attacker's identities through the tree.

struct Fig2Instance {
  Job job{std::vector<std::uint32_t>{2}};
  std::vector<Ask> truthful{
      {TaskType{0}, 2, 2.0},  // P1 (participant 0)
      {TaskType{0}, 1, 3.0},  // P2 (participant 1)
      {TaskType{0}, 1, 5.0},  // P3 (participant 2)
  };
  tree::IncentiveTree tree = tree::chain_tree(3);
  double attacker_cost = 2.0;
};

TEST(Sec4Fig2, NaiveComboTruthfulBaseline) {
  Fig2Instance f;
  const auto r = run_naive_combo(f.job, f.truthful, f.tree);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.allocation[0], 2u);
  EXPECT_DOUBLE_EQ(r.auction_payment[0], 6.0);  // two tasks at 3rd price 3
  // No descendants won anything, so the tree only doubles the own share.
  EXPECT_DOUBLE_EQ(r.payment[0], 12.0);
}

TEST(Sec4Fig2, NaiveComboSybilAttackProfits) {
  Fig2Instance f;
  // P1 -> {P11 (ask 2, 1 task), P12 child of P11 (ask 6, 1 task)}; P1's
  // child P2 is adopted by the deepest identity.
  attack::SybilPlan plan;
  plan.victim = 0;
  plan.identities = {{1, 2.0, attack::kOriginalParent}, {1, 6.0, 1}};
  plan.child_assignment = {2};
  const auto attacked = attack::apply_sybil(f.tree, f.truthful, plan);

  const auto honest = run_naive_combo(f.job, f.truthful, f.tree);
  const auto after = run_naive_combo(f.job, attacked.asks, attacked.tree);
  ASSERT_TRUE(after.success);
  // The clearing price was manipulated from 3 to 5.
  EXPECT_DOUBLE_EQ(after.auction_payment[0], 5.0);  // P11 wins one task
  EXPECT_DOUBLE_EQ(after.auction_payment[1], 5.0);  // P2 wins the other

  const double honest_utility = honest.utility_of(0, f.attacker_cost);
  double attacked_utility = 0.0;
  for (std::uint32_t p : attacked.identity_participants) {
    attacked_utility += after.utility_of(p, f.attacker_cost);
  }
  // The Sec. 4-A conclusion: the sybil attack strictly profits.
  EXPECT_GT(attacked_utility, honest_utility + 0.5)
      << "honest " << honest_utility << " vs attacked " << attacked_utility;
}

// ----- Fig. 3 flavor: trees break the auction's truthfulness -----
//
// Four sellers of one type with costs 5, 4, 5, 4; the job needs two tasks.
// Truthfully, P1 loses (winners are the two cost-4 users at price 5) and
// earns 0. If P1 shades its bid to 3.9 it wins at price 4 — an auction
// loss of 1 — but the tree's own-contribution amplification (2 * pA) turns
// the deviation into a strict profit.

struct Fig3Instance {
  Job job{std::vector<std::uint32_t>{2}};
  std::vector<Ask> truthful{
      {TaskType{0}, 1, 5.0},  // P1, a leaf in the tree
      {TaskType{0}, 1, 4.0},
      {TaskType{0}, 1, 5.0},
      {TaskType{0}, 1, 4.0},
  };
  tree::IncentiveTree tree = tree::flat_tree(4);
};

TEST(Sec4Fig3, NaiveComboTruthfulGivesZeroToLoser) {
  Fig3Instance f;
  const auto r = run_naive_combo(f.job, f.truthful, f.tree);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.allocation[0], 0u);
  EXPECT_DOUBLE_EQ(r.payment[0], 0.0);
  EXPECT_DOUBLE_EQ(r.utility_of(0, 5.0), 0.0);
}

TEST(Sec4Fig3, NaiveComboOverbidToWinProfits) {
  Fig3Instance f;
  auto shaded = f.truthful;
  shaded[0].value = 3.9;
  const auto r = run_naive_combo(f.job, shaded, f.tree);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.allocation[0], 1u);
  EXPECT_DOUBLE_EQ(r.auction_payment[0], 4.0);
  // Auction utility alone is 4 - 5 = -1 < 0...
  EXPECT_LT(r.auction_payment[0] - 5.0, 0.0);
  // ...but the naive tree pays 2*pA = 8, netting +3: untruthful.
  EXPECT_DOUBLE_EQ(r.payment[0], 8.0);
  EXPECT_GT(r.utility_of(0, 5.0), 0.0);
}

// ----- RIT resists both manipulations (statistically) -----

TEST(Sec4RitContrast, RitPaysTreeRewardWithoutOwnAmplification) {
  // The structural reason Fig. 3 cannot happen under RIT: the final payment
  // adds descendants' contributions but never multiplies one's own auction
  // payment. Winning at a price below cost is therefore a pure loss.
  Fig3Instance f;
  // Under RIT, with any tree, payment[j] - auction_payment[j] depends only
  // on descendants; for a leaf it is exactly zero. The 4-user market
  // allocates in about half of the runs, so check a run of seeds, not one.
  int allocated = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    rng::Rng rng(seed);
    const auto r =
        core::run_rit(f.job, f.truthful, f.tree, core::RitConfig{}, rng);
    allocated += r.success ? 1 : 0;
    for (int j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(r.payment[j], r.auction_payment[j])  // all leaves
          << "seed " << seed;
    }
  }
  EXPECT_GT(allocated, 0);
}

TEST(Sec4RitContrast, PriceManipulationBySybilDoesNotPayUnderRit) {
  // A scaled-up Fig. 2: one type, healthy m_i, attacker with capability 6
  // near the top of a chain of winners. Compare expected attacker utility
  // honest-vs-attack (identities overbid to inflate the price) under RIT.
  rng::Rng setup(17);
  const std::uint32_t n = 300;
  std::vector<Ask> asks;
  for (std::uint32_t j = 0; j < n; ++j) {
    asks.push_back(Ask{TaskType{0},
                       static_cast<std::uint32_t>(setup.uniform_int(1, 3)),
                       setup.uniform_real_left_open(0.0, 10.0)});
  }
  const std::uint32_t attacker = 7;
  asks[attacker] = Ask{TaskType{0}, 6, 2.0};
  const Job job(std::vector<std::uint32_t>{100});
  const auto t = tree::random_recursive_tree(n, 0.1, setup);

  attack::SybilPlan plan;
  plan.victim = attacker;
  // Identity 1 keeps a competitive ask; identity 2 overbids to push the
  // clearing price, mirroring the Fig. 2 manipulation.
  plan.identities = {{3, 2.0, attack::kOriginalParent}, {3, 9.5, 1}};
  const auto kids = t.children(tree::node_of_participant(attacker));
  plan.child_assignment.assign(kids.size(), 2);
  const auto attacked = attack::apply_sybil(t, asks, plan);

  core::RitConfig cfg;
  cfg.round_budget_policy = core::RoundBudgetPolicy::kRunToCompletion;
  stats::OnlineStats honest;
  stats::OnlineStats dishonest;
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t seed = 0x600d + static_cast<std::uint64_t>(trial);
    {
      rng::Rng rng(seed);
      const auto r = core::run_rit(job, asks, t, cfg, rng);
      honest.add(r.utility_of(attacker, 2.0));
    }
    {
      rng::Rng rng(seed);
      const auto r =
          core::run_rit(job, attacked.asks, attacked.tree, cfg, rng);
      dishonest.add(attacked.attacker_utility(r, 2.0));
    }
  }
  const double slack =
      honest.ci95_half_width() + dishonest.ci95_half_width() + 0.1;
  EXPECT_LE(dishonest.mean(), honest.mean() + slack)
      << "honest " << honest.mean() << " vs attack " << dishonest.mean();
}

}  // namespace
}  // namespace rit
