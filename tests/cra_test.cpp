#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/cra.h"
#include "rng/rng.h"
#include "stats/chi_square.h"

namespace rit::core {
namespace {

// A unit book's round: every ask is its own run of count 1, so run r in
// the winner list means unit ask r won one task.
struct UnitOutcome : CraOutcome {
  std::vector<bool> won;
};

UnitOutcome run_units(std::span<const double> asks, const CraParams& params,
                      rng::Rng& rng, CraWorkspace& ws) {
  const std::vector<std::uint32_t> counts(asks.size(), 1);
  UnitOutcome out;
  run_cra(asks, counts, params, rng, ws, out);
  out.won.assign(asks.size(), false);
  for (const RunSlice& w : out.winners) {
    EXPECT_EQ(w.units, 1u);
    out.won[w.run] = true;
  }
  return out;
}

UnitOutcome run_units(std::span<const double> asks, const CraParams& params,
                      rng::Rng& rng) {
  CraWorkspace ws;
  return run_units(asks, params, rng, ws);
}

std::uint32_t count_winners(const UnitOutcome& o) {
  std::uint32_t c = 0;
  for (bool w : o.won) c += w ? 1 : 0;
  return c;
}

TEST(ConsensusRoundDown, ZeroCountIsZero) {
  EXPECT_EQ(consensus_round_down(0, 0.3), 0u);
}

TEST(ConsensusRoundDown, ExactPowersWithYZero) {
  // With y = 0 the consensus set is exactly the powers of two.
  EXPECT_EQ(consensus_round_down(1, 0.0), 1u);
  EXPECT_EQ(consensus_round_down(2, 0.0), 2u);
  EXPECT_EQ(consensus_round_down(3, 0.0), 2u);
  EXPECT_EQ(consensus_round_down(4, 0.0), 4u);
  EXPECT_EQ(consensus_round_down(1023, 0.0), 512u);
  EXPECT_EQ(consensus_round_down(1024, 0.0), 1024u);
}

TEST(ConsensusRoundDown, ValueIsInConsensusSetAndBelowCount) {
  rng::Rng rng(1);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t count = 1 + rng.uniform_u64(100000);
    const double y = rng.uniform01();
    const std::uint64_t v = consensus_round_down(count, y);
    EXPECT_LE(v, count);
    if (v == 0) {
      // Only possible when 2^(z+y) < 1 for the maximal feasible z, i.e.
      // count == 1 and y > 0.
      EXPECT_EQ(count, 1u);
      EXPECT_GT(y, 0.0);
      continue;
    }
    // v = floor(2^(z+y)) for some integer z; recover z and verify both
    // sides of the maximality condition.
    const double exact = std::log2(static_cast<double>(count));
    const double z = std::floor(exact - y);
    EXPECT_EQ(v, static_cast<std::uint64_t>(std::floor(std::exp2(z + y))));
    EXPECT_GT(std::exp2(z + 1.0 + y), static_cast<double>(count) * (1 - 1e-12));
  }
}

TEST(ConsensusRoundDown, HalvingBoundsTheRatio) {
  // The consensus value is within a factor 2 of the count: count/2 < 2^(z+y+1)/2 <= v...
  // precisely: v > count/2 - 1 (floor effects aside, 2^(z+y) > count/2).
  rng::Rng rng(2);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::uint64_t count = 2 + rng.uniform_u64(1 << 20);
    const double y = rng.uniform01();
    const std::uint64_t v = consensus_round_down(count, y);
    EXPECT_GT(static_cast<double>(v) + 1.0, static_cast<double>(count) / 2.0);
  }
}

TEST(ConsensusRoundDown, GeneralGridBases) {
  // Base 4, y = 0: the grid is {.., 1, 4, 16, 64, ..}.
  EXPECT_EQ(consensus_round_down(1, 0.0, 4.0), 1u);
  EXPECT_EQ(consensus_round_down(3, 0.0, 4.0), 1u);
  EXPECT_EQ(consensus_round_down(4, 0.0, 4.0), 4u);
  EXPECT_EQ(consensus_round_down(63, 0.0, 4.0), 16u);
  EXPECT_EQ(consensus_round_down(64, 0.0, 4.0), 64u);
  // Worst-case rounding loss is a factor of the base: value in
  // (count/base, count]. And averaged over y, the finer base-1.5 grid
  // keeps strictly more of the count than base 4 (pointwise comparison
  // does NOT hold — the grids are differently aligned per y).
  rng::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t count = 10 + rng.uniform_u64(100000);
    const double y = rng.uniform01();
    for (double base : {1.5, 4.0}) {
      const std::uint64_t v = consensus_round_down(count, y, base);
      EXPECT_LE(v, count);
      EXPECT_GT(static_cast<double>(v) + 1.0,
                static_cast<double>(count) / base);
    }
  }
  double kept15 = 0.0;
  double kept4 = 0.0;
  const int grid = 512;
  for (int i = 0; i < grid; ++i) {
    const double y = (i + 0.5) / grid;
    kept15 += static_cast<double>(consensus_round_down(100000, y, 1.5));
    kept4 += static_cast<double>(consensus_round_down(100000, y, 4.0));
  }
  EXPECT_GT(kept15, kept4);
  EXPECT_THROW(consensus_round_down(10, 0.5, 1.0), CheckFailure);
}

TEST(ConsensusRoundDown, LargerBasesShrinkCoalitionInfluence) {
  // The trade-off the grid base buys: measure of y where a k-shift flips
  // the consensus is log_c(z/(z-k)), decreasing in c.
  const std::uint64_t z = 5000;
  const std::uint64_t k = 100;
  auto measure = [&](double base) {
    const int grid = 4096;
    int changed = 0;
    for (int i = 0; i < grid; ++i) {
      const double y = (i + 0.5) / grid;
      if (consensus_round_down(z, y, base) !=
          consensus_round_down(z - k, y, base)) {
        ++changed;
      }
    }
    return static_cast<double>(changed) / grid;
  };
  const double m2 = measure(2.0);
  const double m8 = measure(8.0);
  EXPECT_LT(m8, m2);
  EXPECT_LE(m2, std::log2(static_cast<double>(z) / (z - k)) + 2.0 / 4096);
  EXPECT_LE(m8, std::log(static_cast<double>(z) / (z - k)) / std::log(8.0) +
                    2.0 / 4096);
}

TEST(ConsensusRoundDown, CoalitionInfluenceMeasureMatchesLemma62) {
  // The heart of Lemma 6.2: a coalition that adds/removes up to k of the
  // asks below the threshold shifts the raw count within [z-k, z]; the
  // consensus value only changes on a set of y of measure at most
  // log2(z / (z-k)). Evaluate the measure exactly-ish on a fine y-grid.
  rng::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t z = 200 + rng.uniform_u64(100000);
    const std::uint64_t k = 1 + rng.uniform_u64(z / 20);  // k <= z/20
    const int grid = 4096;
    int changed = 0;
    for (int i = 0; i < grid; ++i) {
      const double y = (i + 0.5) / grid;
      if (consensus_round_down(z, y) != consensus_round_down(z - k, y)) {
        ++changed;
      }
    }
    const double measure = static_cast<double>(changed) / grid;
    const double bound = std::log2(static_cast<double>(z) /
                                   static_cast<double>(z - k));
    EXPECT_LE(measure, bound + 2.0 / grid)
        << "z=" << z << " k=" << k << " measure=" << measure
        << " bound=" << bound;
  }
}

TEST(Cra, EmptyAsksNoWinners) {
  rng::Rng rng(3);
  const UnitOutcome o = run_units({}, {.q = 5, .m_i = 5}, rng);
  EXPECT_EQ(o.num_winners, 0u);
  EXPECT_TRUE(o.won.empty());
}

TEST(Cra, ZeroTasksNoWinners) {
  rng::Rng rng(4);
  const std::vector<double> asks{1.0, 2.0, 3.0};
  const UnitOutcome o = run_units(asks, {.q = 0, .m_i = 5}, rng);
  EXPECT_EQ(count_winners(o), 0u);
}

TEST(Cra, NeverAllocatesMoreThanQ) {
  rng::Rng rng(5);
  std::vector<double> asks;
  for (int i = 0; i < 500; ++i) asks.push_back(0.1 + 0.01 * i);
  for (int trial = 0; trial < 200; ++trial) {
    const UnitOutcome o = run_units(asks, {.q = 7, .m_i = 10}, rng);
    EXPECT_LE(count_winners(o), 7u);
    EXPECT_EQ(count_winners(o), o.num_winners);
  }
}

TEST(Cra, WinnersNeverOutbidTheClearingPrice) {
  rng::Rng rng(6);
  rng::Rng ask_rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> asks;
    const std::size_t n = 1 + ask_rng.uniform_index(300);
    for (std::size_t i = 0; i < n; ++i) {
      asks.push_back(ask_rng.uniform_real_left_open(0.0, 10.0));
    }
    const auto q = static_cast<std::uint32_t>(1 + ask_rng.uniform_index(20));
    const auto m = static_cast<std::uint32_t>(q + ask_rng.uniform_index(50));
    const UnitOutcome o = run_units(asks, {.q = q, .m_i = m}, rng);
    for (std::size_t w = 0; w < asks.size(); ++w) {
      if (o.won[w]) {
        EXPECT_LE(asks[w], o.clearing_price)
            << "IR violation (Lemma 6.1) at trial " << trial;
      }
    }
    if (o.num_winners == 0) {
      EXPECT_EQ(o.clearing_price, 0.0);
    }
  }
}

TEST(Cra, DeterministicGivenRngState) {
  std::vector<double> asks;
  for (int i = 0; i < 100; ++i) asks.push_back(1.0 + i * 0.05);
  rng::Rng a(8);
  rng::Rng b(8);
  const UnitOutcome oa = run_units(asks, {.q = 10, .m_i = 20}, a);
  const UnitOutcome ob = run_units(asks, {.q = 10, .m_i = 20}, b);
  EXPECT_EQ(oa.won, ob.won);
  EXPECT_EQ(oa.clearing_price, ob.clearing_price);
}

TEST(Cra, WorkspaceReuseMatchesAFreshWorkspace) {
  // Same rng state in, bit-identical outcome out — including when the
  // workspace is reused across rounds of different sizes, so stale capacity
  // can never leak into the result.
  std::vector<double> asks;
  for (int i = 0; i < 150; ++i) asks.push_back(0.5 + 0.02 * i);
  CraWorkspace ws;
  for (const std::uint32_t n : {150u, 40u, 150u, 7u}) {
    const auto view = std::span<const double>(asks).first(n);
    const CraParams params{.q = n / 3 + 1, .m_i = n / 2 + 1};
    rng::Rng a(21);
    rng::Rng b(21);
    const UnitOutcome fresh = run_units(view, params, a);
    const UnitOutcome reused = run_units(view, params, b, ws);
    EXPECT_EQ(reused.won, fresh.won);
    EXPECT_EQ(reused.winners, fresh.winners);
    EXPECT_EQ(reused.num_winners, fresh.num_winners);
    EXPECT_EQ(reused.clearing_price, fresh.clearing_price);
    EXPECT_EQ(reused.raw_count, fresh.raw_count);
    EXPECT_EQ(reused.consensus_count, fresh.consensus_count);
    EXPECT_EQ(reused.sample_min, fresh.sample_min);
  }
}

TEST(Cra, WinnersAreAmongTheCheapestRawCount) {
  // All winners must have value <= the sampled threshold s (they are chosen
  // from the n_s <= z_s cheapest asks).
  rng::Rng rng(9);
  std::vector<double> asks;
  for (int i = 0; i < 400; ++i) asks.push_back(0.5 + 0.01 * i);
  for (int trial = 0; trial < 100; ++trial) {
    const UnitOutcome o = run_units(asks, {.q = 20, .m_i = 40}, rng);
    for (std::size_t w = 0; w < asks.size(); ++w) {
      if (o.won[w]) {
        EXPECT_LE(asks[w], o.sample_min);
      }
    }
    EXPECT_LE(o.consensus_count, o.raw_count == 0 ? 0 : o.raw_count);
  }
}

TEST(Cra, EmptySamplePolicyNoWinnersCanYieldZero) {
  // With q + m_i astronomically large, the per-ask sample probability is
  // ~0, so the sample is (almost) always empty.
  std::vector<double> asks{1.0, 2.0, 3.0};
  rng::Rng rng(10);
  CraParams params{.q = 1000000, .m_i = 1000000,
                   .empty_sample = EmptySamplePolicy::kNoWinners};
  int winners = 0;
  for (int t = 0; t < 50; ++t) {
    winners += count_winners(run_units(asks, params, rng));
  }
  EXPECT_EQ(winners, 0);
}

TEST(Cra, EmptySamplePolicyAllAsksStaysProductiveAndIr) {
  std::vector<double> asks{1.0, 2.0, 3.0};
  rng::Rng rng(11);
  CraParams params{.q = 1000000, .m_i = 1000000,
                   .empty_sample = EmptySamplePolicy::kAllAsks};
  bool any = false;
  for (int t = 0; t < 50; ++t) {
    const UnitOutcome o = run_units(asks, params, rng);
    for (std::size_t w = 0; w < asks.size(); ++w) {
      if (o.won[w]) {
        any = true;
        EXPECT_LE(asks[w], o.clearing_price);
        EXPECT_TRUE(std::isfinite(o.clearing_price));
      }
    }
  }
  EXPECT_TRUE(any);
}

TEST(Cra, SingleAskCannotClearTheConsensusHurdle) {
  // With z_s = 1 the consensus value 2^(z+y) <= 1 floors to 0 for every
  // y > 0, so a lone ask (almost) never wins — the mechanism needs real
  // competition per Remark 6.1. This is the faithful reading of Alg. 1 and
  // the reason RitConfig::stall_round_limit exists.
  std::vector<double> asks{2.5};
  rng::Rng rng(12);
  int wins = 0;
  for (int t = 0; t < 200; ++t) {
    wins += count_winners(run_units(asks, {.q = 1, .m_i = 1}, rng));
  }
  EXPECT_EQ(wins, 0);
}

TEST(Cra, BudgetPriceKicksInWhenConsensusExceedsBudget) {
  // Many equal cheap asks force n_s large; with a small budget the
  // (q+m_i+1)-st price path must keep winners <= q+m_i and the price at
  // least the winning values.
  std::vector<double> asks(1000, 1.0);
  asks.push_back(9.0);
  rng::Rng rng(13);
  bool saw_budget_price = false;
  for (int t = 0; t < 300; ++t) {
    const UnitOutcome o = run_units(asks, {.q = 3, .m_i = 4}, rng);
    EXPECT_LE(count_winners(o), 3u);
    if (o.used_budget_price) {
      saw_budget_price = true;
      EXPECT_GE(o.clearing_price, 1.0);
    }
  }
  EXPECT_TRUE(saw_budget_price);
}

TEST(CraOrderStatistic, WinnersAndPriceAreDeterministic) {
  // Ablation mode: a plain (q+m_i+1)-st price round.
  const std::vector<double> asks{5.0, 1.0, 3.0, 2.0, 4.0, 6.0};
  rng::Rng rng(20);
  CraParams params{.q = 1, .m_i = 2,
                   .price_mode = PriceMode::kOrderStatistic};
  const UnitOutcome o = run_units(asks, params, rng);
  // budget = 3: potential winners are asks 1.0, 2.0, 3.0; price = 4.0.
  EXPECT_EQ(o.num_winners, 1u);
  EXPECT_DOUBLE_EQ(o.clearing_price, 4.0);
  for (std::size_t w = 0; w < asks.size(); ++w) {
    if (o.won[w]) {
      EXPECT_LE(asks[w], 3.0);
    }
  }
}

TEST(CraOrderStatistic, NoPriceWithoutEnoughAsks) {
  const std::vector<double> asks{1.0, 2.0, 3.0};
  rng::Rng rng(21);
  CraParams params{.q = 1, .m_i = 2,
                   .price_mode = PriceMode::kOrderStatistic};
  // Needs budget+1 = 4 asks.
  const UnitOutcome o = run_units(asks, params, rng);
  EXPECT_EQ(o.num_winners, 0u);
}

// The demand-reduction book: six cheap organic asks, a price cliff, and
// three expensive organic asks. Budget q+m = 10, so the 11th lowest ask
// sets the deterministic price. An attacker with 6 units at cost 4.0:
//   truthful: sorted book = {1.0 x6, 4.0 x6, 9.5, 9.8, 9.9};
//             the 11th lowest is its own 4.0 -> margin 0;
//   withhold to 2 units: {1.0 x6, 4.0 x2, 9.5, 9.8, 9.9};
//             the 11th lowest is 9.9 -> margin 5.9 per winning unit.
std::vector<double> demand_reduction_book() {
  std::vector<double> book(6, 1.0);
  book.push_back(9.5);
  book.push_back(9.8);
  book.push_back(9.9);
  return book;
}

double attacker_cra_utility(const CraParams& params, int units,
                            std::uint64_t seed) {
  const std::vector<double> book = demand_reduction_book();
  std::vector<double> asks = book;
  for (int u = 0; u < units; ++u) asks.push_back(4.0);
  rng::Rng rng(seed);
  const UnitOutcome o = run_units(asks, params, rng);
  double utility = 0.0;
  for (std::size_t w = book.size(); w < asks.size(); ++w) {
    if (o.won[w]) utility += o.clearing_price - 4.0;
  }
  return utility;
}

TEST(CraOrderStatistic, DemandReductionManipulatesThePrice) {
  // The classic uniform-price manipulation the consensus mode exists to
  // kill: withheld units push the price-setting slot across the cliff.
  CraParams params{.q = 8, .m_i = 2,
                   .price_mode = PriceMode::kOrderStatistic};
  double truthful = 0.0;
  double reduced = 0.0;
  const int trials = 200;  // randomness only in the q-of-budget draw
  for (int t = 0; t < trials; ++t) {
    truthful += attacker_cra_utility(params, 6, 100 + t);
    reduced += attacker_cra_utility(params, 2, 100 + t);
  }
  truthful /= trials;
  reduced /= trials;
  EXPECT_NEAR(truthful, 0.0, 1e-12);  // price == own ask: zero margin
  EXPECT_GT(reduced, 4.0)
      << "order-statistic mode must be manipulable by demand reduction";
}

TEST(CraOrderStatistic, DemandReductionIsUnprofitableUnderConsensus) {
  // Same book under the paper's mode: the price is a sampled threshold, so
  // withholding units cannot place one's own ask at the price-setting slot.
  // Expected utilities: truthful weakly better (more units win whenever the
  // threshold clears 4.0).
  CraParams params{.q = 8, .m_i = 2};
  double truthful = 0.0;
  double reduced = 0.0;
  const int trials = 6000;
  for (int t = 0; t < trials; ++t) {
    truthful += attacker_cra_utility(params, 6, 500 + t);
    reduced += attacker_cra_utility(params, 2, 500 + t);
  }
  truthful /= trials;
  reduced /= trials;
  EXPECT_LE(reduced, truthful + 0.1)
      << "truthful=" << truthful << " reduced=" << reduced;
}

TEST(Cra, ComparativeStaticsCheaperBooksClearCheaper) {
  // Comparative statics of the sampled-threshold price: shifting every ask
  // down shifts the expected clearing price down (the threshold is a
  // sample min of the book). A distribution-level sanity check on top of
  // the per-run invariants.
  rng::Rng book_rng(42);
  std::vector<double> expensive;
  for (int i = 0; i < 300; ++i) {
    expensive.push_back(book_rng.uniform_real_left_open(2.0, 10.0));
  }
  std::vector<double> cheap;
  for (double v : expensive) cheap.push_back(v - 1.5);
  CraParams params{.q = 30, .m_i = 40};
  auto mean_price = [&](const std::vector<double>& book, std::uint64_t seed) {
    rng::Rng rng(seed);
    double sum = 0.0;
    int priced = 0;
    for (int t = 0; t < 2000; ++t) {
      const UnitOutcome o = run_units(book, params, rng);
      if (o.num_winners > 0) {
        sum += o.clearing_price;
        ++priced;
      }
    }
    return sum / priced;
  };
  EXPECT_LT(mean_price(cheap, 7), mean_price(expensive, 7) - 0.5);
}

TEST(Cra, MoreSupplyLowersExpectedPrice) {
  // Doubling the book at the same demand lowers the expected clearing
  // price: the Fig. 6(a) competition effect at CRA granularity.
  rng::Rng book_rng(43);
  std::vector<double> thin;
  for (int i = 0; i < 150; ++i) {
    thin.push_back(book_rng.uniform_real_left_open(0.0, 10.0));
  }
  std::vector<double> thick = thin;
  for (int i = 0; i < 150; ++i) {
    thick.push_back(book_rng.uniform_real_left_open(0.0, 10.0));
  }
  CraParams params{.q = 25, .m_i = 30};
  auto mean_price = [&](const std::vector<double>& book) {
    rng::Rng rng(11);
    double sum = 0.0;
    int priced = 0;
    for (int t = 0; t < 3000; ++t) {
      const UnitOutcome o = run_units(book, params, rng);
      if (o.num_winners > 0) {
        sum += o.clearing_price;
        ++priced;
      }
    }
    return sum / priced;
  };
  EXPECT_LT(mean_price(thick), mean_price(thin));
}

TEST(Cra, UniformWinnerSelectionAmongChosen) {
  // With 4 identical asks and q = 1, whoever is chosen must win ~uniformly.
  std::vector<double> asks(4, 1.0);
  rng::Rng rng(14);
  std::array<int, 4> wins{};
  int total = 0;
  for (int t = 0; t < 20000; ++t) {
    const UnitOutcome o = run_units(asks, {.q = 1, .m_i = 1}, rng);
    for (int w = 0; w < 4; ++w) {
      if (o.won[w]) {
        ++wins[w];
        ++total;
      }
    }
  }
  ASSERT_GT(total, 1000);
  for (int w = 0; w < 4; ++w) {
    EXPECT_NEAR(static_cast<double>(wins[w]) / total, 0.25, 0.05);
  }
}

// --- Tie groups straddling the cut ----------------------------------------

TEST(CraPhase2, TieGroupStraddlingTheCutWinsAnonymously) {
  // Book: two distinct cheap asks, a tie group of four at 3.0 (indices
  // 2..5), two dearer asks. With q = m_i = 8 the sample is usually empty,
  // s is then the book maximum and n_s lands in {4, 5, 6, 7}: whenever it
  // is 3..5 the cut falls inside the tie group, and which members make it
  // is decided by the tie shuffle alone. Each member must win equally
  // often in exactly those rounds.
  const std::vector<double> asks{1.0, 2.0, 3.0, 3.0, 3.0, 3.0, 5.0, 5.5};
  constexpr std::size_t kFirst = 2;
  constexpr std::size_t kGroup = 4;
  const CraParams params{.q = 8, .m_i = 8};
  rng::Rng rng(20170605);
  CraWorkspace ws;
  std::array<std::uint64_t, kGroup> wins{};
  std::uint64_t straddles = 0;
  for (int t = 0; t < 40000; ++t) {
    const UnitOutcome out = run_units(asks, params, rng, ws);
    std::size_t group_wins = 0;
    for (std::size_t k = 0; k < kGroup; ++k) group_wins += out.won[kFirst + k];
    if (group_wins == 0 || group_wins == kGroup) continue;
    ++straddles;
    for (std::size_t k = 0; k < kGroup; ++k) wins[k] += out.won[kFirst + k];
  }
  ASSERT_GT(straddles, 5000u);
  const double stat = stats::chi_square_uniform(wins);
  EXPECT_LT(stat, stats::chi_square_critical(kGroup - 1, 0.001))
      << "wins " << wins[0] << " " << wins[1] << " " << wins[2] << " "
      << wins[3];
}

// --- Run books keep the unit round's outcome distribution ------------------
//
// Stream 3 reads runs and draws differently from the stream-2 unit round
// (geometric gaps instead of per-unit coin flips, no shuffle inside one
// run), so the two cannot agree draw for draw. They must agree in
// distribution: for every owner, how many units it wins in a round, and
// the round's clearing price. Each test runs both on independent streams
// at a pinned seed for a fixed number of rounds and compares the
// histograms with a two-sample chi-square test at alpha = 0.001.

struct RunBook {
  std::vector<double> values;
  std::vector<std::uint32_t> counts;
};

// The stream-2 unit round, kept verbatim as the reference: every unit
// ask flips its own sample coin, the asks <= s are ordered by (value,
// index) and every tie group is shuffled unit by unit, the keep pass flips
// one coin per position. `per_user_ties` plants the bias the power check
// must catch: tie groups shuffled as whole per-owner blocks instead of
// units, which keeps every pathwise invariant but breaks anonymity.
struct UnitRound {
  std::vector<std::uint32_t> wins_per_owner;
  double price{0.0};
};

UnitRound stream2_unit_round(const RunBook& book, const CraParams& params,
                             rng::Rng& rng, bool per_user_ties = false) {
  std::vector<double> asks;
  std::vector<std::uint32_t> owner;
  for (std::uint32_t r = 0; r < book.values.size(); ++r) {
    asks.insert(asks.end(), book.counts[r], book.values[r]);
    owner.insert(owner.end(), book.counts[r], r);
  }
  UnitRound out;
  out.wins_per_owner.assign(book.values.size(), 0);
  if (asks.empty() || params.q == 0) return out;
  const std::uint64_t budget =
      static_cast<std::uint64_t>(params.q) + params.m_i;
  const auto ordered_below = [&](double threshold) {
    std::vector<std::uint32_t> order;
    for (std::uint32_t i = 0; i < asks.size(); ++i) {
      if (asks[i] <= threshold) order.push_back(i);
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (asks[a] != asks[b]) return asks[a] < asks[b];
                return a < b;
              });
    for (std::size_t i = 0; i < order.size();) {
      std::size_t j = i + 1;
      while (j < order.size() && asks[order[j]] == asks[order[i]]) ++j;
      if (!per_user_ties) {
        if (j - i > 1) rng.shuffle(std::span<std::uint32_t>(&order[i], j - i));
      } else {
        std::vector<std::vector<std::uint32_t>> blocks;
        for (std::size_t k = i; k < j; ++k) {
          if (k == i || owner[order[k]] != owner[order[k - 1]]) {
            blocks.emplace_back();
          }
          blocks.back().push_back(order[k]);
        }
        rng.shuffle(std::span<std::vector<std::uint32_t>>(blocks));
        std::size_t w = i;
        for (const auto& block : blocks) {
          for (std::uint32_t u : block) order[w++] = u;
        }
      }
      i = j;
    }
    return order;
  };
  const auto award = [&](const std::vector<std::uint32_t>& winners,
                         double price) {
    for (std::uint32_t u : winners) ++out.wins_per_owner[owner[u]];
    out.price = winners.empty() ? 0.0 : price;
  };
  if (params.price_mode == PriceMode::kOrderStatistic) {
    if (asks.size() < budget + 1) return out;
    std::vector<double> sorted = asks;
    std::sort(sorted.begin(), sorted.end());
    const double price = sorted[budget];
    const std::vector<std::uint32_t> order = ordered_below(price);
    std::vector<std::uint32_t> winners;
    for (std::size_t i : rng.sample_without_replacement(budget, params.q)) {
      winners.push_back(order[i]);
    }
    award(winners, price);
    return out;
  }
  double s = std::numeric_limits<double>::infinity();
  bool sampled_any = false;
  for (double v : asks) {
    if (rng.bernoulli(1.0 / static_cast<double>(budget))) {
      sampled_any = true;
      s = std::min(s, v);
    }
  }
  if (!sampled_any) {
    if (params.empty_sample == EmptySamplePolicy::kNoWinners) return out;
    s = *std::max_element(asks.begin(), asks.end());
  }
  const double y = rng.uniform01();
  std::uint64_t raw = 0;
  for (double v : asks) raw += v <= s ? 1 : 0;
  const std::uint64_t n_s =
      consensus_round_down(raw, y, params.consensus_grid_base);
  if (n_s == 0) return out;
  const std::vector<std::uint32_t> order = ordered_below(s);
  std::vector<std::uint32_t> chosen;
  if (n_s <= budget) {
    chosen.assign(order.begin(),
                  order.begin() + static_cast<std::ptrdiff_t>(n_s));
  } else {
    const double keep_p =
        static_cast<double>(budget) / (2.0 * static_cast<double>(n_s));
    for (std::uint64_t i = 0; i < n_s; ++i) {
      if (rng.bernoulli(keep_p)) chosen.push_back(order[i]);
    }
  }
  double price = s;
  if (chosen.size() > budget) {
    price = asks[chosen[budget]];
    chosen.resize(budget);
  }
  if (chosen.size() > params.q) {
    std::vector<std::uint32_t> winners;
    for (std::size_t i :
         rng.sample_without_replacement(chosen.size(), params.q)) {
      winners.push_back(chosen[i]);
    }
    chosen = winners;
  }
  award(chosen, price);
  return out;
}

// Per-owner histograms of units won per round, plus the price histogram
// (0 = no winners).
struct RoundHistograms {
  std::vector<std::vector<std::uint64_t>> wins;  // [owner][units won]
  std::map<double, std::uint64_t> price;

  explicit RoundHistograms(const RunBook& book) {
    for (std::uint32_t k : book.counts) wins.emplace_back(k + 1, 0);
  }
  void add(const std::vector<std::uint32_t>& wins_per_owner, double p) {
    for (std::size_t o = 0; o < wins.size(); ++o) {
      ++wins[o][wins_per_owner[o]];
    }
    ++price[p];
  }
};

// How often the stream-3 rounds took each branch, so a test can assert it
// exercised what it claims to.
struct BranchCounts {
  std::uint64_t keep_branch{0};   // n_s > q + m_i
  std::uint64_t budget_price{0};  // step 4 repriced
  std::uint64_t priced{0};        // any winner at all
};

RoundHistograms run_book_histograms(const RunBook& book,
                                    const CraParams& params, int rounds,
                                    rng::Rng& rng, BranchCounts& branches) {
  RoundHistograms h(book);
  CraWorkspace ws;
  CraOutcome out;
  std::vector<std::uint32_t> wins(book.values.size());
  const std::uint64_t budget =
      static_cast<std::uint64_t>(params.q) + params.m_i;
  for (int t = 0; t < rounds; ++t) {
    run_cra(book.values, book.counts, params, rng, ws, out);
    std::fill(wins.begin(), wins.end(), 0u);
    for (const RunSlice& w : out.winners) wins[w.run] += w.units;
    h.add(wins, out.clearing_price);
    branches.keep_branch += out.consensus_count > budget ? 1 : 0;
    branches.budget_price += out.used_budget_price ? 1 : 0;
    branches.priced += out.num_winners > 0 ? 1 : 0;
  }
  return h;
}

RoundHistograms unit_round_histograms(const RunBook& book,
                                      const CraParams& params, int rounds,
                                      rng::Rng& rng, bool per_user_ties) {
  RoundHistograms h(book);
  for (int t = 0; t < rounds; ++t) {
    const UnitRound r = stream2_unit_round(book, params, rng, per_user_ties);
    h.add(r.wins_per_owner, r.price);
  }
  return h;
}

// Two-sample chi-square homogeneity test of two equal-size histograms
// over the same cells: cells are pooled in order until each expects >= 5
// per sample, the tail joins the last pooled cell. Returns the statistic
// divided by its alpha = 0.001 critical value (> 1 rejects), or 0 when
// fewer than two cells remain.
double homogeneity_ratio(const std::vector<std::uint64_t>& a,
                         const std::vector<std::uint64_t>& b) {
  std::vector<std::uint64_t> pa;
  std::vector<std::uint64_t> pb;
  std::uint64_t ca = 0;
  std::uint64_t cb = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ca += a[i];
    cb += b[i];
    if (static_cast<double>(ca + cb) / 2.0 >= 5.0) {
      pa.push_back(ca);
      pb.push_back(cb);
      ca = cb = 0;
    }
  }
  if (pa.empty()) return 0.0;
  pa.back() += ca;
  pb.back() += cb;
  if (pa.size() < 2) return 0.0;
  std::vector<std::uint64_t> observed;
  std::vector<double> expected;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const double e = static_cast<double>(pa[i] + pb[i]) / 2.0;
    observed.push_back(pa[i]);
    observed.push_back(pb[i]);
    expected.push_back(e);
    expected.push_back(e);
  }
  return stats::chi_square_statistic(observed, expected) /
         stats::chi_square_critical(pa.size() - 1, 0.001);
}

// The largest homogeneity ratio over every owner's win-count histogram and
// the price histogram.
double worst_ratio(const RoundHistograms& x, const RoundHistograms& y) {
  double worst = 0.0;
  for (std::size_t o = 0; o < x.wins.size(); ++o) {
    worst = std::max(worst, homogeneity_ratio(x.wins[o], y.wins[o]));
  }
  std::map<double, std::uint64_t> cells = x.price;
  for (const auto& [p, n] : y.price) cells.emplace(p, 0);
  std::vector<std::uint64_t> px;
  std::vector<std::uint64_t> py;
  for (const auto& [p, n] : cells) {
    const auto ix = x.price.find(p);
    const auto iy = y.price.find(p);
    px.push_back(ix == x.price.end() ? 0 : ix->second);
    py.push_back(iy == y.price.end() ? 0 : iy->second);
  }
  return std::max(worst, homogeneity_ratio(px, py));
}

constexpr int kRounds = 20000;

// Stream 3 on the run book against the stream-2 unit round on its
// expansion; returns the worst ratio and fills the branch counts.
double run_book_vs_unit_round(const RunBook& book, const CraParams& params,
                              std::uint64_t seed, BranchCounts& branches) {
  rng::Rng runs_rng(seed);
  rng::Rng units_rng = runs_rng.split();
  const RoundHistograms runs =
      run_book_histograms(book, params, kRounds, runs_rng, branches);
  const RoundHistograms units =
      unit_round_histograms(book, params, kRounds, units_rng, false);
  return worst_ratio(runs, units);
}

TEST(CraRuns, MultiUnitUsersKeepTheUnitDistribution) {
  // Distinct values, counts 1..6: the n_s cut regularly falls inside a
  // run, which stream 3 takes as a partial slice without shuffling it.
  const RunBook book{{2.5, 1.0, 4.0, 3.0, 1.5, 5.0, 3.5, 2.0},
                     {3, 1, 4, 6, 2, 5, 1, 2}};
  BranchCounts branches;
  const double ratio =
      run_book_vs_unit_round(book, {.q = 3, .m_i = 6}, 101, branches);
  EXPECT_LT(ratio, 1.0);
  EXPECT_GT(branches.priced, kRounds / 4u);
}

// Seven owners, the middle three tied at 2.0 with 3, 2 and 1 units
// (positions 3..8 of the 12 unit asks). With q = m_i = 8 the sample is
// often empty, s is then the top ask and n_s in [6, 12] cuts inside the
// tie group whenever it is 6..8; q >= n_s then lets every chosen unit win.
RunBook straddle_book() {
  return {{1.0, 1.5, 2.0, 2.0, 2.0, 3.0, 3.5}, {1, 2, 3, 2, 1, 2, 1}};
}

TEST(CraRuns, TieGroupStraddlingTheCutKeepsTheUnitDistribution) {
  BranchCounts branches;
  const double ratio = run_book_vs_unit_round(
      straddle_book(), {.q = 8, .m_i = 8}, 102, branches);
  EXPECT_LT(ratio, 1.0);
  EXPECT_GT(branches.priced, kRounds / 2u);
}

TEST(CraRuns, KeepBranchKeepsTheUnitDistribution) {
  // A long book of distinct multi-unit runs against a budget of 4: n_s
  // regularly exceeds it, so step 3 thins the n_s cheapest units with
  // geometric gaps, and the run holding the n_s-th unit usually reaches
  // past it.
  RunBook book;
  rng::Rng book_rng(7);
  for (int r = 0; r < 30; ++r) {
    book.values.push_back(0.5 + 0.25 * static_cast<double>(r));
    book.counts.push_back(
        static_cast<std::uint32_t>(1 + book_rng.uniform_index(8)));
  }
  book_rng.shuffle(std::span<double>(book.values));
  BranchCounts branches;
  const double ratio =
      run_book_vs_unit_round(book, {.q = 2, .m_i = 2}, 103, branches);
  EXPECT_LT(ratio, 1.0);
  EXPECT_GT(branches.keep_branch, kRounds / 10u);
}

TEST(CraRuns, BudgetPriceKeepsTheUnitDistribution) {
  // Ten owners share the value 1.0 with 1..10 units each, one dear ask
  // tops the book: n_s is far above the budget of 7, step 4 often cuts at
  // the 8th kept unit, and which owners make the cut is decided by the
  // tie shuffle over all 55 units.
  RunBook book;
  for (std::uint32_t k = 1; k <= 10; ++k) {
    book.values.push_back(1.0);
    book.counts.push_back(k);
  }
  book.values.push_back(9.0);
  book.counts.push_back(1);
  BranchCounts branches;
  const double ratio =
      run_book_vs_unit_round(book, {.q = 3, .m_i = 4}, 104, branches);
  EXPECT_LT(ratio, 1.0);
  EXPECT_GT(branches.budget_price, kRounds / 50u);
}

TEST(CraRuns, OrderStatisticKeepsTheUnitDistribution) {
  // Budget 5: the price is the unit at rank 5, 2.0, and the 2.0 tie group
  // (owners 1 and 2, five units at positions 2..6) straddles the cut.
  const RunBook book{{1.0, 2.0, 2.0, 3.0, 4.0}, {2, 3, 2, 4, 1}};
  BranchCounts branches;
  const double ratio = run_book_vs_unit_round(
      book,
      {.q = 2, .m_i = 3, .price_mode = PriceMode::kOrderStatistic}, 105,
      branches);
  EXPECT_LT(ratio, 1.0);
  EXPECT_EQ(branches.priced, static_cast<std::uint64_t>(kRounds));
}

TEST(CraRuns, PerUserTieShuffleIsCaught) {
  // Power check: a round that shuffles a tie group's owners as blocks
  // keeps every pathwise invariant, but the same comparison must reject
  // it against the unit round.
  const RunBook book = straddle_book();
  const CraParams params{.q = 8, .m_i = 8};
  rng::Rng a(106);
  rng::Rng b = a.split();
  const RoundHistograms biased =
      unit_round_histograms(book, params, kRounds, a, true);
  const RoundHistograms fair =
      unit_round_histograms(book, params, kRounds, b, false);
  EXPECT_GT(worst_ratio(biased, fair), 1.0);
}

TEST(CraRuns, UnitBookOfOneUserDrawsNoTieShuffle) {
  // One run of five equal units and the same units as five runs of one:
  // the same round, except that five runs form a tie group whose shuffle
  // draws. With the whole book under the threshold and q >= n_s, both win
  // the same number of units.
  const std::vector<double> one_value{2.0};
  const std::vector<std::uint32_t> one_count{5};
  const std::vector<double> five_values(5, 2.0);
  const std::vector<std::uint32_t> five_counts(5, 1);
  const CraParams params{.q = 100000, .m_i = 100000};
  CraWorkspace ws;
  CraOutcome run_out;
  CraOutcome unit_out;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    rng::Rng a(seed);
    rng::Rng b(seed);
    run_cra(one_value, one_count, params, a, ws, run_out);
    run_cra(five_values, five_counts, params, b, ws, unit_out);
    EXPECT_EQ(run_out.num_winners, unit_out.num_winners);
    EXPECT_EQ(run_out.consensus_count, unit_out.consensus_count);
    if (run_out.num_winners > 0) {
      ASSERT_EQ(run_out.winners.size(), 1u);
      EXPECT_EQ(run_out.winners[0],
                (RunSlice{0, run_out.num_winners}));
    }
  }
}

TEST(CraRuns, EmptyRunsAreNotAsks) {
  // Runs whose units are all consumed hold no asks: they never set the
  // kAllAsks threshold, never count, never win, and a book of only empty
  // runs draws nothing.
  const std::vector<double> values{9.0, 1.0, 8.0, 2.0};
  const std::vector<std::uint32_t> counts{0, 3, 0, 2};
  const CraParams params{.q = 100000, .m_i = 100000};
  CraWorkspace ws;
  CraOutcome out;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    rng::Rng rng(seed);
    run_cra(values, counts, params, rng, ws, out);
    EXPECT_LE(out.sample_min, 2.0);
    EXPECT_LE(out.raw_count, 5u);
    for (const RunSlice& w : out.winners) {
      EXPECT_NE(counts[w.run], 0u);
      EXPECT_LE(w.units, counts[w.run]);
    }
  }
  const std::vector<std::uint32_t> none(values.size(), 0);
  rng::Rng a(3);
  rng::Rng untouched(3);
  run_cra(values, none, params, a, ws, out);
  EXPECT_EQ(out.num_winners, 0u);
  EXPECT_TRUE(out.winners.empty());
  EXPECT_EQ(a.next_u64(), untouched.next_u64());
  EXPECT_THROW(run_cra(values, std::vector<std::uint32_t>{1}, params, a, ws,
                       out),
               CheckFailure);
}

}  // namespace
}  // namespace rit::core
