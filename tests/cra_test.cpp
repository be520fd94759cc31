#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "core/cra.h"
#include "rng/rng.h"
#include "stats/chi_square.h"

namespace rit::core {
namespace {

std::uint32_t count_winners(const CraOutcome& o) {
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
  const CraOutcome o = run_cra({}, {.q = 5, .m_i = 5}, rng);
  EXPECT_EQ(o.num_winners, 0u);
  EXPECT_TRUE(o.won.empty());
}

TEST(Cra, ZeroTasksNoWinners) {
  rng::Rng rng(4);
  const std::vector<double> asks{1.0, 2.0, 3.0};
  const CraOutcome o = run_cra(asks, {.q = 0, .m_i = 5}, rng);
  EXPECT_EQ(count_winners(o), 0u);
}

TEST(Cra, NeverAllocatesMoreThanQ) {
  rng::Rng rng(5);
  std::vector<double> asks;
  for (int i = 0; i < 500; ++i) asks.push_back(0.1 + 0.01 * i);
  for (int trial = 0; trial < 200; ++trial) {
    const CraOutcome o = run_cra(asks, {.q = 7, .m_i = 10}, rng);
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
    const CraOutcome o = run_cra(asks, {.q = q, .m_i = m}, rng);
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
  const CraOutcome oa = run_cra(asks, {.q = 10, .m_i = 20}, a);
  const CraOutcome ob = run_cra(asks, {.q = 10, .m_i = 20}, b);
  EXPECT_EQ(oa.won, ob.won);
  EXPECT_EQ(oa.clearing_price, ob.clearing_price);
}

TEST(Cra, WorkspaceOverloadMatchesAllocatingOverload) {
  // Same rng state in, bit-identical outcome out — including when the
  // workspace is reused across rounds of different sizes, so stale capacity
  // can never leak into the result.
  std::vector<double> asks;
  for (int i = 0; i < 150; ++i) asks.push_back(0.5 + 0.02 * i);
  CraWorkspace ws;
  CraOutcome reused;
  for (const std::uint32_t n : {150u, 40u, 150u, 7u}) {
    const auto view = std::span<const double>(asks).first(n);
    const CraParams params{.q = n / 3 + 1, .m_i = n / 2 + 1};
    rng::Rng a(21);
    rng::Rng b(21);
    const CraOutcome fresh = run_cra(view, params, a);
    run_cra(view, params, b, ws, reused);
    EXPECT_EQ(reused.won, fresh.won);
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
    const CraOutcome o = run_cra(asks, {.q = 20, .m_i = 40}, rng);
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
    winners += count_winners(run_cra(asks, params, rng));
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
    const CraOutcome o = run_cra(asks, params, rng);
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
    wins += count_winners(run_cra(asks, {.q = 1, .m_i = 1}, rng));
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
    const CraOutcome o = run_cra(asks, {.q = 3, .m_i = 4}, rng);
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
  const CraOutcome o = run_cra(asks, params, rng);
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
  const CraOutcome o = run_cra(asks, params, rng);  // needs budget+1 = 4 asks
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
  const CraOutcome o = run_cra(asks, params, rng);
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
      const CraOutcome o = run_cra(book, params, rng);
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
      const CraOutcome o = run_cra(book, params, rng);
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
    const CraOutcome o = run_cra(asks, {.q = 1, .m_i = 1}, rng);
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

// --- Phase 2 orders only the asks <= s --------------------------------------

// The stream-1 CRA round, kept verbatim as a reference: phase 2 sorts and
// tie-shuffles the WHOLE unit book. On a tie-free book no shuffle draws
// anything, so the current round must reproduce it bit for bit.
CraOutcome full_sort_cra(std::span<const double> asks,
                         const CraParams& params, rng::Rng& rng) {
  CraOutcome out;
  out.won.assign(asks.size(), false);
  if (asks.empty() || params.q == 0) return out;
  const std::uint64_t budget =
      static_cast<std::uint64_t>(params.q) + params.m_i;
  const auto full_sort = [&] {
    std::vector<std::uint32_t> order(asks.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (asks[a] != asks[b]) return asks[a] < asks[b];
                return a < b;
              });
    for (std::size_t i = 0; i < order.size();) {
      std::size_t j = i + 1;
      while (j < order.size() && asks[order[j]] == asks[order[i]]) ++j;
      if (j - i > 1) rng.shuffle(std::span<std::uint32_t>(&order[i], j - i));
      i = j;
    }
    return order;
  };
  if (params.price_mode == PriceMode::kOrderStatistic) {
    if (asks.size() < budget + 1) return out;
    const std::vector<std::uint32_t> order = full_sort();
    out.clearing_price = asks[order[budget]];
    for (std::size_t i : rng.sample_without_replacement(budget, params.q)) {
      out.won[order[i]] = true;
    }
    out.num_winners = params.q;
    return out;
  }
  const double sample_p = 1.0 / static_cast<double>(budget);
  double s = std::numeric_limits<double>::infinity();
  bool sampled_any = false;
  for (double v : asks) {
    if (rng.bernoulli(sample_p)) {
      sampled_any = true;
      s = std::min(s, v);
    }
  }
  if (!sampled_any) {
    if (params.empty_sample == EmptySamplePolicy::kNoWinners) return out;
    s = *std::max_element(asks.begin(), asks.end());
  }
  out.sample_min = s;
  const double y = rng.uniform01();
  std::uint64_t raw = 0;
  for (double v : asks) raw += v <= s ? 1 : 0;
  out.raw_count = raw;
  const std::uint64_t n_s =
      consensus_round_down(raw, y, params.consensus_grid_base);
  out.consensus_count = n_s;
  if (n_s == 0) return out;
  const std::vector<std::uint32_t> order = full_sort();
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
    out.used_budget_price = true;
  }
  if (chosen.size() > params.q) {
    std::vector<std::uint32_t> winners;
    for (std::size_t i : rng.sample_without_replacement(chosen.size(),
                                                        params.q)) {
      winners.push_back(chosen[i]);
    }
    chosen = winners;
  }
  for (std::uint32_t w : chosen) out.won[w] = true;
  out.num_winners = static_cast<std::uint32_t>(chosen.size());
  out.clearing_price = chosen.empty() ? 0.0 : price;
  return out;
}

// A book of `n` pairwise-distinct values in shuffled index order.
std::vector<double> tie_free_book(std::size_t n, rng::Rng& rng) {
  std::vector<double> asks(n);
  for (std::size_t i = 0; i < n; ++i) {
    asks[i] = 0.5 + 0.01 * static_cast<double>(i);
  }
  rng.shuffle(std::span<double>(asks));
  return asks;
}

void expect_same_round(const CraOutcome& got, const CraOutcome& want) {
  EXPECT_EQ(got.won, want.won);
  EXPECT_EQ(got.num_winners, want.num_winners);
  EXPECT_EQ(got.clearing_price, want.clearing_price);
  EXPECT_EQ(got.sample_min, want.sample_min);
  EXPECT_EQ(got.raw_count, want.raw_count);
  EXPECT_EQ(got.consensus_count, want.consensus_count);
  EXPECT_EQ(got.used_budget_price, want.used_budget_price);
}

TEST(CraPhase2, TieFreeBooksMatchTheFullSortRoundBitForBit) {
  // Tie-free books make every tie group a singleton, so the partial order
  // draws exactly what the full sort drew. The rng states must also agree
  // after the round: no draw was added or dropped anywhere.
  rng::Rng book_rng(31);
  std::uint64_t small_ns = 0;
  std::uint64_t budget_ns = 0;
  std::uint64_t empty_sample = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = 1 + book_rng.uniform_index(400);
    const std::vector<double> asks = tie_free_book(n, book_rng);
    const auto q = static_cast<std::uint32_t>(1 + book_rng.uniform_index(12));
    // Three regimes: a small budget (n_s > q+m_i, the keep-and-reprice
    // branch), a moderate one, and one so large the sample is usually
    // empty (EmptySamplePolicy::kAllAsks takes the whole book).
    std::uint32_t m = q + static_cast<std::uint32_t>(
                              book_rng.uniform_index(30));
    if (trial % 3 == 0) m = 1;
    if (trial % 3 == 1) m = 100000;
    const CraParams params{.q = q, .m_i = m};
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(trial);
    rng::Rng a(seed);
    rng::Rng b(seed);
    CraWorkspace ws;
    CraOutcome got;
    run_cra(asks, params, a, ws, got);
    const CraOutcome want = full_sort_cra(asks, params, b);
    expect_same_round(got, want);
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "draw streams diverged";
    if (got.consensus_count == 0) continue;
    if (got.consensus_count > q + m) {
      ++budget_ns;
    } else {
      ++small_ns;
    }
    if (got.raw_count == n && got.sample_min == *std::max_element(
                                                    asks.begin(), asks.end())) {
      ++empty_sample;
    }
  }
  // Every branch really ran.
  EXPECT_GT(small_ns, 50u);
  EXPECT_GT(budget_ns, 30u);
  EXPECT_GT(empty_sample, 50u);
}

TEST(CraPhase2, TieFreeOrderStatisticMatchesTheFullSortRound) {
  rng::Rng book_rng(37);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + book_rng.uniform_index(200);
    const std::vector<double> asks = tie_free_book(n, book_rng);
    const auto q = static_cast<std::uint32_t>(1 + book_rng.uniform_index(10));
    const auto m = static_cast<std::uint32_t>(book_rng.uniform_index(40));
    const CraParams params{.q = q, .m_i = m,
                           .price_mode = PriceMode::kOrderStatistic};
    const std::uint64_t seed = 5000 + static_cast<std::uint64_t>(trial);
    rng::Rng a(seed);
    rng::Rng b(seed);
    const CraOutcome got = run_cra(asks, params, a);
    const CraOutcome want = full_sort_cra(asks, params, b);
    EXPECT_EQ(got.won, want.won);
    EXPECT_EQ(got.num_winners, want.num_winners);
    EXPECT_EQ(got.clearing_price, want.clearing_price);
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "draw streams diverged";
  }
}

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
  CraOutcome out;
  std::array<std::uint64_t, kGroup> wins{};
  std::uint64_t straddles = 0;
  for (int t = 0; t < 40000; ++t) {
    run_cra(asks, params, rng, ws, out);
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

}  // namespace
}  // namespace rit::core
