#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "rng/rng.h"
#include "rng/splitmix64.h"
#include "rng/xoshiro256.h"
#include "stats/chi_square.h"

namespace rit::rng {
namespace {

TEST(SplitMix64, KnownVectors) {
  // Reference values from the public-domain splitmix64.c with seed 0.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Xoshiro, DeterministicAcrossInstances) {
  Xoshiro256StarStar a(123);
  Xoshiro256StarStar b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256StarStar a(1);
  Xoshiro256StarStar b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Xoshiro, JumpProducesDisjointLookingStreams) {
  Xoshiro256StarStar base(5);
  Xoshiro256StarStar jumped(5);
  jumped.jump();
  // The jumped stream must not collide with the base stream's prefix.
  std::set<std::uint64_t> prefix;
  Xoshiro256StarStar base_copy(5);
  for (int i = 0; i < 2000; ++i) prefix.insert(base_copy());
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(prefix.count(jumped()), 0u) << "collision at output " << i;
  }
  // And jumping is deterministic.
  Xoshiro256StarStar j2(5);
  j2.jump();
  Xoshiro256StarStar j3(5);
  j3.jump();
  for (int i = 0; i < 64; ++i) EXPECT_EQ(j2(), j3());
}

TEST(Xoshiro, JumpedStreamEventuallyMatchesLongRun) {
  // jump() is exactly 2^128 steps — far beyond direct verification, but a
  // double jump must differ from a single jump (the state really moved).
  Xoshiro256StarStar once(9);
  once.jump();
  Xoshiro256StarStar twice(9);
  twice.jump();
  twice.jump();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (once() == twice()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformU64RespectsBound) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
  }
}

TEST(Rng, UniformU64IsUnbiasedOverSmallBound) {
  Rng rng(17);
  std::array<int, 5> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_u64(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.01);
  }
}

TEST(Rng, UniformU64RejectsZeroBound) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_u64(0), CheckFailure);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(19);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen, (std::set<std::int64_t>{-2, -1, 0, 1, 2}));
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(23);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

// FNV-1a over the little-endian bytes of `count` draws, then of the
// stream's next raw word, so both the values and the number of raw words
// they consumed are pinned.
template <class Draw>
std::uint64_t draw_digest(std::uint64_t seed, int count, Draw draw) {
  Rng rng(seed);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (int i = 0; i < count; ++i) mix(draw(rng));
  mix(rng.next_u64());
  return h;
}

TEST(Rng, UniformDrawsArePinned) {
  // Recorded from the out-of-line draws in rng.cpp: inlining them must not
  // move a value or a raw word. At 2^63 + 1 about half of the multiplies
  // fall in the rejected region (4096 values take 8195 words), so the
  // rejection loop is pinned too.
  struct Pinned {
    std::uint64_t bound;
    std::uint64_t digest;
  };
  const Pinned pinned[] = {
      {1, 0x92e41857ee7d41e7ULL},
      {10, 0x2eb15433061ce6cdULL},
      {20, 0x58e0d6ce8a25090bULL},
      {(std::uint64_t{1} << 32) + 1, 0xd13a3779c4d317c5ULL},
      {(std::uint64_t{1} << 63) + 1, 0x23dae92339a44e0cULL},
      {~std::uint64_t{0}, 0x5c03626cf6396113ULL},
  };
  for (const Pinned& p : pinned) {
    EXPECT_EQ(draw_digest(20170605, 4096,
                          [&](Rng& r) { return r.uniform_u64(p.bound); }),
              p.digest)
        << "bound " << p.bound;
  }
  EXPECT_EQ(draw_digest(20170605, 4096,
                        [](Rng& r) {
                          return static_cast<std::uint64_t>(
                              r.uniform_int(1, 20));
                        }),
            0x456f8762669e0893ULL);
  EXPECT_EQ(draw_digest(20170605, 4096,
                        [](Rng& r) {
                          return std::bit_cast<std::uint64_t>(
                              r.uniform_real_left_open(0.0, 10.0));
                        }),
            0x5f5c73b2bfe05251ULL);
}

TEST(Rng, UniformRealLeftOpenExcludesLoIncludesHi) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real_left_open(0.0, 10.0);
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 10.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(37);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleIsUniformOnPairs) {
  // Over many shuffles of {0,1,2}, each of the 6 permutations should appear
  // about 1/6 of the time.
  Rng rng(43);
  std::map<std::array<int, 3>, int> counts;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    std::array<int, 3> v{0, 1, 2};
    rng.shuffle(std::span<int>(v.data(), v.size()));
    ++counts[v];
  }
  EXPECT_EQ(counts.size(), 6u);
  for (const auto& [perm, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 1.0 / 6.0, 0.01);
  }
}

TEST(Rng, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(47);
  auto s = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (std::size_t x : s) EXPECT_LT(x, 100u);
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(53);
  auto s = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOverdraw) {
  Rng rng(59);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), CheckFailure);
}

TEST(Rng, SampleWithoutReplacementKZeroConsumesNoDraws) {
  // k == 0 must be a true no-op on the stream: mechanism paths branch on
  // "anything to sample?" and the branch must not desynchronize replay.
  Rng a(83);
  Rng b(83);
  std::vector<std::size_t> pool;
  std::vector<std::size_t> out{1, 2, 3};
  a.sample_without_replacement_into(17, 0, pool, out);
  EXPECT_TRUE(out.empty());  // cleared, not left over from the caller
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SampleWithoutReplacementEmptyPool) {
  // n == 0, k == 0: legal, empty, and draw-free.
  Rng a(89);
  Rng b(89);
  auto s = a.sample_without_replacement(0, 0);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SampleWithoutReplacementFullSetIsAPermutation) {
  // k == n selects every index exactly once, in Fisher-Yates order; the
  // final step still draws (uniform_index(1)), which is part of the
  // stream contract the differential oracle mirrors.
  Rng rng(97);
  Rng untouched(97);
  const auto s = rng.sample_without_replacement(9, 9);
  std::vector<std::size_t> sorted(s.begin(), s.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_NE(rng.next_u64(), untouched.next_u64());  // draws were consumed
}

TEST(Rng, SampleWithoutReplacementIntoMatchesAllocatingForm) {
  // The buffer-reusing form consumes the same draws and produces the same
  // selection, including when the buffers are reused across differently
  // sized requests (capacity must never leak into the result).
  Rng a(67);
  Rng b(67);
  std::vector<std::size_t> pool;
  std::vector<std::size_t> out;
  const std::pair<std::size_t, std::size_t> requests[] = {
      {100, 30}, {10, 10}, {100, 1}, {5, 0}};
  for (const auto& [n, k] : requests) {
    const auto fresh = a.sample_without_replacement(n, k);
    b.sample_without_replacement_into(n, k, pool, out);
    EXPECT_EQ(out, fresh) << "n=" << n << " k=" << k;
  }
}

TEST(Rng, SampleWithoutReplacementIntoRejectsOverdraw) {
  Rng rng(71);
  std::vector<std::size_t> pool;
  std::vector<std::size_t> out;
  EXPECT_THROW(rng.sample_without_replacement_into(3, 4, pool, out),
               CheckFailure);
}

TEST(Rng, SampleWithoutReplacementIsUniform) {
  Rng rng(61);
  std::array<int, 5> counts{};
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    for (std::size_t x : rng.sample_without_replacement(5, 2)) ++counts[x];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.4, 0.02);
  }
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(71);
  Rng child = parent.split();
  // The child stream should not be a shifted copy of the parent stream.
  Rng parent2(71);
  parent2.next_u64();  // advance past the split draw
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u64() == parent2.next_u64()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(99);
  Rng b(99);
  Rng ca = a.split();
  Rng cb = b.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
}


// --- GeometricGaps: skip sampling of Bernoulli(p) trials ---------------------

// Runs `trials` passes of skip sampling over positions [0, len) and checks
// them against per-position Bernoulli(p) at alpha = 0.001: the number of
// successes per pass against the Binomial(len, p) pmf (cells pooled until
// each expects >= 5), and the successes per position against uniform.
void expect_bernoulli_inclusion(double p, std::uint64_t seed) {
  constexpr std::size_t kLen = 40;
  constexpr int kTrials = 20000;
  Rng rng(seed);
  const GeometricGaps gaps(p);
  std::vector<std::uint64_t> per_pass(kLen + 1, 0);
  std::vector<std::uint64_t> per_position(kLen, 0);
  for (int t = 0; t < kTrials; ++t) {
    std::size_t hits = 0;
    for (std::uint64_t i = gaps.next(rng, 0, kLen); i < kLen;
         i = gaps.next(rng, i + 1, kLen)) {
      ++per_position[i];
      ++hits;
    }
    ++per_pass[hits];
  }
  std::vector<double> pmf(kLen + 1);
  const double len = static_cast<double>(kLen);
  for (std::size_t k = 0; k <= kLen; ++k) {
    const double kd = static_cast<double>(k);
    pmf[k] = std::exp(std::lgamma(len + 1.0) - std::lgamma(kd + 1.0) -
                      std::lgamma(len - kd + 1.0) + kd * std::log(p) +
                      (len - kd) * std::log1p(-p));
  }
  std::vector<std::uint64_t> observed;
  std::vector<double> expected;
  std::uint64_t obs_cell = 0;
  double exp_cell = 0.0;
  for (std::size_t k = 0; k <= kLen; ++k) {
    obs_cell += per_pass[k];
    exp_cell += pmf[k] * kTrials;
    if (exp_cell >= 5.0 && k < kLen) {
      observed.push_back(obs_cell);
      expected.push_back(exp_cell);
      obs_cell = 0;
      exp_cell = 0.0;
    }
  }
  // The tail that never reached 5 joins the last full cell.
  observed.back() += obs_cell;
  expected.back() += exp_cell;
  ASSERT_GE(observed.size(), 4u);
  EXPECT_LT(stats::chi_square_statistic(observed, expected),
            stats::chi_square_critical(observed.size() - 1, 0.001))
      << "p=" << p;
  EXPECT_LT(stats::chi_square_uniform(per_position),
            stats::chi_square_critical(kLen - 1, 0.001))
      << "p=" << p;
}

TEST(GeometricGaps, InclusionMatchesPerTrialBernoulli) {
  expect_bernoulli_inclusion(0.1, 81);
  expect_bernoulli_inclusion(0.03, 82);
}

TEST(GeometricGaps, HalfIsAFairCoinPerPosition) {
  expect_bernoulli_inclusion(0.5, 83);
  // The first gap is Geometric(1/2): P(gap = g) = 2^-(g+1).
  Rng rng(84);
  const GeometricGaps gaps(0.5);
  constexpr int kDraws = 40000;
  std::array<std::uint64_t, 8> gap_counts{};  // last cell: gap >= 7
  for (int t = 0; t < kDraws; ++t) {
    const std::uint64_t g = gaps.next(rng, 0, 1000);
    ++gap_counts[std::min<std::uint64_t>(g, 7)];
  }
  std::array<double, 8> expected{};
  for (std::size_t g = 0; g < 7; ++g) {
    expected[g] = kDraws * std::ldexp(1.0, -static_cast<int>(g) - 1);
  }
  expected[7] = kDraws * std::ldexp(1.0, -7);
  EXPECT_LT(stats::chi_square_statistic(gap_counts, expected),
            stats::chi_square_critical(7, 0.001));
}

TEST(GeometricGaps, TinyPRunsPastAnySpanWithoutOverflow) {
  // The gap is ~1e300 positions: it must be compared as a double and
  // returned as `end`, never cast (float-cast-overflow builds abort on it).
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Rng rng(85);
  const GeometricGaps tiny(1e-300);
  for (int t = 0; t < 100; ++t) {
    EXPECT_EQ(tiny.next(rng, 0, kMax), kMax);
    EXPECT_EQ(tiny.next(rng, 5, 1000), 1000u);
  }
  const GeometricGaps small(1e-25);
  EXPECT_EQ(small.next(rng, 0, kMax), kMax);
}

TEST(GeometricGaps, DrawsDoNotDependOnTheSpan) {
  // One draw per call for 0 < p < 1 whatever `end` is, including an empty
  // span; none at p = 0 or p = 1.
  Rng a(86);
  Rng b(86);
  const GeometricGaps gaps(0.2);
  for (int t = 0; t < 200; ++t) {
    const std::uint64_t far = gaps.next(a, 3, 1'000'000);
    const std::uint64_t near = gaps.next(b, 3, 6);
    EXPECT_EQ(near, std::min<std::uint64_t>(far, 6));
  }
  gaps.next(a, 9, 9);
  gaps.next(b, 10, 9);
  EXPECT_EQ(a.next_u64(), b.next_u64());

  Rng c(87);
  Rng untouched(87);
  EXPECT_EQ(GeometricGaps(0.0).next(c, 4, 10), 10u);
  EXPECT_EQ(GeometricGaps(1.0).next(c, 4, 10), 4u);
  EXPECT_EQ(GeometricGaps(1.0).next(c, 12, 10), 10u);
  EXPECT_EQ(c.next_u64(), untouched.next_u64());
  EXPECT_THROW(GeometricGaps(1.5), CheckFailure);
  EXPECT_THROW(GeometricGaps(-0.1), CheckFailure);
}

}  // namespace
}  // namespace rit::rng
