#include "core/cra.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

// rit-lint: allow-file(testkit-only-injection)
#include "common/bug_inject.h"
#include "common/check.h"
#include "obs/obs.h"

namespace rit::core {

std::uint64_t consensus_round_down(std::uint64_t count, double y,
                                   double base) {
  RIT_CHECK(y >= 0.0 && y < 1.0);
  RIT_CHECK_MSG(base > 1.0, "consensus grid base must exceed 1, got " << base);
  if (count == 0) return 0;
  // Largest z with base^(z+y) <= count, i.e. z = floor(log_base(count) - y).
  const double lg =
      std::log(static_cast<double>(count)) / std::log(base);
  double z = std::floor(lg - y);
  double value = std::pow(base, z + y);
  // Guard floating-point edges on both sides: pow/log rounding can land
  // value one step high or low when lg - y is (nearly) integral.
  while (value > static_cast<double>(count) && z > -2000.0) {
    z -= 1.0;
    value = std::pow(base, z + y);
  }
  while (std::pow(base, z + 1.0 + y) <= static_cast<double>(count)) {
    z += 1.0;
    value = std::pow(base, z + y);
  }
  return static_cast<std::uint64_t>(std::floor(value));
}

namespace {

// The asks at or below `threshold`, in ascending-value order with ties
// first in index order, then shuffled uniformly: equal asks must be treated
// equally ("anonymity"), otherwise "the smallest n asks" would
// systematically favour whichever user Extract happened to expand first.
// The index tie-break makes plain sort produce exactly what stable_sort
// over values would — without stable_sort's per-call temporary buffer,
// keeping the round allocation-free.
//
// Only the partition {v <= threshold} is ordered: O(n + r log r) for r
// kept asks instead of a full-book O(n log n) sort. The result equals the
// first r positions of a full tie-shuffled sort in distribution: a tie
// group holding any value <= threshold lies wholly inside the partition,
// and groups are shuffled in the same ascending order either way.
void sorted_prefix_with_shuffled_ties(std::span<const double> asks,
                                      double threshold,
                                      std::vector<std::uint32_t>& order,
                                      rng::Rng& rng) {
  order.clear();
  // Full-book capacity, as the whole-book sort held: the kept count varies
  // per round, and steady-state rounds must never grow the buffer.
  order.reserve(asks.size());
  for (std::uint32_t i = 0; i < asks.size(); ++i) {
    if (asks[i] <= threshold) order.push_back(i);
  }
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (asks[a] != asks[b]) return asks[a] < asks[b];
#if RIT_BUG_ENABLED(RIT_BUG_CRA_TIEBREAK)
              return a > b;  // planted: ties enter the shuffle reversed
#else
              return a < b;
#endif
            });
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i + 1;
    while (j < order.size() && asks[order[j]] == asks[order[i]]) ++j;
    if (j - i > 1) rng.shuffle(std::span<std::uint32_t>(&order[i], j - i));
    i = j;
  }
}

// q of the first `n` ordered positions, uniformly. The pool is reserved to
// the round's budget (n never exceeds it), so once a workspace has seen a
// type's first round the sampling never touches the heap again.
void sample_positions(std::size_t n, std::uint32_t q, std::uint64_t budget,
                      rng::Rng& rng, CraWorkspace& ws) {
  ws.sample_pool.reserve(static_cast<std::size_t>(budget));
  rng.sample_without_replacement_into(n, q, ws.sample_pool, ws.sample_out);
}

}  // namespace

CraOutcome run_cra(std::span<const double> asks, const CraParams& params,
                   rng::Rng& rng) {
  CraWorkspace ws;
  CraOutcome out;
  run_cra(asks, params, rng, ws, out);
  return out;
}

void run_cra(std::span<const double> asks, const CraParams& params,
             rng::Rng& rng, CraWorkspace& ws, CraOutcome& out) {
  RIT_COUNTER_INC("cra.rounds");
  // Reset the outcome in place: `won` keeps its capacity across rounds.
  out.won.assign(asks.size(), false);
  out.clearing_price = 0.0;
  out.num_winners = 0;
  out.sample_min = 0.0;
  out.raw_count = 0;
  out.consensus_count = 0;
  out.used_budget_price = false;
  if (asks.empty() || params.q == 0) return;
  const std::uint64_t budget =
      static_cast<std::uint64_t>(params.q) + params.m_i;
  RIT_CHECK(budget > 0);

  if (params.price_mode == PriceMode::kOrderStatistic) {
    // Ablation arm: a plain (q+m_i+1)-st lowest price round. Needs at least
    // budget+1 asks to define the price; ties shuffled like the main path.
    if (asks.size() < budget + 1) return;
    // The price is the value at rank `budget`; only the asks at or below
    // it need ordering.
    ws.order.resize(asks.size());
    std::iota(ws.order.begin(), ws.order.end(), 0u);
    std::nth_element(ws.order.begin(),
                     ws.order.begin() + static_cast<std::ptrdiff_t>(budget),
                     ws.order.end(), [&](std::uint32_t a, std::uint32_t b) {
                       return asks[a] < asks[b];
                     });
    const double price = asks[ws.order[budget]];
    sorted_prefix_with_shuffled_ties(asks, price, ws.order, rng);
    RIT_CHECK(ws.order.size() > budget);
    RIT_DCHECK(asks[ws.order[budget]] == price);
    out.sample_min = price;
    out.raw_count = budget;
    out.consensus_count = budget;
    sample_positions(budget, params.q, budget, rng, ws);
    for (std::size_t i : ws.sample_out) out.won[ws.order[i]] = true;
    out.num_winners = params.q;
    out.clearing_price = price;
    RIT_COUNTER_ADD("cra.winners", out.num_winners);
    return;
  }

  // Phase 1 of the CRA round: threshold sampling plus consensus rounding of
  // the below-threshold count (steps 1-2 of the paper's Algorithm 2).
  std::uint64_t n_s = 0;
  {
    RIT_TRACE_SPAN("cra.phase1");
    // Step 1: Bernoulli(1/(q+m_i)) sample; s = min sampled value.
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
      if (params.empty_sample == EmptySamplePolicy::kNoWinners) return;
      // kAllAsks: act as if the threshold sits at the top of the book —
      // every ask is at or below it, and it is still a finite, IR-safe
      // price.
      s = *std::max_element(asks.begin(), asks.end());
    }
    out.sample_min = s;

    // Step 2: consensus-round the count of asks <= s.
    const double y = rng.uniform01();
    std::uint64_t raw = 0;
    for (double v : asks) {
      if (v <= s) ++raw;
    }
    out.raw_count = raw;
    n_s = consensus_round_down(raw, y, params.consensus_grid_base);
    out.consensus_count = n_s;
  }
  if (n_s == 0) return;
  const double s = out.sample_min;

  // Phase 2 of the CRA round: winner selection and pricing (steps 3-5).
  RIT_TRACE_SPAN("cra.phase2");
  sorted_prefix_with_shuffled_ties(asks, s, ws.order, rng);
  RIT_CHECK(ws.order.size() == out.raw_count);

  // Step 3: potential winners, in ascending-value order. They stay a
  // prefix of ws.order: the keep-sampling branch compacts the kept asks to
  // the front in place (write position <= read position).
  std::size_t chosen = 0;
  if (n_s <= budget) {
    chosen = static_cast<std::size_t>(n_s);
  } else {
    const double keep_p =
        static_cast<double>(budget) / (2.0 * static_cast<double>(n_s));
    for (std::uint64_t i = 0; i < n_s; ++i) {
      if (rng.bernoulli(keep_p)) ws.order[chosen++] = ws.order[i];
    }
  }

  // Step 4: if over the potential-winner budget, keep the cheapest q+m_i and
  // reprice at the first excluded ask (a (q+m_i+1)-st price auction).
  double price = s;
  if (chosen > budget) {
    price = asks[ws.order[budget]];  // (q+m_i+1)-st smallest chosen value
    chosen = static_cast<std::size_t>(budget);
    out.used_budget_price = true;
  }

  // Step 5: if more than q survive, q winners uniformly at random.
  const auto win = [&](std::uint32_t w) {
    RIT_DCHECK(asks[w] <= price);  // Lemma 6.1: winners never outbid the price
    out.won[w] = true;
  };
  if (chosen > params.q) {
    sample_positions(chosen, params.q, budget, rng, ws);
    for (std::size_t i : ws.sample_out) win(ws.order[i]);
    out.num_winners = params.q;
  } else {
    for (std::size_t i = 0; i < chosen; ++i) win(ws.order[i]);
    out.num_winners = static_cast<std::uint32_t>(chosen);
  }
  out.clearing_price = out.num_winners == 0 ? 0.0 : price;
  RIT_COUNTER_ADD("cra.winners", out.num_winners);
}

}  // namespace rit::core
