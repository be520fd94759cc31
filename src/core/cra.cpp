#include "core/cra.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

// Positions past any book: the phase-1 sample walks unit positions before
// it knows the book's total, and GeometricGaps draws the same either way.
constexpr std::uint64_t kNoEnd = std::numeric_limits<std::uint64_t>::max();

// Lays out the units of ws.runs (runs with a count and a value <= the
// threshold) in ascending-value order as slices of ws.order, and returns
// how many units it laid out. Equal asks must be treated equally
// ("anonymity"), otherwise "the smallest n asks" would systematically
// favour whichever user Extract happened to expand first, so a tie group
// of two or more runs is expanded to single units in run order and
// shuffled uniformly. A tie group of one run stays one slice: its units
// share owner and value, and no permutation of them changes the owner
// sequence. Runs are ordered by (value, run index), the run-level form of
// a stable unit sort. O(r log r) for r runs plus the units of tied runs.
std::uint64_t order_units(std::span<const double> values,
                          std::span<const std::uint32_t> counts,
                          CraWorkspace& ws, rng::Rng& rng) {
  std::vector<std::uint32_t>& runs = ws.runs;
  std::sort(runs.begin(), runs.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (values[a] != values[b]) return values[a] < values[b];
#if RIT_BUG_ENABLED(RIT_BUG_CRA_TIEBREAK)
    return a > b;  // planted: tied runs enter the shuffle reversed
#else
    return a < b;
#endif
  });
  ws.order.clear();
  // One slice per run unless there are ties; the capacity is the book's
  // run count so steady-state tie-free rounds never grow the buffer.
  ws.order.reserve(values.size());
  std::uint64_t units = 0;
  for (std::size_t i = 0; i < runs.size();) {
    std::size_t j = i + 1;
    while (j < runs.size() && values[runs[j]] == values[runs[i]]) ++j;
    if (j - i == 1) {
      ws.order.push_back({runs[i], counts[runs[i]]});
      units += counts[runs[i]];
    } else {
      const std::size_t first = ws.order.size();
      for (std::size_t k = i; k < j; ++k) {
        const std::uint32_t run = runs[k];
        ws.order.insert(ws.order.end(), counts[run], RunSlice{run, 1});
        units += counts[run];
      }
      rng.shuffle(std::span<RunSlice>(ws.order).subspan(first));
    }
    i = j;
  }
  return units;
}

// Cuts ws.order down to its first `n` units (n <= its unit total): whole
// slices, the last one possibly partial.
void keep_first_units(std::vector<RunSlice>& order, std::uint64_t n) {
  std::size_t i = 0;
  while (n > 0) {
    RunSlice& slice = order[i++];
    if (slice.units >= n) {
      slice.units = static_cast<std::uint32_t>(n);
      break;
    }
    n -= slice.units;
  }
  order.resize(i);
}

// Step 5 and the outcome: the potential winners are the `chosen` units of
// ws.order. If more than q, q of their positions win uniformly at random
// (Fisher-Yates over positions), and one sweep over the slices credits
// each with its picked positions: O(chosen), no sort.
void pick_winners(std::uint64_t chosen, std::uint32_t q, rng::Rng& rng,
                  CraWorkspace& ws, CraOutcome& out) {
  if (chosen <= q) {
    out.winners.assign(ws.order.begin(), ws.order.end());
    out.num_winners = static_cast<std::uint32_t>(chosen);
    return;
  }
  rng.sample_without_replacement_into(static_cast<std::size_t>(chosen), q,
                                      ws.sample_pool, ws.sample_out);
  ws.picked.assign(static_cast<std::size_t>(chosen), 0);
  for (const std::size_t p : ws.sample_out) ws.picked[p] = 1;
  std::size_t pos = 0;
  for (const RunSlice& slice : ws.order) {
    std::uint32_t hits = 0;
    for (std::uint32_t u = 0; u < slice.units; ++u) hits += ws.picked[pos++];
    if (hits > 0) out.winners.push_back({slice.run, hits});
  }
  out.num_winners = q;
}

}  // namespace

void run_cra(std::span<const double> values,
             std::span<const std::uint32_t> counts, const CraParams& params,
             rng::Rng& rng, CraWorkspace& ws, CraOutcome& out) {
  RIT_COUNTER_INC("cra.rounds");
  RIT_CHECK_MSG(values.size() == counts.size(),
                "run book has " << values.size() << " values but "
                                << counts.size() << " counts");
  RIT_CHECK(values.size() <= std::numeric_limits<std::uint32_t>::max());
  // Reset the outcome in place: `winners` keeps its capacity across rounds.
  out.winners.clear();
  out.clearing_price = 0.0;
  out.num_winners = 0;
  out.sample_min = 0.0;
  out.raw_count = 0;
  out.consensus_count = 0;
  out.used_budget_price = false;
  if (values.empty() || params.q == 0) return;
  const std::uint64_t budget =
      static_cast<std::uint64_t>(params.q) + params.m_i;
  RIT_CHECK(budget > 0);
  // Step 5 samples q of at most q+m_i positions and yields at most q
  // winning runs. A type's first round has the largest q and budget, so
  // reserving here keeps every later round off the heap.
  ws.sample_pool.reserve(static_cast<std::size_t>(budget));
  ws.picked.reserve(static_cast<std::size_t>(budget));
  ws.sample_out.reserve(params.q);
  out.winners.reserve(params.q);
  // Capacity for the runs <= the threshold, at the book's run count: the
  // kept count varies per round, and steady-state rounds must never grow
  // the buffer.
  ws.runs.clear();
  ws.runs.reserve(values.size());

  if (params.price_mode == PriceMode::kOrderStatistic) {
    // Ablation arm: a plain (q+m_i+1)-st lowest price round. Needs at least
    // budget+1 asks to define the price; ties shuffled like the main path.
    std::uint64_t units = 0;
    for (std::uint32_t r = 0; r < values.size(); ++r) {
      if (counts[r] == 0) continue;
      units += counts[r];
      ws.runs.push_back(r);
    }
    if (units < budget + 1) return;
    // The price is the value at unit rank `budget`. The budget+1 cheapest
    // runs hold at least budget+1 units, so it is among them: select
    // those, order them, and walk their counts.
    const auto value_less = [&](std::uint32_t a, std::uint32_t b) {
      return values[a] < values[b];
    };
    const std::size_t last = std::min<std::size_t>(
        static_cast<std::size_t>(budget), ws.runs.size() - 1);
    const auto cut = ws.runs.begin() + static_cast<std::ptrdiff_t>(last) + 1;
    std::nth_element(ws.runs.begin(), cut - 1, ws.runs.end(), value_less);
    std::sort(ws.runs.begin(), cut, value_less);
    double price = 0.0;
    std::uint64_t below = 0;
    for (auto it = ws.runs.begin(); it != cut; ++it) {
      below += counts[*it];
      if (below > budget) {
        price = values[*it];
        break;
      }
    }
    ws.runs.clear();
    for (std::uint32_t r = 0; r < values.size(); ++r) {
      if (counts[r] != 0 && values[r] <= price) ws.runs.push_back(r);
    }
    RIT_CHECK(order_units(values, counts, ws, rng) > budget);
    keep_first_units(ws.order, budget);
    out.sample_min = price;
    out.raw_count = budget;
    out.consensus_count = budget;
    pick_winners(budget, params.q, rng, ws, out);
    out.clearing_price = price;
    RIT_COUNTER_ADD("cra.winners", out.num_winners);
    return;
  }

  // Phase 1 of the CRA round: threshold sampling plus consensus rounding of
  // the below-threshold count (steps 1-2 of the paper's Algorithm 2).
  std::uint64_t n_s = 0;
  {
    RIT_TRACE_SPAN("cra.phase1");
    // Step 1: every unit ask joins the sample with probability
    // 1/(q+m_i); s = min sampled value. The sample walks unit positions
    // with geometric gaps, one draw per sampled unit, and a position
    // inside run r samples r's value.
    const rng::GeometricGaps sample(1.0 / static_cast<double>(budget));
    double s = std::numeric_limits<double>::infinity();
    double top = -std::numeric_limits<double>::infinity();
    bool sampled_any = false;
    std::uint64_t units = 0;  // unit positions before the current run
    std::uint64_t next = 0;   // next sampled unit position
    // An empty run adds nothing to `units`, so `next < units` never fires
    // on it: consumed runs need no branch of their own once the first
    // unit has been seen.
    for (std::uint32_t r = 0; r < values.size(); ++r) {
      if (units == 0) {
        // The first draw waits for the first unit, so an empty book draws
        // nothing.
        if (counts[r] == 0) continue;
        next = sample.next(rng, 0, kNoEnd);
      }
      units += counts[r];
      top = counts[r] != 0 ? std::max(top, values[r]) : top;
      if (next < units) {
        sampled_any = true;
        s = std::min(s, values[r]);
        do {
          next = sample.next(rng, next + 1, kNoEnd);
        } while (next < units);
      }
    }
    if (units == 0) return;
    if (!sampled_any) {
      if (params.empty_sample == EmptySamplePolicy::kNoWinners) return;
      // kAllAsks: act as if the threshold sits at the top of the book —
      // every ask is at or below it, and it is still a finite, IR-safe
      // price.
      s = top;
    }
    out.sample_min = s;

    // Step 2: consensus-round the count of unit asks <= s, collecting
    // their runs for phase 2 on the way.
    const double y = rng.uniform01();
    std::uint64_t raw = 0;
    for (std::uint32_t r = 0; r < values.size(); ++r) {
      if (counts[r] != 0 && values[r] <= s) {
        raw += counts[r];
        ws.runs.push_back(r);
      }
    }
    out.raw_count = raw;
    n_s = consensus_round_down(raw, y, params.consensus_grid_base);
    out.consensus_count = n_s;
  }
  if (n_s == 0) return;

  // Phase 2 of the CRA round: winner selection and pricing (steps 3-5).
  RIT_TRACE_SPAN("cra.phase2");
  RIT_CHECK(order_units(values, counts, ws, rng) == out.raw_count);

  // Step 3: potential winners, in ascending-value order, as a prefix of
  // ws.order.
  keep_first_units(ws.order, n_s);
  std::uint64_t chosen = 0;
  double price = out.sample_min;
  if (n_s <= budget) {
    chosen = n_s;
  } else {
    // Keep each of the n_s cheapest units with probability
    // (q+m_i)/(2 n_s), by geometric gaps over their positions. Step 4 only
    // looks at the budget+1 cheapest kept units, so the walk stops there.
    // Each slice yields at most one kept slice, written in place at or
    // before its own position.
    const rng::GeometricGaps keep(static_cast<double>(budget) /
                                  (2.0 * static_cast<double>(n_s)));
    std::uint64_t pos = keep.next(rng, 0, n_s);
    std::uint64_t end = 0;
    std::size_t kept_slices = 0;
    for (std::size_t i = 0; pos < n_s && chosen <= budget; ++i) {
      const RunSlice slice = ws.order[i];
      end += slice.units;
      std::uint32_t hits = 0;
      while (pos < end && chosen <= budget) {
        ++hits;
        if (++chosen <= budget) pos = keep.next(rng, pos + 1, n_s);
      }
      if (hits > 0) ws.order[kept_slices++] = {slice.run, hits};
    }
    ws.order.resize(kept_slices);

    // Step 4: if over the potential-winner budget, keep the cheapest q+m_i
    // and reprice at the first excluded unit (a (q+m_i+1)-st price
    // auction).
    if (chosen > budget) {
      RunSlice& last = ws.order.back();
      price = values[last.run];  // (q+m_i+1)-st smallest kept value
      if (--last.units == 0) ws.order.pop_back();
      chosen = budget;
      out.used_budget_price = true;
    }
  }

  // Step 5: if more than q survive, q winners uniformly at random.
  pick_winners(chosen, params.q, rng, ws, out);
  // Lemma 6.1: winners never outbid the price.
  RIT_DCHECK(std::all_of(
      out.winners.begin(), out.winners.end(), [&](const RunSlice& w) {
        return values[w.run] <= price && w.units <= counts[w.run];
      }));
  out.clearing_price = out.num_winners == 0 ? 0.0 : price;
  RIT_COUNTER_ADD("cra.winners", out.num_winners);
}

}  // namespace rit::core
