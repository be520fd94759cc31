// CRA (Algorithm 1): the Collusion Resistant Auction.
//
// One CRA round allocates at most q tasks of one type among unit asks. It is
// the consensus-estimate construction of Goldberg & Hartline [12] adapted to
// a procurement (reverse) auction:
//
//   1. sample a random threshold s = min of a sparse Bernoulli sample of the
//      asks (every ask independently with probability 1/(q+m_i));
//   2. round the count of asks <= s *down to a randomized consensus value*
//      n_s in {2^(z+y) : z integer} with a single shared y ~ U[0,1). A
//      coalition of k bidders can move the raw count by at most k, which
//      only rarely moves the consensus value — this is what buys
//      k-truthfulness with high probability (Lemma 6.2);
//   3. keep the n_s cheapest asks (or, if n_s exceeds the q+m_i potential
//      winner budget, keep each of the n_s cheapest independently with
//      probability (q+m_i)/(2*n_s));
//   4. if still over budget, fall back to a (q+m_i+1)-st price auction;
//   5. if more than q asks survive, pick q winners uniformly at random.
//
// Winners are each allocated one task and paid the clearing price; losers
// get nothing. The clearing price is >= every winning ask value, which
// gives per-round individual rationality (Lemma 6.1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.h"
#include "rng/rng.h"

namespace rit::core {

struct CraParams {
  /// q: number of tasks still unallocated for this type.
  std::uint32_t q{0};
  /// m_i: the job's total demand for this type (potential-winner budget is
  /// q + m_i).
  std::uint32_t m_i{0};
  EmptySamplePolicy empty_sample = EmptySamplePolicy::kAllAsks;
  /// kConsensus is the paper's Algorithm 1; kOrderStatistic replaces steps
  /// 1-4 with a deterministic (q+m_i+1)-st price rule (ablation only).
  PriceMode price_mode = PriceMode::kConsensus;
  /// Base c of the consensus grid {c^(z+y)}. The paper uses 2. A larger
  /// base widens the grid cells: a coalition moving the raw count by k
  /// changes the consensus value on a y-set of measure log_c(z/(z-k)) —
  /// SMALLER for larger c (more collusion protection) at the cost of
  /// rounding the winner count down more aggressively (fewer winners per
  /// round). bench_ablation_gridbase quantifies the trade-off.
  double consensus_grid_base = 2.0;
};

struct CraOutcome {
  /// won[w]: whether unit ask w was allocated one task this round.
  std::vector<bool> won;
  /// Payment per winning ask (the paper's s; 0 when there are no winners).
  double clearing_price{0.0};
  std::uint32_t num_winners{0};

  // --- diagnostics (tests and the ablation benches read these) ---
  /// Threshold drawn in step 1; the largest ask value when the sample was
  /// empty under EmptySamplePolicy::kAllAsks.
  double sample_min{0.0};
  /// Raw count of asks <= sample_min (the paper's z_s(alpha)).
  std::uint64_t raw_count{0};
  /// Consensus-rounded count (the paper's n_s).
  std::uint64_t consensus_count{0};
  /// Whether step 4 replaced the sampled threshold by a (q+m_i+1)-st price.
  bool used_budget_price{false};
};

/// Reusable scratch for run_cra. RIT runs one CRA round per type per
/// round-budget step, and a sweep runs millions of rounds; without reuse
/// every round rebuilds the `order` vector (plus the Fisher-Yates sampling
/// pool) on the heap. Keep one workspace per thread and pass it to every
/// round: at steady state (buffers grown to the population size) a round
/// performs no heap allocation. Contents are scratch only — nothing in
/// here carries state between rounds.
struct CraWorkspace {
  /// The asks at or below the round's threshold in tie-shuffled ascending
  /// order; steps 3-5 narrow the potential winners to a prefix of it.
  std::vector<std::uint32_t> order;
  std::vector<std::size_t> sample_pool;
  std::vector<std::size_t> sample_out;
};

/// Runs one CRA round over the unit-ask values `asks` (the alpha vector
/// produced by Extract). Deterministic given `rng` state.
CraOutcome run_cra(std::span<const double> asks, const CraParams& params,
                   rng::Rng& rng);

/// Allocation-free form: identical draws and outcome, but all scratch lives
/// in `ws` and the outcome is written into `out` (whose `won` vector is
/// reused). The convenience overload above delegates to this with a fresh
/// workspace.
void run_cra(std::span<const double> asks, const CraParams& params,
             rng::Rng& rng, CraWorkspace& ws, CraOutcome& out);

/// The consensus rounding of Lemma 6.2 in isolation: the largest value
/// base^(z+y) <= count (z integer), or 0 if count == 0 or every such value
/// floors to zero. Exposed for direct unit testing.
std::uint64_t consensus_round_down(std::uint64_t count, double y,
                                   double base = 2.0);

}  // namespace rit::core
