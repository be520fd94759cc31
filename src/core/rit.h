// RIT (Algorithm 3): the full Robust Incentive Tree mechanism.
//
// Phase 1 (auction): for every task type tau_i, run CRA rounds over the
// still-unconsumed unit asks until either all m_i tasks are allocated or the
// per-type round budget `max` is exhausted. The budget is what makes the
// whole phase (K_max, H)-truthful: each round is K_max-truthful with
// probability >= P_round (Lemma 6.2), the per-type target is
// eta = H^(1/m), and P_round^max >= eta (Lemma 6.3).
//
// Phase 2 (payment determination): if and only if the job was fully
// allocated, pay every participant its auction payment plus the depth-
// discounted auction payments of its different-type descendants
// (payment.h). Otherwise the run fails closed: all allocations and
// payments are zeroed (Alg. 3 line 27), because a partially-paid partial
// allocation would break the incentive analysis.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/cra.h"
#include "core/extract.h"
#include "core/payment.h"
#include "core/types.h"
#include "rng/rng.h"
#include "tree/incentive_tree.h"

namespace rit::core {

/// Round budget for one task type (Alg. 3 line 7 / Lemma 6.3).
struct RoundBudget {
  /// Worst-case (q -> 0) per-round truthfulness lower bound of Lemma 6.2.
  double per_round_bound{0.0};
  /// Maximum number of CRA rounds for this type.
  std::uint32_t max_rounds{0};
  /// True when per_round_bound was non-positive or the floor() came out 0
  /// and RitConfig::clamp_min_one_round forced a round anyway — the H
  /// guarantee does not hold for such parameters (DESIGN.md ambiguity #3).
  bool degraded{false};
};

/// Computes the Lemma 6.2 bound and the resulting round budget.
/// eta is the per-type truthfulness target H^(1/m).
RoundBudget compute_round_budget(std::uint32_t m_i, std::uint32_t k_max,
                                 double eta, const RitConfig& config);

/// One CRA round as seen from outside (recorded when
/// RitConfig::record_round_trace is set).
struct RoundTrace {
  std::uint32_t round{0};  // 0-based within the type
  double clearing_price{0.0};
  std::uint32_t winners{0};
  std::uint32_t q_before{0};  // unallocated tasks entering the round
  std::uint64_t raw_count{0};
  std::uint64_t consensus_count{0};
  bool used_budget_price{false};
};

/// Per-type diagnostics of the auction phase.
struct TypeAuctionInfo {
  TaskType type;
  std::uint32_t demanded{0};   // m_i
  std::uint32_t allocated{0};  // tasks actually assigned
  std::uint32_t rounds_used{0};
  RoundBudget budget;
  /// Lower bound on the probability that every round run for this type was
  /// K_max-truthful: per_round_bound ^ rounds_used (0 when the bound is
  /// vacuous). Under kTheoretical this is >= eta by construction; under
  /// kRunToCompletion it reports how much of the guarantee was spent.
  double achieved_bound{1.0};
  /// Per-round trace; empty unless RitConfig::record_round_trace.
  std::vector<RoundTrace> rounds;
};

struct RitResult {
  /// True iff every task of the job was allocated (payments are live).
  bool success{false};

  /// x_j: tasks allocated to participant j. Zeroed on failure.
  std::vector<std::uint32_t> allocation;
  /// p_j^A: auction payments (phase 1). Zeroed on failure.
  std::vector<double> auction_payment;
  /// p_j: final payments (phase 2). Zeroed on failure; equal to
  /// auction_payment when the tree carries no cross-type descendants.
  std::vector<double> payment;

  std::vector<TypeAuctionInfo> type_info;
  /// eta = H^(1/m) actually used.
  double eta{0.0};
  /// K_max the budget formula used (observed max k_j unless overridden).
  std::uint32_t k_max{0};
  /// True if any type's round budget was degraded (see RoundBudget) or, in
  /// kRunToCompletion mode, any type spent more rounds than the H-budget.
  bool probability_degraded{false};
  /// Product of the per-type achieved bounds: a lower bound on the
  /// probability that the whole auction phase was K_max-truthful. Equals at
  /// least H under kTheoretical with healthy parameters.
  double achieved_probability{1.0};
  /// Wall-clock milliseconds spent in phase 1 (the `rit.auction_phase`
  /// span) of the run that filled this result: the auction-phase running
  /// time of Fig. 8. A measurement, not an outcome, so result_io,
  /// checkpoints and hashes never write it.
  double auction_phase_ms{0.0};

  /// U_j = p_j - x_j * c_j for participant j given its true unit cost.
  double utility_of(std::uint32_t participant, double unit_cost) const {
    return core::utility(payment[participant], allocation[participant],
                         unit_cost);
  }
  /// Same, but paying only the auction payment (the "auction phase" series
  /// of Figs. 6-8).
  double auction_utility_of(std::uint32_t participant,
                            double unit_cost) const {
    return core::utility(auction_payment[participant],
                         allocation[participant], unit_cost);
  }

  double total_payment() const;
  double total_auction_payment() const;
};

/// Reusable scratch for run_rit / run_auction_phase. One mechanism run
/// executes many CRA rounds, and a sweep executes many mechanism runs;
/// keeping one workspace per thread means the per-round buffers (the run
/// book, CRA's order and sampling scratch) are heap-allocated once and
/// then reused at their high-water capacity. Contents are scratch only —
/// nothing carries state between runs.
struct RitWorkspace {
  CraWorkspace cra;
  CraOutcome round;
  /// Per-type run book over the ask vector, rebuilt once per auction; each
  /// round reads only its own type's runs, and winners consume their
  /// `remaining` units in place.
  AskTypeIndex type_index;
  PaymentWorkspace payment;
  std::vector<TaskType> types;
};

/// Runs the complete mechanism. `asks[j]` is participant j's sealed bid;
/// participant j sits at tree node j+1. Throws CheckFailure on malformed
/// input (ask/tree size mismatch, unknown task types, zero quantities).
RitResult run_rit(const Job& job, std::span<const Ask> asks,
                  const tree::IncentiveTree& tree, const RitConfig& config,
                  rng::Rng& rng);

/// Scratch-reusing form: identical draws and result, but all per-round
/// buffers live in `ws`. The convenience overload above delegates to this
/// with a fresh workspace.
RitResult run_rit(const Job& job, std::span<const Ask> asks,
                  const tree::IncentiveTree& tree, const RitConfig& config,
                  rng::Rng& rng, RitWorkspace& ws);

/// Runs only the auction phase (both result payment vectors are set to the
/// auction payments). run_rit runs exactly this as its phase 1, on the same
/// random stream, and then adds tree_payments(); the tests use the
/// standalone form to pin phase 1 on its own.
RitResult run_auction_phase(const Job& job, std::span<const Ask> asks,
                            const RitConfig& config, rng::Rng& rng);

/// Result-reusing forms: identical draws and values, but the result's
/// vectors are refilled in place, so a sweep that keeps one RitResult per
/// worker performs no steady-state allocations in either phase. The
/// RitResult-returning overloads delegate here.
void run_rit_into(const Job& job, std::span<const Ask> asks,
                  const tree::IncentiveTree& tree, const RitConfig& config,
                  rng::Rng& rng, RitWorkspace& ws, RitResult& out);

/// See run_rit_into.
void run_auction_phase_into(const Job& job, std::span<const Ask> asks,
                            const RitConfig& config, rng::Rng& rng,
                            RitWorkspace& ws, RitResult& out);

}  // namespace rit::core
