// Mechanism configuration knobs.
//
// Defaults reproduce the paper (H = 0.8, discount base 1/2). The remaining
// knobs parameterize the ambiguities catalogued in DESIGN.md §1 so the
// ablation benches can quantify them.
#pragma once

#include <cstdint>
#include <optional>

namespace rit::core {

/// Version of the mechanism's RNG draw sequence. Two builds with the same
/// version consume identical draws for identical inputs, so their outcomes
/// agree bit for bit at a shared seed. Bump it whenever an algorithm
/// change keeps the outcome distribution but reorders or drops draws; it
/// is bound into checkpoint/shard identity and the `.ritcase` header, so
/// artifacts of an older stream are refused instead of silently mixed.
///   1: CRA phase 2 tie-shuffled the whole unit book.
///   2: CRA phase 2 orders and tie-shuffles only the asks <= its threshold.
inline constexpr std::uint32_t kMechanismStreamVersion = 2;

/// What CRA does when its Bernoulli(1/(q+m_i)) sample S comes back empty
/// (Alg. 1 line 2 leaves s = min S undefined in that case).
enum class EmptySamplePolicy {
  /// Treat the threshold as the largest ask value: the consensus count is
  /// taken over all asks and the price stays finite and IR-safe. This keeps
  /// the round productive and is the default.
  kAllAsks,
  /// Abort the round with no winners (a strictly conservative reading).
  kNoWinners,
};

/// How many CRA rounds the auction phase may spend per task type.
enum class RoundBudgetPolicy {
  /// Exactly Alg. 3 line 7: at most `max` rounds, preserving the
  /// (K_max, H) guarantee. At the paper's own evaluation scale this budget
  /// is 1-2 rounds per type and the allocation frequently cannot complete
  /// (the run then fails closed) — see DESIGN.md ambiguity #3.
  kTheoretical,
  /// Keep running rounds until the demand is filled, supply is exhausted,
  /// or `stall_round_limit` consecutive rounds make no progress. This is
  /// the only reading under which the paper's Sec. 7 figures are
  /// reproducible; the achieved truthfulness bound (per-round bound ^
  /// rounds actually used) is reported in TypeAuctionInfo/RitResult so the
  /// weakening is visible rather than silent.
  kRunToCompletion,
};

/// How CRA selects winners and sets the per-round price — the ablation knob
/// behind the paper's central design argument (Sec. 4-A / Lemma 6.2).
enum class PriceMode {
  /// The paper's Algorithm 1: a sampled threshold plus consensus-rounded
  /// winner count. Coalitions of K_max asks only move the outcome with
  /// probability bounded by Lemma 6.2.
  kConsensus,
  /// The strawman: a deterministic (q+m_i+1)-st lowest price auction per
  /// round (each round is exactly the k-th price auction of Sec. 4-A,
  /// truthful for independent bidders but price-manipulable by coalitions
  /// and thus by sybil identities). bench_ablation_consensus and the
  /// collusion tests quantify the difference.
  kOrderStatistic,
};

struct RitConfig {
  /// The paper's H: RIT is truthful and sybil-proof with probability >= H.
  double h = 0.8;

  PriceMode price_mode = PriceMode::kConsensus;

  RoundBudgetPolicy round_budget_policy = RoundBudgetPolicy::kTheoretical;

  /// kRunToCompletion only: give up on a type after this many consecutive
  /// zero-winner rounds (e.g. a lone remaining ask can never clear the
  /// consensus hurdle; see cra.h).
  std::uint32_t stall_round_limit = 100;

  /// Base of the per-depth discount in the payment determination phase
  /// (Alg. 3 line 24 uses 1/2). Must be in (0, 1).
  double discount_base = 0.5;

  /// Base c of the consensus grid {c^(z+y)} used by CRA's rounding step —
  /// and therefore the base of the log in the Lemma 6.2 failure term
  /// (a coalition moving the count by k flips the consensus on a y-set of
  /// measure log_c(z/(z-k))). 2.0 is the paper's Goldberg–Hartline setting
  /// (DESIGN.md ambiguity #1); larger bases buy collusion protection at
  /// the cost of coarser winner counts (bench_ablation_gridbase).
  double consensus_log_base = 2.0;

  EmptySamplePolicy empty_sample = EmptySamplePolicy::kAllAsks;

  /// The literal `max` formula of Alg. 3 line 7 yields 0 rounds whenever
  /// m_i is small relative to K_max (e.g. the paper's own Fig. 9 setup);
  /// clamping to one round keeps the mechanism productive at the cost of a
  /// weaker probability bound (flagged in RitResult::probability_degraded).
  /// See DESIGN.md ambiguity #3.
  bool clamp_min_one_round = true;

  /// Overrides the K_max used in the round-budget formula. By default the
  /// platform uses max_j k_j over submitted asks.
  std::optional<std::uint32_t> k_max_override;

  /// Record a per-round trace (price, winners, consensus diagnostics) in
  /// TypeAuctionInfo::rounds. Off by default: traces cost memory
  /// proportional to rounds and exist for debugging/teaching, not for the
  /// mechanism itself.
  bool record_round_trace = false;

  /// Alg. 3 lines 26-28: if the job cannot be fully allocated within the
  /// round budget, zero every allocation and payment. Disable to keep the
  /// partial allocation (useful for diagnostics; violates the paper).
  bool zero_on_failure = true;

  /// Worker threads for the deterministic intra-trial parallel passes (the
  /// payment determination phase today; tree/graph construction take the
  /// matching sim::Scenario::intra_threads knob). Every parallel pass uses
  /// a static blocked partition with disjoint writes, so results are
  /// bit-identical at any setting — this knob trades wall-clock for cores,
  /// never output. 1 = serial (default); 0 = one per hardware thread.
  /// Deliberately excluded from result/checkpoint identity: it cannot
  /// change what a run computes.
  unsigned intra_threads = 1;
};

}  // namespace rit::core
