// Payment determination phase (Algorithm 3, lines 22-28).
//
// The final payment of participant j is
//
//   p_j = p_j^A  +  sum over strict descendants i of j with t_i != t_j of
//                   base^(r_i) * p_i^A
//
// where r_i is the *absolute* depth of the contributor i (platform root at
// depth 0) and base = 1/2 in the paper. Two properties hinge on the details:
//
//  * contributors of the *same* task type are excluded — a user's sybil
//    identities necessarily share its type (Sec. 3-B), so they can never
//    feed tree rewards back to their owner (Lemma 6.4);
//  * the weight decays with absolute depth, so inserting a fake identity
//    above one's real descendants strictly shrinks their contribution.
//
// Two implementations are provided: a transparent O(N * depth) reference
// and the production pass used by run_rit(), which costs O(N) sequential
// work plus O(|S| log W) for the W contributors (only winners have a
// non-zero p^A) and the union S of their ancestors, |S| <= min(N, W*depth);
// property tests pin the two to each other on random trees.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "tree/incentive_tree.h"

namespace rit::core {

/// Reference implementation: for every participant, walk its ancestors and
/// push its contribution up. O(sum of depths); used by tests and tiny demos.
std::vector<double> tree_payments_reference(
    const tree::IncentiveTree& tree, std::span<const TaskType> types,
    std::span<const double> auction_payments, double discount_base);

/// Production implementation: a dense prefix over the preorder layout plus
/// per-type prefix sums over the contributors only, queried at the
/// contributors' ancestors; O(N + |S| log W) time, O(N) memory. Returns the
/// final payment vector p (participant-indexed, like the inputs).
std::vector<double> tree_payments(const tree::IncentiveTree& tree,
                                  std::span<const TaskType> types,
                                  std::span<const double> auction_payments,
                                  double discount_base);

/// Reusable scratch for tree_payments_into: the dense contribution prefix,
/// the contributors' per-type prefix structure flattened into CSR arrays
/// (one offsets/positions/prefix triple instead of a vector-of-vectors per
/// type), the ancestor marks and the depth-discount memo. The
/// contributor-indexed buffers are reserved to the participant count, so
/// every buffer reaches its high-water capacity on the first run over a
/// tree and a steady-state payment pass performs no allocations, however
/// the winner set varies. Total time O(N + |S| log W).
struct PaymentWorkspace {
  std::vector<double> contrib_prefix;        ///< per preorder pos, size nodes+1
  std::vector<double> depth_discount;        ///< base^d memo, size max_depth+1
  std::vector<std::uint32_t> type_offsets;   ///< per type, size num_types+1
  std::vector<std::uint32_t> type_cursor;    ///< counting-sort scratch
  std::vector<std::uint32_t> type_positions; ///< per contributor, ascending
  std::vector<double> type_prefix;           ///< inclusive per-type prefix sums
  std::vector<std::uint64_t> marked;         ///< one bit per node: in S
};

/// Scratch-reusing, optionally parallel form of tree_payments. Writes the
/// final payments into `out` (resized to the participant count, reusing
/// capacity). The subtree queries run blocked across `threads` workers
/// (resolve_threads semantics; <= 1 runs inline); every write is to a
/// disjoint index, so the result is bit-identical to the serial pass — and
/// to tree_payments() — at any thread count.
void tree_payments_into(const tree::IncentiveTree& tree,
                        std::span<const TaskType> types,
                        std::span<const double> auction_payments,
                        double discount_base, unsigned threads,
                        PaymentWorkspace& ws, std::vector<double>& out);

/// The solicitation premium sum_j (p_j - p_j^A). Sec. 7-C bounds it by
/// sum_j p_j^A; tests assert the bound on every run.
double solicitation_premium(std::span<const double> payments,
                            std::span<const double> auction_payments);

}  // namespace rit::core
