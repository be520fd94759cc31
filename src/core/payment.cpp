#include "core/payment.h"

#include <algorithm>
#include <cmath>
#include <functional>

// rit-lint: allow-file(testkit-only-injection)
#include "common/bug_inject.h"
#include "common/check.h"
#include "common/parallel.h"
#include "obs/obs.h"

namespace rit::core {

namespace {
void validate_inputs(const tree::IncentiveTree& tree,
                     std::span<const TaskType> types,
                     std::span<const double> auction_payments,
                     double discount_base) {
  RIT_CHECK_MSG(types.size() == tree.num_participants(),
                "types size " << types.size() << " != participants "
                              << tree.num_participants());
  RIT_CHECK(auction_payments.size() == types.size());
  RIT_CHECK_MSG(discount_base > 0.0 && discount_base < 1.0,
                "discount base must lie in (0,1), got " << discount_base);
}

/// base^depth with depth potentially in the thousands (chain-tree stress
/// tests): std::pow underflows cleanly to 0, which is the behaviour we want.
double discount(double base, std::uint32_t depth) {
  return std::pow(base, static_cast<double>(depth));
}
}  // namespace

std::vector<double> tree_payments_reference(
    const tree::IncentiveTree& tree, std::span<const TaskType> types,
    std::span<const double> auction_payments, double discount_base) {
  validate_inputs(tree, types, auction_payments, discount_base);
  std::vector<double> p(auction_payments.begin(), auction_payments.end());
  for (std::uint32_t i = 0; i < tree.num_participants(); ++i) {
    const std::uint32_t node = tree::node_of_participant(i);
    const double contribution =
        discount(discount_base, tree.depth(node)) * auction_payments[i];
    if (contribution == 0.0) continue;
    for (std::uint32_t anc = tree.parent(node); anc != 0;
         anc = tree.parent(anc)) {
      const std::uint32_t j = tree::participant_of_node(anc);
      if (types[j] != types[i]) p[j] += contribution;
    }
  }
  return p;
}

std::vector<double> tree_payments(const tree::IncentiveTree& tree,
                                  std::span<const TaskType> types,
                                  std::span<const double> auction_payments,
                                  double discount_base) {
  PaymentWorkspace ws;
  std::vector<double> p;
  tree_payments_into(tree, types, auction_payments, discount_base,
                     /*threads=*/1, ws, p);
  return p;
}

void tree_payments_into(const tree::IncentiveTree& tree,
                        std::span<const TaskType> types,
                        std::span<const double> auction_payments,
                        double discount_base, unsigned threads,
                        PaymentWorkspace& ws, std::vector<double>& out) {
  RIT_TRACE_SPAN("payment.extract");
  validate_inputs(tree, types, auction_payments, discount_base);
  const std::uint32_t n = tree.num_participants();
  out.assign(auction_payments.begin(), auction_payments.end());
  if (n == 0) return;

  // base^depth memo: depths repeat across the whole tree, so one pow per
  // distinct depth replaces one per node. std::pow is a pure function of
  // (base, depth), so the memo changes nothing bitwise.
  ws.depth_discount.resize(static_cast<std::size_t>(tree.max_depth()) + 1);
  for (std::size_t d = 0; d < ws.depth_discount.size(); ++d) {
#if RIT_BUG_ENABLED(RIT_BUG_DISCOUNT_DEPTH)
    // planted: every contribution discounted one level too deep
    ws.depth_discount[d] = discount(discount_base,
                                    static_cast<std::uint32_t>(d) + 1);
#else
    ws.depth_discount[d] = discount(discount_base,
                                    static_cast<std::uint32_t>(d));
#endif
  }

  // Contribution of each node laid out in preorder; a subtree is then a
  // contiguous range, so "sum of contributions in my subtree" is a prefix-
  // sum difference. Stage 1 computes per-node contributions into the
  // not-yet-scanned prefix slots — disjoint writes, so the fill runs
  // blocked across workers.
  const auto preorder = tree.preorder();
  const std::size_t nodes = preorder.size();
  ws.contrib_prefix.resize(nodes + 1);
  ws.contrib_prefix[0] = 0.0;
  // Both blocked passes hand their body over by std::cref: a std::function
  // wrapping a reference_wrapper stores it inline, where a by-reference
  // lambda this size would be copied to the heap on every run.
  const auto contribute = [&](std::uint64_t begin, std::uint64_t end,
                              unsigned) {
    for (std::uint64_t pos = begin; pos < end; ++pos) {
      const std::uint32_t node = preorder[pos];
      double c = 0.0;
      if (node != 0) {
        const std::uint32_t i = tree::participant_of_node(node);
        c = ws.depth_discount[tree.depth(node)] * auction_payments[i];
      }
      ws.contrib_prefix[pos + 1] = c;
    }
  };
  parallel_for_blocked(nodes, threads, std::cref(contribute));

  // Stage 2 (serial): the same-type exclusion needs per-type sparse prefix
  // sums (positions of type-t nodes in preorder + running sums), flattened
  // into one CSR triple. Every non-root node lands in exactly one group,
  // and scanning positions in ascending order fills each group in the same
  // order the seed path's per-type push_backs did, so the partial sums are
  // bit-identical. The prefix is inclusive: type_prefix[k] sums the group's
  // entries up to and including k.
  std::uint32_t num_types = 0;
  for (TaskType t : types) num_types = std::max(num_types, t.value + 1);
  ws.type_offsets.assign(num_types + 1, 0);
  for (TaskType t : types) ws.type_offsets[t.value + 1] += 1;
  for (std::uint32_t t = 0; t < num_types; ++t) {
    ws.type_offsets[t + 1] += ws.type_offsets[t];
  }
  ws.type_cursor.assign(ws.type_offsets.begin(), ws.type_offsets.end() - 1);
  ws.type_positions.resize(n);
  ws.type_prefix.resize(n);
  for (std::size_t pos = 0; pos < nodes; ++pos) {
    const std::uint32_t node = preorder[pos];
    if (node == 0) continue;
    const std::uint32_t i = tree::participant_of_node(node);
    const double c = ws.contrib_prefix[pos + 1];  // still the raw contribution
    const std::uint32_t t = types[i].value;
    const std::uint32_t slot = ws.type_cursor[t]++;
    ws.type_positions[slot] = static_cast<std::uint32_t>(pos);
#if RIT_BUG_ENABLED(RIT_BUG_PREFIX_CARRY)
    // planted: the second slot of each group forgets the first entry
    ws.type_prefix[slot] =
        slot <= ws.type_offsets[t] + 1 ? c : ws.type_prefix[slot - 1] + c;
#else
    ws.type_prefix[slot] =
        slot == ws.type_offsets[t] ? c : ws.type_prefix[slot - 1] + c;
#endif
  }
  // Stage 3 (serial): scan the contributions into a prefix sum in place.
  for (std::size_t pos = 0; pos < nodes; ++pos) {
    ws.contrib_prefix[pos + 1] += ws.contrib_prefix[pos];
  }

  // Stage 4: per-participant subtree queries. p[i] is the only write and
  // indices are disjoint, so the query loop parallelizes bit-identically.
  const auto query = [&](std::uint64_t qb, std::uint64_t qe, unsigned) {
    for (std::uint64_t i = qb; i < qe; ++i) {
      const std::uint32_t node =
          tree::node_of_participant(static_cast<std::uint32_t>(i));
      if (tree.subtree_size(node) == 1) continue;  // leaf: no descendants
      const std::uint32_t begin = tree.preorder_index(node);
      const std::uint32_t end = begin + tree.subtree_size(node);  // exclusive
      // Whole-subtree contribution, then subtract the same-type share.
      // The node's own contribution is of its own type, so it cancels.
      const double total = ws.contrib_prefix[end] - ws.contrib_prefix[begin];
      const std::uint32_t t = types[i].value;
      const auto* pos_begin = ws.type_positions.data() + ws.type_offsets[t];
      const auto* pos_end = ws.type_positions.data() + ws.type_offsets[t + 1];
      const auto lo = std::lower_bound(pos_begin, pos_end, begin);
      const auto hi = std::lower_bound(pos_begin, pos_end, end);
      const double* prefix = ws.type_prefix.data() + ws.type_offsets[t];
      const double sum_hi =
          hi == pos_begin ? 0.0 : prefix[(hi - pos_begin) - 1];
      const double sum_lo =
          lo == pos_begin ? 0.0 : prefix[(lo - pos_begin) - 1];
      const double same_type = sum_hi - sum_lo;
      // The true reward is a sum of non-negative contributions; the
      // prefix-sum subtraction can dip a few ulps below zero, which must
      // not leak into a payment below p_i^A.
      out[i] += std::max(0.0, total - same_type);
    }
  };
  parallel_for_blocked(n, threads, std::cref(query));
}

double solicitation_premium(std::span<const double> payments,
                            std::span<const double> auction_payments) {
  RIT_CHECK(payments.size() == auction_payments.size());
  double premium = 0.0;
  for (std::size_t i = 0; i < payments.size(); ++i) {
    premium += payments[i] - auction_payments[i];
  }
  return premium;
}

}  // namespace rit::core
