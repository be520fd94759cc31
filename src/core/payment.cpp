#include "core/payment.h"

#include <algorithm>
#include <bit>
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

/// Grows `v`'s capacity to at least `n`, at least doubling it as resize()
/// does. A workspace reused over a sweep of slowly growing trees then
/// reallocates O(log n) times instead of once per larger tree, which
/// fragmented the heap into a higher peak RSS. Capacity beyond what a run
/// writes is never touched, so it is not resident.
template <typename T>
void reserve_at_least(std::vector<T>& v, std::size_t n) {
  if (v.capacity() < n) v.reserve(std::max(n, 2 * v.capacity()));
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

  // Stage 1 (sequential, participant order): a contributor is a
  // participant whose discounted payment c = base^depth * p^A is non-zero
  // (a deep winner whose discount underflowed is not one). Its c lands in
  // the zeroed, not-yet-scanned prefix slot of its preorder position, and
  // its type is counted. Every other slot stays +0.0, and adding +0.0 to a
  // prefix leaves it unchanged, so the scanned prefix (and each per-type
  // group below) equals the one summed over all N nodes bit for bit.
  const auto preorder = tree.preorder();
  const std::size_t nodes = preorder.size();
  reserve_at_least(ws.contrib_prefix, nodes + 1);
  ws.contrib_prefix.assign(nodes + 1, 0.0);
  std::uint32_t num_types = 0;
  for (TaskType t : types) num_types = std::max(num_types, t.value + 1);
  ws.type_offsets.assign(num_types + 1, 0);
  std::uint32_t contributors = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const double pa = auction_payments[i];
    const std::uint32_t node = tree::node_of_participant(i);
    if (pa == 0.0) {
      // Every non-leaf gets a reward of at least +0.0, which turns a -0.0
      // payment into +0.0; unqueried nodes must do the same.
      if (std::signbit(pa) && tree.subtree_size(node) > 1) out[i] = 0.0;
      continue;
    }
    const double c = ws.depth_discount[tree.depth(node)] * pa;
    if (c == 0.0) continue;
    ws.contrib_prefix[tree.preorder_index(node) + 1] = c;
    ws.type_offsets[types[i].value + 1] += 1;
    ++contributors;
  }
  RIT_COUNTER_ADD("payment.contributors", contributors);

  // Stage 2 (sequential, preorder): file each contributor into its type's
  // group of (preorder position, inclusive running sum), flattened into one
  // CSR triple; ascending positions keep each group's partial sums in
  // preorder order. Mark the contributor and its ancestors, the only nodes
  // whose subtree holds a contribution; the walk stops at the first node
  // already marked, whose ancestors were marked with it. The contributor
  // itself is marked too: its own c enters `total` and `same_type` below
  // through different prefixes, which may round an ulp apart. The same
  // pass scans the contributions into a prefix sum in place.
  for (std::uint32_t t = 0; t < num_types; ++t) {
    ws.type_offsets[t + 1] += ws.type_offsets[t];
  }
  ws.type_cursor.assign(ws.type_offsets.begin(), ws.type_offsets.end() - 1);
  // Capacity for every participant up front, so a run with more winners
  // than any before it still does not reallocate.
  reserve_at_least(ws.type_positions, n);
  reserve_at_least(ws.type_prefix, n);
  ws.type_positions.resize(contributors);
  ws.type_prefix.resize(contributors);
  ws.marked.assign((nodes + 63) / 64, 0);
  const auto& parents = tree.parents();
  std::uint32_t queried = 0;
  for (std::size_t pos = 0; pos < nodes; ++pos) {
    const double c = ws.contrib_prefix[pos + 1];
    if (c != 0.0) {
      const std::uint32_t node = preorder[pos];
      const std::uint32_t t = types[tree::participant_of_node(node)].value;
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
      for (std::uint32_t a = node;
           a != 0 && (ws.marked[a / 64] >> (a % 64) & 1u) == 0;
           a = parents[a]) {
        ws.marked[a / 64] |= std::uint64_t{1} << (a % 64);
        if (tree.subtree_size(a) > 1) ++queried;
      }
    }
    ws.contrib_prefix[pos + 1] += ws.contrib_prefix[pos];
  }
  RIT_COUNTER_ADD("payment.queried_nodes", queried);

  // Stage 3: subtree queries over the marked non-leaf nodes. An unmarked
  // node's subtree holds only +0.0 slots, so its reward is +0.0. p[i] is the
  // only write and indices are disjoint, so the query loop parallelizes
  // bit-identically. The body goes over by std::cref: a std::function
  // wrapping a reference_wrapper stores it inline, where a by-reference
  // lambda this size would be copied to the heap on every run.
  const auto query = [&](std::uint64_t wb, std::uint64_t we, unsigned) {
    for (std::uint64_t w = wb; w < we; ++w) {
      for (std::uint64_t bits = ws.marked[w]; bits != 0; bits &= bits - 1) {
        const auto node =
            static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
        if (tree.subtree_size(node) == 1) continue;  // leaf: no descendants
        const std::uint32_t i = tree::participant_of_node(node);
        const std::uint32_t begin = tree.preorder_index(node);
        const std::uint32_t end = begin + tree.subtree_size(node);
        // Whole-subtree contribution, then subtract the same-type share.
        // The node's own contribution is of its own type, so it cancels.
        const double total =
            ws.contrib_prefix[end] - ws.contrib_prefix[begin];
        const std::uint32_t t = types[i].value;
        const auto* pos_begin = ws.type_positions.data() + ws.type_offsets[t];
        const auto* pos_end =
            ws.type_positions.data() + ws.type_offsets[t + 1];
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
    }
  };
  parallel_for_blocked(ws.marked.size(), threads, std::cref(query));
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
