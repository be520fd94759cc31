#include "tree/incentive_tree.h"

#include <algorithm>

namespace rit::tree {

IncentiveTree::IncentiveTree(std::vector<std::uint32_t> parents)
    : parents_(std::move(parents)) {
  const std::uint32_t n = num_nodes();
  RIT_CHECK_MSG(n >= 1, "tree must contain at least the platform root");
  parents_[0] = 0;  // normalize the ignored root slot
  depths_.assign(n, 0);
  preorder_pos_.assign(n, 0);
  subtree_size_.assign(n, 1);
  preorder_.resize(n);

  // Forward pass: while every parent precedes its child, the parent is in
  // range, is not the node itself and already has its depth. The first node
  // that breaks the order sends the rest to the checked DFS below.
  std::uint32_t v = 1;
  for (; v < n; ++v) {
    const std::uint32_t p = parents_[v];
    if (p >= v) break;
    const std::uint32_t d = depths_[p] + 1;
    depths_[v] = d;
    max_depth_ = std::max(max_depth_, d);
  }
  if (v < n) {
    build_by_dfs(v);
    return;
  }

  // Id order is a topological order, so subtree sizes take one backward
  // pass, and the preorder one forward pass in which each node hands
  // consecutive slots to its children in ascending id — the order the DFS
  // visits them in. next[u] is u's next free child slot; it lives in
  // preorder_'s buffer until the scatter overwrites every entry.
  for (std::uint32_t u = n - 1; u >= 1; --u) {
    subtree_size_[parents_[u]] += subtree_size_[u];
  }
  std::vector<std::uint32_t>& next = preorder_;
  next[0] = 1;
  for (std::uint32_t u = 1; u < n; ++u) {
    const std::uint32_t p = parents_[u];
    const std::uint32_t pos = next[p];
    next[p] = pos + subtree_size_[u];
    next[u] = pos + 1;
    preorder_pos_[u] = pos;
  }
  for (std::uint32_t u = 0; u < n; ++u) preorder_[preorder_pos_[u]] = u;
}

void IncentiveTree::build_by_dfs(std::uint32_t first_unordered) {
  const std::uint32_t n = num_nodes();
  // Nodes before `first_unordered` passed the forward pass's order check,
  // which implies these.
  for (std::uint32_t v = first_unordered; v < n; ++v) {
    RIT_CHECK_MSG(parents_[v] < n,
                  "node " << v << " has out-of-range parent " << parents_[v]);
    RIT_CHECK_MSG(parents_[v] != v, "node " << v << " is its own parent");
  }

  // Child lists (CSR), ordered by child id for determinism.
  std::vector<std::uint32_t> offsets(std::size_t{n} + 1, 0);
  for (std::uint32_t v = 1; v < n; ++v) ++offsets[parents_[v] + 1];
  for (std::uint32_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];
  std::vector<std::uint32_t> kids(n - 1);
  {
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::uint32_t v = 1; v < n; ++v) kids[cursor[parents_[v]]++] = v;
  }

  // Iterative preorder DFS from the root; doubles as the acyclicity /
  // connectivity check (every node must be visited exactly once).
  std::uint32_t visited = 0;
  std::vector<std::uint32_t> stack{0};
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    preorder_pos_[v] = visited;
    preorder_[visited++] = v;
    // Push in reverse so children are visited in ascending id order.
    for (std::uint32_t i = offsets[v + 1]; i > offsets[v]; --i) {
      const std::uint32_t c = kids[i - 1];
      depths_[c] = depths_[v] + 1;
      stack.push_back(c);
    }
  }
  RIT_CHECK_MSG(visited == n,
                "parent vector does not describe a single tree rooted at 0: "
                "visited " << visited << " of " << n << " nodes");
  // Subtree sizes via reverse-preorder accumulation.
  for (std::uint32_t i = n - 1; i >= 1; --i) {
    const std::uint32_t v = preorder_[i];
    subtree_size_[parents_[v]] += subtree_size_[v];
  }
  max_depth_ = *std::max_element(depths_.begin(), depths_.end());
}

std::vector<std::uint32_t> IncentiveTree::children(std::uint32_t node) const {
  RIT_CHECK(node < num_nodes());
  std::vector<std::uint32_t> out;
  const std::uint32_t end = preorder_pos_[node] + subtree_size_[node];
  for (std::uint32_t i = preorder_pos_[node] + 1; i < end;
       i += subtree_size_[preorder_[i]]) {
    out.push_back(preorder_[i]);
  }
  return out;
}

std::vector<std::uint32_t> IncentiveTree::descendants(
    std::uint32_t node) const {
  RIT_CHECK(node < num_nodes());
  const std::uint32_t begin = preorder_pos_[node];
  const std::uint32_t size = subtree_size_[node];
  std::vector<std::uint32_t> out;
  out.reserve(size - 1);
  for (std::uint32_t i = begin + 1; i < begin + size; ++i) {
    out.push_back(preorder_[i]);
  }
  return out;
}

bool IncentiveTree::is_ancestor(std::uint32_t anc, std::uint32_t node) const {
  RIT_CHECK(anc < num_nodes());
  RIT_CHECK(node < num_nodes());
  if (anc == node) return false;
  const std::uint32_t begin = preorder_pos_[anc];
  const std::uint32_t pos = preorder_pos_[node];
  return pos > begin && pos < begin + subtree_size_[anc];
}

}  // namespace rit::tree
