#include "tree/incentive_tree.h"

#include <algorithm>

namespace rit::tree {

IncentiveTree::IncentiveTree(std::vector<std::uint32_t> parents)
    : parents_(std::move(parents)) {
  const std::uint32_t n = num_nodes();
  RIT_CHECK_MSG(n >= 1, "tree must contain at least the platform root");
  parents_[0] = 0;  // normalize the ignored root slot
  bool parents_precede = true;
  for (std::uint32_t v = 1; v < n; ++v) {
    RIT_CHECK_MSG(parents_[v] < n,
                  "node " << v << " has out-of-range parent " << parents_[v]);
    RIT_CHECK_MSG(parents_[v] != v, "node " << v << " is its own parent");
    parents_precede = parents_precede && parents_[v] < v;
  }

  // Children adjacency (CSR), ordered by child id for determinism.
  child_offsets_.assign(n + 1, 0);
  for (std::uint32_t v = 1; v < n; ++v) ++child_offsets_[parents_[v] + 1];
  for (std::uint32_t i = 1; i <= n; ++i) child_offsets_[i] += child_offsets_[i - 1];
  child_targets_.resize(n - 1);
  {
    std::vector<std::size_t> cursor(child_offsets_.begin(),
                                    child_offsets_.end() - 1);
    for (std::uint32_t v = 1; v < n; ++v) {
      child_targets_[cursor[parents_[v]]++] = v;
    }
  }

  depths_.assign(n, 0);
  preorder_pos_.assign(n, 0);
  subtree_size_.assign(n, 1);
  if (parents_precede) {
    // Every parent precedes its children, so the vector is a tree rooted at
    // 0 by construction and id order is a topological order: depths come
    // from one forward pass, subtree sizes from one backward pass, and the
    // preorder from a forward pass in which each node hands consecutive
    // slots to its children in ascending id — the order the DFS below
    // visits them in.
    for (std::uint32_t v = 1; v < n; ++v) {
      depths_[v] = depths_[parents_[v]] + 1;
    }
    for (std::uint32_t v = n - 1; v >= 1; --v) {
      subtree_size_[parents_[v]] += subtree_size_[v];
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      std::uint32_t slot = preorder_pos_[v] + 1;
      for (std::uint32_t c : children(v)) {
        preorder_pos_[c] = slot;
        slot += subtree_size_[c];
      }
    }
    preorder_.resize(n);
    for (std::uint32_t v = 0; v < n; ++v) preorder_[preorder_pos_[v]] = v;
  } else {
    // Iterative preorder DFS from the root; doubles as the acyclicity /
    // connectivity check (every node must be visited exactly once).
    preorder_.reserve(n);
    std::vector<std::uint32_t> stack{0};
    while (!stack.empty()) {
      const std::uint32_t v = stack.back();
      stack.pop_back();
      preorder_pos_[v] = static_cast<std::uint32_t>(preorder_.size());
      preorder_.push_back(v);
      auto kids = children(v);
      // Push in reverse so children are visited in ascending id order.
      for (std::size_t i = kids.size(); i > 0; --i) {
        const std::uint32_t c = kids[i - 1];
        depths_[c] = depths_[v] + 1;
        stack.push_back(c);
      }
    }
    RIT_CHECK_MSG(preorder_.size() == n,
                  "parent vector does not describe a single tree rooted at 0: "
                  "visited " << preorder_.size() << " of " << n << " nodes");
    // Subtree sizes via reverse-preorder accumulation.
    for (std::size_t i = preorder_.size(); i > 1; --i) {
      const std::uint32_t v = preorder_[i - 1];
      subtree_size_[parents_[v]] += subtree_size_[v];
    }
  }
  max_depth_ = *std::max_element(depths_.begin(), depths_.end());
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
