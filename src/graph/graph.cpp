#include "graph/graph.h"

#include <algorithm>
#include <utility>

namespace rit::graph {

Graph::Graph(std::uint32_t num_nodes, std::vector<Edge> edges)
    : num_nodes_(num_nodes) {
  // Counting sort keyed by `from`, O(E + n). offsets_[u + 1] first counts
  // row u's edges, then holds row u's start and serves as its scatter
  // cursor, finishing at row u's end, which is what the CSR stores there.
  // No separate cursor array.
  offsets_.assign(std::size_t{num_nodes_} + 1, 0);
  for (const Edge& e : edges) {
    RIT_CHECK_MSG(e.from < num_nodes && e.to < num_nodes,
                  "edge (" << e.from << "," << e.to << ") out of range for "
                           << num_nodes << " nodes");
    RIT_CHECK_MSG(e.from != e.to, "self-loop at node " << e.from);
    ++offsets_[e.from + 1];
  }
  std::size_t start = 0;
  for (std::size_t u = 1; u < offsets_.size(); ++u) {
    start += std::exchange(offsets_[u], start);
  }
  targets_.resize(edges.size());
  for (const Edge& e : edges) targets_[offsets_[e.from + 1]++] = e.to;
  std::vector<Edge>().swap(edges);

  // Sort each row (generators mostly emit rows in order already), then drop
  // duplicates, compacting rows leftwards. Equals sort + unique over (from,
  // to) pairs followed by a plain CSR build.
  in_degree_.assign(num_nodes_, 0);
  std::size_t kept = 0;
  std::size_t row_begin = 0;
  for (std::size_t u = 0; u < num_nodes_; ++u) {
    const std::size_t row_end = offsets_[u + 1];
    const auto first =
        targets_.begin() + static_cast<std::ptrdiff_t>(row_begin);
    const auto last = targets_.begin() + static_cast<std::ptrdiff_t>(row_end);
    if (!std::is_sorted(first, last)) std::sort(first, last);
    const std::size_t row_kept = kept;
    for (std::size_t i = row_begin; i < row_end; ++i) {
      const std::uint32_t v = targets_[i];
      if (kept > row_kept && targets_[kept - 1] == v) continue;
      targets_[kept++] = v;
      ++in_degree_[v];
    }
    offsets_[u + 1] = kept;
    row_begin = row_end;
  }
  targets_.resize(kept);
  targets_.shrink_to_fit();
}

bool Graph::has_edge(std::uint32_t u, std::uint32_t v) const {
  auto nbrs = out_neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (std::uint32_t u = 0; u < num_nodes_; ++u) {
    for (std::uint32_t v : out_neighbors(u)) out.push_back({u, v});
  }
  return out;
}

std::vector<std::uint32_t> Graph::sources() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t u = 0; u < num_nodes_; ++u) {
    if (in_degree_[u] == 0) out.push_back(u);
  }
  return out;
}

}  // namespace rit::graph
