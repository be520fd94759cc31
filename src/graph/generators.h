// Synthetic social-graph generators.
//
// Each randomized generator draws its edge list from a single sequential
// RNG stream (edge draws are order-dependent, so the drawing loop cannot be
// split across workers without changing the graph) and hands it to Graph's
// O(E) counting-sort constructor; the draw loop, not the CSR build, is the
// larger cost at millions of edges.
//
// The paper builds its incentive tree from the SNAP ego-Twitter dataset
// [21]. That dataset is not redistributable with this repository, so per
// DESIGN.md we substitute synthetic graphs. Barabási–Albert preferential
// attachment is the default: its heavy-tailed degree distribution produces
// the same shallow, bushy incentive trees a follower graph does, which is
// the property the payment-determination phase is sensitive to. The other
// families exist for the graph-sensitivity ablation.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "graph/graph.h"
#include "rng/rng.h"

namespace rit::graph {

/// Barabási–Albert preferential attachment. Each new node attaches
/// `edges_per_node` out-edges *from* existing high-degree nodes *to* itself
/// (an influencer recruits the newcomer). Node 0..edges_per_node form a seed
/// clique. Requires num_nodes > edges_per_node >= 1.
Graph barabasi_albert(std::uint32_t num_nodes, std::uint32_t edges_per_node,
                      rng::Rng& rng);

/// The draw loop of barabasi_albert, without the graph: for each newcomer
/// v = edges_per_node+1 .. num_nodes-1 in order, calls
/// `visit(v, picks)` with v's `edges_per_node` distinct influencers in draw
/// order (every pick is < v). The seed clique's edges are implied. Draws
/// exactly what barabasi_albert draws, so a caller that needs only
/// something computed from the edges (the growth-order forest in
/// tree/builders.h) skips the edge list and the CSR.
template <class Visit>
void barabasi_albert_draws(std::uint32_t num_nodes,
                           std::uint32_t edges_per_node, rng::Rng& rng,
                           Visit&& visit) {
  RIT_CHECK(edges_per_node >= 1);
  RIT_CHECK(num_nodes > edges_per_node);
  const std::uint32_t m = edges_per_node;
  const std::uint32_t seed_n = m + 1;
  // A uniform draw from the repeated-nodes list (each endpoint once per
  // incident edge) is a degree-proportional draw. The list is virtual: the
  // clique's m(m+1) slots hold r / m, and after them newcomer edge e holds
  // its influencer at slot 2e and its newcomer seed_n + e / m at slot 2e+1,
  // so only the influencers are stored.
  const std::uint64_t clique_slots = std::uint64_t{m} * seed_n;
  // Every newcomer stores exactly m picks, so the list is sized once and a
  // pick is appended by writing the next slot and advancing `size` only
  // when it is new: the duplicate check has no branch to mispredict.
  const auto influencers = std::make_unique_for_overwrite<std::uint32_t[]>(
      std::uint64_t{num_nodes - seed_n} * m);
  std::uint32_t* const list = influencers.get();
  std::size_t size = 0;
  const auto append_if_new = [&](std::size_t first, std::uint32_t u) {
    bool dup = false;
    for (std::size_t i = first; i < size; ++i) dup |= list[i] == u;
    list[size] = u;
    size += !dup;
  };
  for (std::uint32_t v = seed_n; v < num_nodes; ++v) {
    const std::size_t first = size;
    const std::size_t slots = clique_slots + 2 * first;
    // Draw edges_per_node distinct influencers, degree-proportionally.
    std::size_t guard = 0;
    while (size - first < m) {
      const std::size_t r = rng.uniform_index(slots);
      std::uint32_t u;
      if (r < clique_slots) {
        u = static_cast<std::uint32_t>(r / m);
      } else {
        const std::size_t h = r - clique_slots;
        u = (h & 1) ? seed_n + static_cast<std::uint32_t>(h / (2 * m))
                    : list[h >> 1];
      }
      append_if_new(first, u);
      // Degenerate protection: with tiny seed graphs rejection can loop; fall
      // back to uniform over all existing nodes after excessive rejections.
      if (++guard > 64ull * m && size - first < m) {
        append_if_new(first,
                      static_cast<std::uint32_t>(rng.uniform_index(v)));
      }
    }
    visit(v, std::span<const std::uint32_t>(list + first, m));
  }
}

/// Erdős–Rényi G(n, p) digraph (each ordered pair independently with
/// probability p, no self-loops). Uses geometric skipping, O(E) expected.
Graph erdos_renyi(std::uint32_t num_nodes, double p, rng::Rng& rng);

/// Watts–Strogatz small-world graph, directed variant: ring of
/// `num_nodes` nodes, each with edges to its next `k/2` neighbours in both
/// directions, each edge rewired with probability `beta`.
Graph watts_strogatz(std::uint32_t num_nodes, std::uint32_t k, double beta,
                     rng::Rng& rng);

/// Star: node 0 -> every other node. Produces a depth-2 incentive tree
/// (platform -> hub -> leaves); stress-case for solicitation rewards.
Graph star(std::uint32_t num_nodes);

/// Directed path 0 -> 1 -> ... -> n-1. Produces the deepest possible tree;
/// stress-case for the (1/2)^r discount underflow.
Graph path(std::uint32_t num_nodes);

/// Complete digraph (every ordered pair). Only sensible for tiny n.
Graph complete(std::uint32_t num_nodes);

/// Directed configuration model with a Zipf(exponent) out-degree sequence:
/// out-degrees are drawn from P(d) ~ d^-exponent over [1, max_degree],
/// then each out-stub is wired to a uniformly random distinct target
/// (self-loops and duplicate edges are re-drawn, with a deterministic
/// fallback after excessive rejections). The closest synthetic match to a
/// measured follower graph when the target degree *distribution* is known:
/// ego-Twitter's out-degree tail is roughly exponent ~2. Requires
/// num_nodes >= 2, exponent > 1, 1 <= max_degree < num_nodes.
Graph configuration_model(std::uint32_t num_nodes, double exponent,
                          std::uint32_t max_degree, rng::Rng& rng);

}  // namespace rit::graph
