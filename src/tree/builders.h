// Incentive-tree builders.
//
// The primary builder reproduces Sec. 7-A exactly: a BFS spanning forest of
// the social graph in which every joined user refers all of its un-joined
// (out-)neighbours, simultaneous invitations are broken toward the smallest
// inviter index, and the forest roots hang off the platform root. Growth
// stops once the threshold N of Sec. 3-A is reached.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "rng/rng.h"
#include "tree/incentive_tree.h"

namespace rit::tree {

struct SpanningForestOptions {
  /// Graph nodes that join at the very beginning (children of the platform).
  /// Must be non-empty.
  std::vector<std::uint32_t> seeds;
  /// Solicitation stops once this many users have joined (the paper's N).
  /// Default: everyone reachable.
  std::optional<std::uint32_t> max_users;
  /// If true, graph nodes unreachable from the seeds (and not cut off by
  /// max_users) are attached directly to the platform root, modelling users
  /// who discover the job independently. Keeps participant count == graph
  /// node count, which the simulation scenarios rely on.
  bool attach_unreached_to_root = true;
  /// Worker threads for the BFS wave scan (0 = one per hardware thread).
  /// Workers collect invitation candidates over disjoint blocks of the
  /// ascending wave without touching shared state; claims are then merged
  /// serially in worker order, which replays the serial first-claim /
  /// smallest-inviter tie-break exactly. The forest is bit-identical at any
  /// setting — the knob trades wall-clock for cores, never output.
  unsigned threads = 1;
};

struct SpanningForestResult {
  IncentiveTree tree;
  /// joined[u]: whether graph node u is a participant.
  std::vector<bool> joined;
  /// node_of[u]: tree node of graph node u (0 if not joined).
  std::vector<std::uint32_t> node_of;
  /// graph_of[node]: graph node of tree node (root slot unused).
  std::vector<std::uint32_t> graph_of;
};

/// Builds the Sec. 7-A tree. Tree node ids are assigned in join order
/// (BFS wave by wave, ascending graph id within a wave), so participant i is
/// the (i+1)-th user to join.
SpanningForestResult build_spanning_forest(const graph::Graph& g,
                                           const SpanningForestOptions& opts);

/// The Sec. 7-A forest of a Barabási–Albert graph, drawn and built in one
/// pass: returns build_spanning_forest(barabasi_albert(num_nodes,
/// edges_per_node, rng), {seeds 0..num_seeds-1, every user joins}) without
/// the edge list, the CSR or the BFS, and leaves `rng` where
/// barabasi_albert would. Every edge into a newcomer comes from an earlier
/// node, so once the seeds cover the seed clique (num_seeds >=
/// edges_per_node + 1) a non-seed joins one wave after the earliest wave
/// among its influencers, invited by the smallest-id influencer in that
/// wave: its level and inviter are known as soon as it is drawn. Returns
/// nullopt, drawing nothing, when the seeds do not cover the clique; the
/// caller then builds the graph and runs build_spanning_forest.
/// Requires 1 <= num_seeds <= num_nodes.
std::optional<SpanningForestResult> barabasi_albert_forest(
    std::uint32_t num_nodes, std::uint32_t edges_per_node,
    std::uint32_t num_seeds, rng::Rng& rng);

/// Uniform random recursive tree over `num_participants` users: participant
/// i attaches to the platform root with probability `root_prob`, otherwise
/// to a uniformly random earlier participant. Used by tests and by scenarios
/// that do not model an explicit social graph.
IncentiveTree random_recursive_tree(std::uint32_t num_participants,
                                    double root_prob, rng::Rng& rng);

/// All participants directly under the platform root (an auction with no
/// solicitation structure); RIT then degenerates to its auction phase plus
/// zero tree rewards, which tests exploit.
IncentiveTree flat_tree(std::uint32_t num_participants);

/// Single chain: root -> p0 -> p1 -> ... Deepest possible tree.
IncentiveTree chain_tree(std::uint32_t num_participants);

}  // namespace rit::tree
