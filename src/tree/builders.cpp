#include "tree/builders.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/parallel.h"
#include "graph/generators.h"
#include "obs/obs.h"

namespace rit::tree {

namespace {

/// Waves at least this long are radix-sorted; shorter ones use std::sort.
constexpr std::size_t kRadixWaveCutoff = 4096;

/// Sorts node ids ascending. Long waves take a two-pass 16-bit LSD radix
/// sort through `scratch`, whose contents are overwritten.
void sort_wave(std::vector<std::uint32_t>& ids,
               std::vector<std::uint32_t>& scratch) {
  if (ids.size() < kRadixWaveCutoff) {
    std::sort(ids.begin(), ids.end());
    return;
  }
  constexpr std::size_t kBuckets = std::size_t{1} << 16;
  // counts[0, kBuckets): low halves; counts[kBuckets, 2*kBuckets): high.
  std::vector<std::uint32_t> counts(2 * kBuckets, 0);
  for (std::uint32_t v : ids) {
    ++counts[v & 0xffffu];
    ++counts[kBuckets + (v >> 16)];
  }
  for (std::size_t pass = 0; pass < 2; ++pass) {
    std::uint32_t start = 0;
    for (std::size_t b = pass * kBuckets; b < (pass + 1) * kBuckets; ++b) {
      start += std::exchange(counts[b], start);
    }
  }
  scratch.resize(ids.size());
  for (std::uint32_t v : ids) scratch[counts[v & 0xffffu]++] = v;
  for (std::uint32_t v : scratch) ids[counts[kBuckets + (v >> 16)]++] = v;
}

/// inviter[u] of a user who has not joined yet.
constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();
/// inviter[u] of a user who joins with the platform as parent (a seed).
constexpr std::uint32_t kRootInviter = kUnset - 1;

/// What the BFS forest needs from a Barabási–Albert draw whose seeds cover
/// the clique: level[u] is u's BFS wave (seeds are wave 0) and inviter[u]
/// the smallest-id influencer of u in the wave before it.
struct BaGrowth {
  std::vector<std::uint32_t> level;
  std::vector<std::uint32_t> inviter;
  std::uint32_t max_level = 0;
};

BaGrowth grow_barabasi_albert(std::uint32_t n, std::uint32_t edges_per_node,
                              std::uint32_t num_seeds, rng::Rng& rng) {
  RIT_TRACE_SPAN("graph.generate");
  BaGrowth g{std::vector<std::uint32_t>(n, 0),
             std::vector<std::uint32_t>(n, kRootInviter), 0};
  graph::barabasi_albert_draws(
      n, edges_per_node, rng,
      [&](std::uint32_t v, std::span<const std::uint32_t> picks) {
        if (v < num_seeds) return;
        // The minimum (level << 32 | id) key is the lowest-level pick, the
        // smallest id among ties: no branch per pick.
        std::uint64_t best = ~std::uint64_t{0};
        for (std::uint32_t u : picks) {
          best = std::min(best, std::uint64_t{g.level[u]} << 32 | u);
        }
        const auto level = static_cast<std::uint32_t>(best >> 32) + 1;
        g.level[v] = level;
        g.inviter[v] = static_cast<std::uint32_t>(best);
        g.max_level = std::max(g.max_level, level);
      });
  return g;
}

}  // namespace

SpanningForestResult build_spanning_forest(const graph::Graph& g,
                                           const SpanningForestOptions& opts) {
  RIT_TRACE_SPAN("tree.build");
  RIT_CHECK_MSG(!opts.seeds.empty(), "spanning forest needs at least one seed");
  const std::uint32_t n = g.num_nodes();
  const std::uint32_t cap = opts.max_users.value_or(n);

  // inviter[u]: graph node that recruited u; kRootInviter for seeds.
  std::vector<std::uint32_t> inviter(n, kUnset);
  std::vector<std::uint32_t> join_order;
  join_order.reserve(std::min(n, cap));

  std::vector<std::uint32_t> wave;
  for (std::uint32_t s : opts.seeds) {
    RIT_CHECK_MSG(s < n, "seed " << s << " out of range");
    if (inviter[s] != kUnset) continue;  // duplicate seed
    inviter[s] = kRootInviter;
    wave.push_back(s);
  }
  std::sort(wave.begin(), wave.end());
  for (std::uint32_t s : wave) {
    if (join_order.size() >= cap) break;
    join_order.push_back(s);
  }

  // BFS waves. Within a wave we iterate inviters in ascending id, so the
  // first inviter to claim a candidate is the smallest-index one — the
  // paper's tie-break. New joiners are appended in ascending graph id.
  //
  // Parallel path: workers scan disjoint contiguous blocks of the (sorted)
  // wave, each collecting (candidate, inviter) pairs for still-unclaimed
  // neighbours WITHOUT mutating inviter[] (reads race-free: nothing writes
  // during the scan). The claims are then applied serially in worker order;
  // since block order concatenates to the full ascending wave order, the
  // first recorded claim for each candidate is exactly the claim the serial
  // loop would have made, so the forest is bit-identical at any thread
  // count. Below ~2k wave entries the spawn overhead beats the win.
  const unsigned max_workers = rit::resolve_threads(opts.threads, n);
  constexpr std::size_t kParallelWaveFloor = 2048;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> claims(
      max_workers);
  std::vector<std::uint32_t> next;
  while (!wave.empty() && join_order.size() < cap) {
    next.clear();
    const unsigned t = rit::resolve_threads(max_workers, wave.size());
    if (t > 1 && wave.size() >= kParallelWaveFloor) {
      rit::parallel_for_blocked(
          wave.size(), t,
          [&](std::uint64_t begin, std::uint64_t end, unsigned w) {
            auto& mine = claims[w];
            mine.clear();
            for (std::uint64_t i = begin; i < end; ++i) {
              const std::uint32_t u = wave[i];
              for (std::uint32_t v : g.out_neighbors(u)) {
                if (inviter[v] == kUnset) mine.emplace_back(v, u);
              }
            }
          });
      for (unsigned w = 0; w < t; ++w) {
        for (const auto& [v, u] : claims[w]) {
          if (inviter[v] != kUnset) continue;
          inviter[v] = u;
          next.push_back(v);
        }
      }
    } else {
      for (std::uint32_t u : wave) {
        for (std::uint32_t v : g.out_neighbors(u)) {
          if (inviter[v] != kUnset) continue;
          inviter[v] = u;
          next.push_back(v);
        }
      }
    }
    // The scan is done with `wave`, so its buffer is the sort's scratch.
    sort_wave(next, wave);
    const std::size_t size_before = join_order.size();
    for (std::uint32_t v : next) {
      if (join_order.size() >= cap) break;
      join_order.push_back(v);
    }
    // Anyone marked in this wave but cut off by the cap must be un-marked.
    // `next` is sorted and was appended front-to-back, so exactly its first
    // `appended` entries made it in; the tail is the cut-off set.
    if (join_order.size() >= cap) {
      const std::size_t appended = join_order.size() - size_before;
      for (std::size_t k = appended; k < next.size(); ++k) {
        inviter[next[k]] = kUnset;
      }
    }
    std::swap(wave, next);
    // Drop cut-off nodes from the frontier.
    std::erase_if(wave, [&](std::uint32_t v) { return inviter[v] == kUnset; });
  }

  if (opts.attach_unreached_to_root) {
    for (std::uint32_t u = 0; u < n && join_order.size() < cap; ++u) {
      if (inviter[u] == kUnset) {
        inviter[u] = kRootInviter;
        join_order.push_back(u);
      }
    }
  }

  SpanningForestResult res{IncentiveTree::root_only(), {}, {}, {}};
  res.joined.assign(n, false);
  res.node_of.assign(n, 0);
  res.graph_of.assign(join_order.size() + 1, 0);
  std::vector<std::uint32_t> parents(join_order.size() + 1, 0);
  for (std::uint32_t i = 0; i < join_order.size(); ++i) {
    const std::uint32_t u = join_order[i];
    res.joined[u] = true;
    res.node_of[u] = node_of_participant(i);
    res.graph_of[node_of_participant(i)] = u;
  }
  for (std::uint32_t i = 0; i < join_order.size(); ++i) {
    const std::uint32_t u = join_order[i];
    parents[node_of_participant(i)] =
        inviter[u] == kRootInviter ? 0 : res.node_of[inviter[u]];
  }
  res.tree = IncentiveTree(std::move(parents));
  return res;
}

std::optional<SpanningForestResult> barabasi_albert_forest(
    std::uint32_t num_nodes, std::uint32_t edges_per_node,
    std::uint32_t num_seeds, rng::Rng& rng) {
  RIT_CHECK(num_seeds >= 1 && num_seeds <= num_nodes);
  if (num_seeds <= edges_per_node) return std::nullopt;
  const std::uint32_t n = num_nodes;
  BaGrowth growth = grow_barabasi_albert(n, edges_per_node, num_seeds, rng);

  RIT_TRACE_SPAN("tree.build");
  // Join order: wave by wave, ascending id within a wave — a stable
  // counting sort of the ids by level.
  std::vector<std::uint32_t> slot(std::size_t{growth.max_level} + 2, 0);
  for (std::uint32_t l : growth.level) ++slot[l + 1];
  for (std::size_t l = 1; l < slot.size(); ++l) slot[l] += slot[l - 1];
  SpanningForestResult res{IncentiveTree::root_only(), {}, {}, {}};
  res.joined.assign(n, true);
  res.graph_of.assign(static_cast<std::size_t>(n) + 1, 0);
  // Each user's level turns into its tree node in place.
  res.node_of = std::move(growth.level);
  for (std::uint32_t u = 0; u < n; ++u) {
    const std::uint32_t node = node_of_participant(slot[res.node_of[u]]++);
    res.node_of[u] = node;
    res.graph_of[node] = u;
  }
  std::vector<std::uint32_t> parents(static_cast<std::size_t>(n) + 1, 0);
  for (std::uint32_t u = 0; u < n; ++u) {
    const std::uint32_t inviter = growth.inviter[u];
    parents[res.node_of[u]] =
        inviter == kRootInviter ? 0 : res.node_of[inviter];
  }
  growth = {};  // free the draw state before the tree allocates its arrays
  res.tree = IncentiveTree(std::move(parents));
  return res;
}

IncentiveTree random_recursive_tree(std::uint32_t num_participants,
                                    double root_prob, rng::Rng& rng) {
  RIT_TRACE_SPAN("tree.build");
  RIT_CHECK(root_prob >= 0.0 && root_prob <= 1.0);
  std::vector<std::uint32_t> parents(num_participants + 1, 0);
  for (std::uint32_t i = 0; i < num_participants; ++i) {
    const std::uint32_t node = node_of_participant(i);
    if (i == 0 || rng.bernoulli(root_prob)) {
      parents[node] = 0;
    } else {
      parents[node] = node_of_participant(
          static_cast<std::uint32_t>(rng.uniform_index(i)));
    }
  }
  return IncentiveTree(std::move(parents));
}

IncentiveTree flat_tree(std::uint32_t num_participants) {
  return IncentiveTree(std::vector<std::uint32_t>(num_participants + 1, 0));
}

IncentiveTree chain_tree(std::uint32_t num_participants) {
  std::vector<std::uint32_t> parents(num_participants + 1, 0);
  for (std::uint32_t i = 1; i < num_participants; ++i) {
    parents[node_of_participant(i)] = node_of_participant(i - 1);
  }
  return IncentiveTree(std::move(parents));
}

}  // namespace rit::tree
