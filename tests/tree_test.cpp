#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "attack/sybil_apply.h"
#include "attack/sybil_plan.h"
#include "common/check.h"
#include "core/types.h"
#include "graph/generators.h"
#include "tree/builders.h"
#include "tree/incentive_tree.h"
#include "tree/render.h"

namespace rit::tree {
namespace {

// The running example: platform -> {P1, P2}, P1 -> {P3, P4}, P4 -> {P5}.
IncentiveTree example_tree() {
  //          node: 0  1  2  3  4  5
  return IncentiveTree({0, 0, 0, 1, 1, 4});
}

TEST(IncentiveTree, RootOnly) {
  const auto t = IncentiveTree::root_only();
  EXPECT_EQ(t.num_nodes(), 1u);
  EXPECT_EQ(t.num_participants(), 0u);
  EXPECT_EQ(t.depth(0), 0u);
  EXPECT_TRUE(t.children(0).empty());
}

TEST(IncentiveTree, ParentsChildrenDepths) {
  const auto t = example_tree();
  EXPECT_EQ(t.num_participants(), 5u);
  EXPECT_EQ(t.parent(3), 1u);
  EXPECT_EQ(t.parent(5), 4u);
  EXPECT_EQ(t.depth(0), 0u);
  EXPECT_EQ(t.depth(1), 1u);
  EXPECT_EQ(t.depth(3), 2u);
  EXPECT_EQ(t.depth(5), 3u);
  EXPECT_EQ(t.max_depth(), 3u);
  const auto kids = t.children(1);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0], 3u);
  EXPECT_EQ(kids[1], 4u);
}

TEST(IncentiveTree, PreorderSubtreesAreContiguous) {
  const auto t = example_tree();
  const auto pre = t.preorder();
  ASSERT_EQ(pre.size(), 6u);
  EXPECT_EQ(pre[0], 0u);
  // Every node's subtree occupies [pos, pos + size).
  for (std::uint32_t v = 0; v < t.num_nodes(); ++v) {
    const auto begin = t.preorder_index(v);
    const auto size = t.subtree_size(v);
    std::set<std::uint32_t> range(pre.begin() + begin,
                                  pre.begin() + begin + size);
    std::set<std::uint32_t> expected{v};
    for (std::uint32_t d : t.descendants(v)) expected.insert(d);
    EXPECT_EQ(range, expected) << "node " << v;
  }
}

TEST(IncentiveTree, SubtreeSizes) {
  const auto t = example_tree();
  EXPECT_EQ(t.subtree_size(0), 6u);
  EXPECT_EQ(t.subtree_size(1), 4u);
  EXPECT_EQ(t.subtree_size(4), 2u);
  EXPECT_EQ(t.subtree_size(5), 1u);
}

TEST(IncentiveTree, DescendantsMatchDefinition) {
  const auto t = example_tree();
  auto d1 = t.descendants(1);
  std::sort(d1.begin(), d1.end());
  EXPECT_EQ(d1, (std::vector<std::uint32_t>{3, 4, 5}));
  EXPECT_TRUE(t.descendants(2).empty());
}

TEST(IncentiveTree, IsAncestor) {
  const auto t = example_tree();
  EXPECT_TRUE(t.is_ancestor(0, 5));
  EXPECT_TRUE(t.is_ancestor(1, 5));
  EXPECT_TRUE(t.is_ancestor(4, 5));
  EXPECT_FALSE(t.is_ancestor(5, 4));
  EXPECT_FALSE(t.is_ancestor(2, 3));
  EXPECT_FALSE(t.is_ancestor(3, 3));
}

TEST(IncentiveTree, ForwardReferencingParentsAllowed) {
  // Node 1's parent is node 3 — ids need not be topologically ordered.
  const IncentiveTree t({0, 3, 0, 2});
  EXPECT_EQ(t.depth(1), 3u);
  EXPECT_EQ(t.depth(3), 2u);
}

TEST(IncentiveTree, RejectsCycles) {
  // 1 -> 2 -> 1 cycle, disconnected from the root.
  EXPECT_THROW(IncentiveTree({0, 2, 1}), CheckFailure);
}

TEST(IncentiveTree, RejectsSelfParentAndOutOfRange) {
  EXPECT_THROW(IncentiveTree({0, 1}), CheckFailure);
  EXPECT_THROW(IncentiveTree({0, 9}), CheckFailure);
}

TEST(IncentiveTree, ParticipantNodeConversion) {
  EXPECT_EQ(node_of_participant(0), 1u);
  EXPECT_EQ(participant_of_node(1), 0u);
  EXPECT_EQ(participant_of_node(node_of_participant(41)), 41u);
}

TEST(Builders, FlatTreeAllDepthOne) {
  const auto t = flat_tree(10);
  EXPECT_EQ(t.num_participants(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(t.depth(node_of_participant(i)), 1u);
  }
}

TEST(Builders, ChainTreeDepths) {
  const auto t = chain_tree(5);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(t.depth(node_of_participant(i)), i + 1);
  }
  EXPECT_EQ(t.max_depth(), 5u);
}

TEST(Builders, RandomRecursiveTreeIsValidAndDeterministic) {
  rng::Rng a(5);
  rng::Rng b(5);
  const auto ta = random_recursive_tree(200, 0.1, a);
  const auto tb = random_recursive_tree(200, 0.1, b);
  EXPECT_EQ(ta.parents(), tb.parents());
  EXPECT_EQ(ta.num_participants(), 200u);
}

TEST(Builders, SpanningForestBfsStructure) {
  // 0 -> 1 -> 3, 0 -> 2, 2 -> 3 (tie at 3 broken toward inviter 1: both
  // invite in wave 2? No: 1 and 2 join in wave 1 from seed 0, then both
  // could invite 3 — the smaller-index inviter 1 wins).
  graph::Graph g(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  SpanningForestOptions opts;
  opts.seeds = {0};
  const auto res = build_spanning_forest(g, opts);
  EXPECT_EQ(res.tree.num_participants(), 4u);
  // Join order: 0, then {1,2}, then {3}.
  EXPECT_EQ(res.graph_of[1], 0u);
  EXPECT_EQ(res.graph_of[2], 1u);
  EXPECT_EQ(res.graph_of[3], 2u);
  EXPECT_EQ(res.graph_of[4], 3u);
  EXPECT_EQ(res.tree.parent(res.node_of[3]), res.node_of[1]);  // 1 beat 2
  EXPECT_EQ(res.tree.parent(res.node_of[1]), res.node_of[0]);
  EXPECT_EQ(res.tree.parent(res.node_of[0]), 0u);
}

TEST(Builders, SpanningForestTieBreakSmallestInviter) {
  // Seeds 0 and 1 both invite node 2 in the same wave; 0 must win.
  graph::Graph g(3, {{0, 2}, {1, 2}});
  SpanningForestOptions opts;
  opts.seeds = {1, 0};  // deliberately unsorted
  const auto res = build_spanning_forest(g, opts);
  EXPECT_EQ(res.tree.parent(res.node_of[2]), res.node_of[0]);
}

TEST(Builders, SpanningForestRespectsMaxUsers) {
  graph::Graph g(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  SpanningForestOptions opts;
  opts.seeds = {0};
  opts.max_users = 3;
  opts.attach_unreached_to_root = false;
  const auto res = build_spanning_forest(g, opts);
  EXPECT_EQ(res.tree.num_participants(), 3u);
  EXPECT_TRUE(res.joined[0]);
  EXPECT_TRUE(res.joined[2]);
  EXPECT_FALSE(res.joined[3]);
}

TEST(Builders, SpanningForestAttachesUnreachedToRoot) {
  // Node 2 is unreachable from seed 0.
  graph::Graph g(3, {{0, 1}});
  SpanningForestOptions opts;
  opts.seeds = {0};
  opts.attach_unreached_to_root = true;
  const auto res = build_spanning_forest(g, opts);
  EXPECT_EQ(res.tree.num_participants(), 3u);
  EXPECT_TRUE(res.joined[2]);
  EXPECT_EQ(res.tree.parent(res.node_of[2]), 0u);
  EXPECT_EQ(res.tree.depth(res.node_of[2]), 1u);
}

TEST(Builders, SpanningForestCoversBaGraph) {
  rng::Rng rng(9);
  const auto g = graph::barabasi_albert(1000, 3, rng);
  SpanningForestOptions opts;
  opts.seeds = {0, 1, 2, 3};
  const auto res = build_spanning_forest(g, opts);
  EXPECT_EQ(res.tree.num_participants(), 1000u);
  // A scale-free graph explored from the seed clique should be shallow.
  EXPECT_LT(res.tree.max_depth(), 30u);
}

// The forest build_spanning_forest must reproduce: plain BFS waves, each
// scanned in ascending inviter id and std::sort-ed before it joins.
struct NaiveForest {
  std::vector<std::uint32_t> join_order;
  std::vector<std::uint32_t> inviter;  // kNoInviter if not joined / a seed
  std::size_t widest_wave{0};
};
constexpr std::uint32_t kNoInviter = 0xffffffffu;

NaiveForest naive_bfs_forest(const graph::Graph& g,
                             const SpanningForestOptions& opts) {
  const std::uint32_t n = g.num_nodes();
  const std::uint32_t cap = opts.max_users.value_or(n);
  NaiveForest f;
  f.inviter.assign(n, kNoInviter);
  std::vector<bool> claimed(n, false);
  std::vector<std::uint32_t> wave;
  for (std::uint32_t s : opts.seeds) {
    if (!claimed[s]) wave.push_back(s);
    claimed[s] = true;
  }
  std::sort(wave.begin(), wave.end());
  wave.resize(std::min<std::size_t>(wave.size(), cap));
  f.join_order = wave;
  while (!wave.empty() && f.join_order.size() < cap) {
    std::vector<std::uint32_t> next;
    for (std::uint32_t u : wave) {
      for (std::uint32_t v : g.out_neighbors(u)) {
        if (claimed[v]) continue;
        claimed[v] = true;
        f.inviter[v] = u;
        next.push_back(v);
      }
    }
    std::sort(next.begin(), next.end());
    f.widest_wave = std::max(f.widest_wave, next.size());
    const std::size_t room = cap - f.join_order.size();
    for (std::size_t k = room; k < next.size(); ++k) {
      claimed[next[k]] = false;
      f.inviter[next[k]] = kNoInviter;
    }
    next.resize(std::min(next.size(), room));
    f.join_order.insert(f.join_order.end(), next.begin(), next.end());
    wave = std::move(next);
  }
  if (opts.attach_unreached_to_root) {
    for (std::uint32_t u = 0; u < n && f.join_order.size() < cap; ++u) {
      if (!claimed[u]) f.join_order.push_back(u);
    }
  }
  return f;
}

void expect_forest_matches_naive(const graph::Graph& g,
                                 SpanningForestOptions opts,
                                 std::size_t min_widest_wave,
                                 const char* what) {
  const NaiveForest want = naive_bfs_forest(g, opts);
  ASSERT_GE(want.widest_wave, min_widest_wave) << what;
  for (unsigned threads : {1u, 2u}) {
    opts.threads = threads;
    const SpanningForestResult got = build_spanning_forest(g, opts);
    ASSERT_EQ(got.tree.num_participants(), want.join_order.size()) << what;
    for (std::uint32_t i = 0; i < want.join_order.size(); ++i) {
      const std::uint32_t u = want.join_order[i];
      const std::uint32_t node = node_of_participant(i);
      ASSERT_EQ(got.graph_of[node], u) << what << ": participant " << i;
      const std::uint32_t parent =
          want.inviter[u] == kNoInviter ? 0 : got.node_of[want.inviter[u]];
      ASSERT_EQ(got.tree.parent(node), parent) << what << ": node " << u;
    }
    std::vector<bool> joined(g.num_nodes(), false);
    for (std::uint32_t u : want.join_order) joined[u] = true;
    EXPECT_EQ(got.joined, joined) << what;
  }
}

TEST(Builders, SpanningForestMatchesNaiveBfs) {
  constexpr std::size_t kRadixWave = 4096;  // builders.cpp's radix cutoff
  rng::Rng ba_rng(51);
  const graph::Graph ba = graph::barabasi_albert(30000, 3, ba_rng);
  SpanningForestOptions opts;
  opts.seeds = {4, 0, 2, 2, 1};
  opts.attach_unreached_to_root = true;
  expect_forest_matches_naive(ba, opts, kRadixWave, "ba");

  // The cap cuts a radix-sorted wave part-way through.
  SpanningForestOptions capped = opts;
  capped.max_users = 12000;
  capped.attach_unreached_to_root = false;
  expect_forest_matches_naive(ba, capped, kRadixWave, "ba capped");

  // Ids above 2^16, so the radix sort's high-half pass does real work.
  rng::Rng wide_rng(53);
  const graph::Graph wide = graph::barabasi_albert(100000, 2, wide_rng);
  expect_forest_matches_naive(wide, opts, kRadixWave, "ba 100k");

  rng::Rng ws_rng(52);
  const graph::Graph ws = graph::watts_strogatz(20000, 6, 0.1, ws_rng);
  SpanningForestOptions ws_opts;
  ws_opts.seeds = {0, 1, 2};
  ws_opts.attach_unreached_to_root = true;
  expect_forest_matches_naive(ws, ws_opts, 1, "ws");

  SpanningForestOptions one_seed;
  one_seed.seeds = {0};
  one_seed.attach_unreached_to_root = true;
  expect_forest_matches_naive(graph::path(3000), one_seed, 1, "path");
  expect_forest_matches_naive(graph::star(10000), one_seed, kRadixWave,
                              "star");
}

TEST(Builders, BarabasiAlbertForestMatchesCsrBfs) {
  for (const std::uint32_t m : {1u, 2u, 3u, 5u}) {
    for (const std::uint32_t n : {m + 2, 1000u, 50000u}) {
      for (const std::uint32_t k_wanted : {1u, m, m + 1, 10u}) {
        const std::uint32_t k = std::min(k_wanted, n);
        const std::string what = "n=" + std::to_string(n) +
                                 " m=" + std::to_string(m) +
                                 " k=" + std::to_string(k);
        const std::uint64_t seed = 1000003ull * n + 101ull * m + k;
        rng::Rng grown_rng(seed);
        const std::optional<SpanningForestResult> grown =
            barabasi_albert_forest(n, m, k, grown_rng);
        rng::Rng csr_rng(seed);
        if (k < m + 1) {
          // The seeds miss part of the clique: the caller must fall back,
          // and nothing may have been drawn.
          EXPECT_FALSE(grown.has_value()) << what;
          EXPECT_EQ(grown_rng.next_u64(), csr_rng.next_u64()) << what;
          continue;
        }
        ASSERT_TRUE(grown.has_value()) << what;
        const graph::Graph g = graph::barabasi_albert(n, m, csr_rng);
        SpanningForestOptions opts;
        opts.seeds.resize(k);
        std::iota(opts.seeds.begin(), opts.seeds.end(), 0u);
        const SpanningForestResult want = build_spanning_forest(g, opts);
        EXPECT_EQ(grown->tree.parents(), want.tree.parents()) << what;
        EXPECT_EQ(grown->graph_of, want.graph_of) << what;
        EXPECT_EQ(grown->node_of, want.node_of) << what;
        EXPECT_EQ(grown->joined, want.joined) << what;
        EXPECT_EQ(grown->tree.max_depth(), want.tree.max_depth()) << what;
        // Both leave the stream at the same place.
        EXPECT_EQ(grown_rng.next_u64(), csr_rng.next_u64()) << what;
      }
    }
  }
}

// The layout the constructor's DFS computes, rebuilt here from scratch:
// children in ascending id, preorder visiting them in that order.
struct Layout {
  std::vector<std::vector<std::uint32_t>> children;
  std::vector<std::uint32_t> depth, subtree_size, preorder, preorder_pos;
};

Layout reference_layout(const std::vector<std::uint32_t>& parents) {
  const auto n = static_cast<std::uint32_t>(parents.size());
  Layout l;
  l.children.resize(n);
  for (std::uint32_t v = 1; v < n; ++v) l.children[parents[v]].push_back(v);
  l.depth.assign(n, 0);
  l.subtree_size.assign(n, 1);
  l.preorder_pos.assign(n, 0);
  std::vector<std::uint32_t> stack{0};
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    l.preorder_pos[v] = static_cast<std::uint32_t>(l.preorder.size());
    l.preorder.push_back(v);
    for (auto it = l.children[v].rbegin(); it != l.children[v].rend(); ++it) {
      l.depth[*it] = l.depth[v] + 1;
      stack.push_back(*it);
    }
  }
  for (std::size_t i = l.preorder.size(); i > 1; --i) {
    const std::uint32_t v = l.preorder[i - 1];
    l.subtree_size[parents[v]] += l.subtree_size[v];
  }
  return l;
}

void expect_layout_matches_reference(const IncentiveTree& t,
                                     const char* what) {
  const Layout want = reference_layout(t.parents());
  ASSERT_EQ(want.preorder.size(), t.num_nodes()) << what;
  EXPECT_TRUE(std::equal(want.preorder.begin(), want.preorder.end(),
                         t.preorder().begin(), t.preorder().end()))
      << what;
  for (std::uint32_t v = 0; v < t.num_nodes(); ++v) {
    const std::string at = std::string(what) + ": node " + std::to_string(v);
    ASSERT_EQ(t.depth(v), want.depth[v]) << at;
    ASSERT_EQ(t.subtree_size(v), want.subtree_size[v]) << at;
    ASSERT_EQ(t.preorder_index(v), want.preorder_pos[v]) << at;
    const auto kids = t.children(v);
    ASSERT_TRUE(std::equal(kids.begin(), kids.end(), want.children[v].begin(),
                           want.children[v].end()))
        << at;
  }
  EXPECT_EQ(t.max_depth(),
            *std::max_element(want.depth.begin(), want.depth.end()))
      << what;
}

TEST(IncentiveTree, ForwardPassLayoutMatchesDfs) {
  rng::Rng rng(77);
  const IncentiveTree recursive = random_recursive_tree(20000, 0.05, rng);
  expect_layout_matches_reference(recursive, "random recursive");
  expect_layout_matches_reference(random_recursive_tree(5000, 0.0, rng),
                                  "random recursive, one root child");
  expect_layout_matches_reference(chain_tree(3000), "chain");
  expect_layout_matches_reference(flat_tree(3000), "flat");
  expect_layout_matches_reference(IncentiveTree::root_only(), "root only");
  rng::Rng ba_rng(78);
  const auto ba = barabasi_albert_forest(30000, 3, 10, ba_rng);
  ASSERT_TRUE(ba.has_value());
  expect_layout_matches_reference(ba->tree, "ba growth forest");

  // A random relabelling puts some parents after their children, which
  // sends the constructor down the DFS.
  const std::uint32_t n = recursive.num_nodes();
  std::vector<std::uint32_t> label(n);
  std::iota(label.begin(), label.end(), 0u);
  rng.shuffle(std::span<std::uint32_t>(label).subspan(1));
  std::vector<std::uint32_t> relabelled(n, 0);
  for (std::uint32_t v = 1; v < n; ++v) {
    relabelled[label[v]] = label[recursive.parent(v)];
  }
  bool forward_reference = false;
  for (std::uint32_t v = 1; v < n; ++v) {
    forward_reference = forward_reference || relabelled[v] > v;
  }
  ASSERT_TRUE(forward_reference);
  expect_layout_matches_reference(IncentiveTree(std::move(relabelled)),
                                  "relabelled");
}

// children(v) walks the preorder; a scan of the parent vector is the
// definition it must match: every node whose parent is v, ascending.
void expect_children_match_parent_scan(const IncentiveTree& t,
                                       const char* what) {
  std::vector<std::vector<std::uint32_t>> want(t.num_nodes());
  for (std::uint32_t v = 1; v < t.num_nodes(); ++v) {
    want[t.parent(v)].push_back(v);
  }
  for (std::uint32_t v = 0; v < t.num_nodes(); ++v) {
    ASSERT_EQ(t.children(v), want[v]) << what << ": node " << v;
  }
}

TEST(IncentiveTree, ChildrenWalkMatchesParentScan) {
  expect_children_match_parent_scan(IncentiveTree::root_only(), "root only");
  expect_children_match_parent_scan(example_tree(), "example");
  rng::Rng ba_rng(91);
  const auto ba = barabasi_albert_forest(20000, 3, 10, ba_rng);
  ASSERT_TRUE(ba.has_value());
  expect_children_match_parent_scan(ba->tree, "ba growth forest");
  rng::Rng rng(92);
  const IncentiveTree recursive = random_recursive_tree(20000, 0.05, rng);
  expect_children_match_parent_scan(recursive, "random recursive");

  // The sybil rewrite re-parents the victim's children onto identities
  // appended after them, so its tree is laid out by the DFS.
  std::uint32_t victim = 0;
  for (std::uint32_t i = 0; i < recursive.num_participants(); ++i) {
    if (recursive.children(node_of_participant(i)).size() >= 3) {
      victim = i;
      break;
    }
  }
  const std::uint32_t victim_node = node_of_participant(victim);
  ASSERT_GE(recursive.children(victim_node).size(), 3u);
  const std::vector<core::Ask> asks(recursive.num_participants(),
                                    core::Ask{TaskType{0}, 6, 1.0});
  const auto plan = attack::star_plan(recursive, asks, victim, 3, 1.0);
  const auto attacked = attack::apply_sybil(recursive, asks, plan);
  bool parent_after_child = false;
  for (std::uint32_t v = 1; v < attacked.tree.num_nodes(); ++v) {
    parent_after_child = parent_after_child || attacked.tree.parent(v) > v;
  }
  ASSERT_TRUE(parent_after_child);
  expect_children_match_parent_scan(attacked.tree, "sybil rewrite");
}

TEST(Render, AsciiShowsStructure) {
  const auto t = example_tree();
  const std::string art = render_ascii(t);
  EXPECT_NE(art.find("platform"), std::string::npos);
  EXPECT_NE(art.find("P1"), std::string::npos);
  EXPECT_NE(art.find("P5"), std::string::npos);
  // P5 is nested under P4.
  EXPECT_LT(art.find("P4"), art.find("P5"));
}

TEST(Render, TruncatesLargeTrees) {
  const auto t = flat_tree(500);
  const std::string art = render_ascii(t, {}, 10);
  EXPECT_NE(art.find("truncated"), std::string::npos);
}

}  // namespace
}  // namespace rit::tree
