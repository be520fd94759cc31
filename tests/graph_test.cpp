#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/num_io.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "rng/rng.h"

namespace rit::graph {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g(0, {});
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, AdjacencyAndDegrees) {
  Graph g(4, {{0, 1}, {0, 2}, {2, 1}, {3, 0}});
  EXPECT_EQ(g.num_edges(), 4u);
  auto n0 = g.out_neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  EXPECT_EQ(g.out_degree(1), 0u);
  EXPECT_EQ(g.in_degree(1), 2u);
  EXPECT_EQ(g.in_degree(3), 0u);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(2, 0));
}

TEST(Graph, DeduplicatesParallelEdges) {
  Graph g(3, {{0, 1}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.in_degree(1), 1u);
}

// The CSR the constructor must reproduce, built the obvious way: sort all
// edges by (from, to), drop duplicates, then count rows.
struct ReferenceCsr {
  std::vector<std::size_t> offsets;
  std::vector<std::uint32_t> targets;
  std::vector<std::size_t> in_degree;
};

ReferenceCsr reference_csr(std::uint32_t n, std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  ReferenceCsr ref{std::vector<std::size_t>(n + 1, 0), {},
                   std::vector<std::size_t>(n, 0)};
  for (const Edge& e : edges) {
    ++ref.offsets[e.from + 1];
    ref.targets.push_back(e.to);
    ++ref.in_degree[e.to];
  }
  for (std::size_t u = 1; u <= n; ++u) ref.offsets[u] += ref.offsets[u - 1];
  return ref;
}

void expect_matches_reference(std::uint32_t n, const std::vector<Edge>& edges,
                              const char* what) {
  const ReferenceCsr ref = reference_csr(n, edges);
  const Graph g(n, edges);
  ASSERT_EQ(g.num_nodes(), n) << what;
  ASSERT_EQ(g.num_edges(), ref.targets.size()) << what;
  for (std::uint32_t u = 0; u < n; ++u) {
    const auto got = g.out_neighbors(u);
    const std::span<const std::uint32_t> want(
        ref.targets.data() + ref.offsets[u],
        ref.offsets[u + 1] - ref.offsets[u]);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << what << ": row " << u;
    ASSERT_EQ(g.in_degree(u), ref.in_degree[u]) << what << ": node " << u;
  }
}

TEST(Graph, CsrMatchesSortUniqueReference) {
  expect_matches_reference(0, {}, "n=0");
  expect_matches_reference(1, {}, "n=1");

  // Random edge lists: endpoints drawn from a prefix of the nodes (the
  // rest are isolated), few enough distinct pairs that duplicates are
  // common, rows arriving in random order.
  rng::Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = static_cast<std::uint32_t>(2 + rng.uniform_index(300));
    const auto used = static_cast<std::uint32_t>(2 + rng.uniform_index(n - 1));
    const std::size_t m = rng.uniform_index(6 * used);
    std::vector<Edge> edges;
    while (edges.size() < m) {
      const auto u = static_cast<std::uint32_t>(rng.uniform_index(used));
      const auto v = static_cast<std::uint32_t>(rng.uniform_index(used));
      if (u != v) edges.push_back({u, v});
    }
    expect_matches_reference(n, edges, "random");
  }

  // Generator-shaped lists at pinned seeds: the generator's own edges as
  // emitted (rows in order), shuffled, and shuffled with every edge doubled.
  rng::Rng g1(41), g2(42), g3(43), g4(44);
  const Graph generated[] = {
      barabasi_albert(3000, 3, g1), erdos_renyi(500, 0.02, g2),
      watts_strogatz(2000, 6, 0.3, g3), configuration_model(2000, 2.0, 100, g4),
      star(300), path(300), complete(20)};
  rng::Rng shuffler(45);
  for (const Graph& gen : generated) {
    std::vector<Edge> edges = gen.edges();
    expect_matches_reference(gen.num_nodes(), edges, "generator order");
    shuffler.shuffle(std::span<Edge>(edges));
    expect_matches_reference(gen.num_nodes(), edges, "shuffled");
    const std::size_t once = edges.size();
    for (std::size_t i = 0; i < once; ++i) edges.push_back(edges[i]);
    shuffler.shuffle(std::span<Edge>(edges));
    expect_matches_reference(gen.num_nodes(), edges, "doubled");
    EXPECT_EQ(Graph(gen.num_nodes(), edges).edges(), gen.edges());
  }
}

TEST(Graph, RejectsSelfLoopsAndOutOfRange) {
  EXPECT_THROW(Graph(2, {{0, 0}}), CheckFailure);
  EXPECT_THROW(Graph(2, {{0, 2}}), CheckFailure);
}

TEST(Graph, SourcesAreInDegreeZeroNodes) {
  Graph g(4, {{0, 1}, {1, 2}});
  const auto s = g.sources();
  EXPECT_EQ(s, (std::vector<std::uint32_t>{0, 3}));
}

TEST(Graph, EdgesRoundTrip) {
  std::vector<Edge> in{{0, 1}, {1, 2}, {2, 0}};
  Graph g(3, in);
  EXPECT_EQ(g.edges(), in);
}

TEST(Generators, BarabasiAlbertShape) {
  rng::Rng rng(1);
  const Graph g = barabasi_albert(500, 3, rng);
  EXPECT_EQ(g.num_nodes(), 500u);
  // Seed clique has 4*3 edges; each later node adds exactly 3 in-edges.
  EXPECT_EQ(g.num_edges(), 12u + (500u - 4u) * 3u);
  for (std::uint32_t v = 4; v < 500; ++v) {
    EXPECT_GE(g.in_degree(v), 3u);
  }
}

TEST(Generators, BarabasiAlbertIsHeavyTailed) {
  rng::Rng rng(2);
  const Graph g = barabasi_albert(2000, 2, rng);
  std::size_t max_deg = 0;
  for (std::uint32_t v = 0; v < g.num_nodes(); ++v) {
    max_deg = std::max(max_deg, g.out_degree(v));
  }
  // Preferential attachment produces hubs far above the mean degree (~2).
  EXPECT_GT(max_deg, 20u);
}

TEST(Generators, BarabasiAlbertDeterministicGivenSeed) {
  rng::Rng a(7);
  rng::Rng b(7);
  EXPECT_EQ(barabasi_albert(200, 3, a).edges(),
            barabasi_albert(200, 3, b).edges());
}

TEST(Generators, ErdosRenyiDensityMatchesP) {
  rng::Rng rng(3);
  const std::uint32_t n = 300;
  const double p = 0.02;
  const Graph g = erdos_renyi(n, p, rng);
  const double expected = p * n * (n - 1);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 0.25 * expected);
}

TEST(Generators, ErdosRenyiExtremes) {
  rng::Rng rng(4);
  EXPECT_EQ(erdos_renyi(50, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(erdos_renyi(20, 1.0, rng).num_edges(), 20u * 19u);
}

TEST(Generators, ErdosRenyiTinyPSkipsPastTheEnd) {
  // The first geometric skip is ~1e25 pairs: it must end the draw loop as
  // a double, before any conversion to an integer index.
  rng::Rng rng(46);
  EXPECT_EQ(erdos_renyi(1000, 1e-25, rng).num_edges(), 0u);
}

// FNV-1a over "from to\n" per edge, plus the next draw of the generator's
// stream, so both the edge list and the number of draws consumed are pinned.
std::uint64_t edge_digest(const Graph& g, rng::Rng& rng) {
  std::string text;
  for (const Edge& e : g.edges()) {
    text += format_u64(e.from) + " " + format_u64(e.to) + "\n";
  }
  text += format_u64(rng.next_u64());
  return fnv1a64(text);
}

std::uint64_t er_digest(std::uint32_t n, double p, std::uint64_t seed) {
  rng::Rng rng(seed);
  const Graph g = erdos_renyi(n, p, rng);
  return edge_digest(g, rng);
}

std::uint64_t ba_digest(std::uint32_t n, std::uint32_t m, std::uint64_t seed) {
  rng::Rng rng(seed);
  const Graph g = barabasi_albert(n, m, rng);
  return edge_digest(g, rng);
}

TEST(Generators, ErdosRenyiEdgeListIsPinned) {
  // Recorded from the generator's own skip loop, before it moved onto
  // rng::GeometricGaps: the shared draw must not move a single edge.
  EXPECT_EQ(er_digest(300, 0.02, 3), 10672402753291905295ull);
  EXPECT_EQ(er_digest(2000, 0.003, 11), 9622946537957243374ull);
  EXPECT_EQ(er_digest(50, 0.5, 20170605), 15326367831563066858ull);
  EXPECT_EQ(er_digest(1000, 1e-7, 46), 1276906933004702737ull);
}

TEST(Generators, BarabasiAlbertEdgeListIsPinned) {
  // Recorded from the loop that stored both endpoints of every edge: the
  // half-stored repeated-nodes list must draw the same influencers.
  EXPECT_EQ(ba_digest(50000, 1, 20170605), 17919335592789732271ull);
  EXPECT_EQ(ba_digest(50000, 3, 20170605), 5541716466538082140ull);
  EXPECT_EQ(ba_digest(50000, 3, 42), 9199559949622219452ull);
  EXPECT_EQ(ba_digest(12, 5, 7), 134612291363478931ull);
}

TEST(Generators, WattsStrogatzUnrewiredIsRegularRing) {
  rng::Rng rng(5);
  const Graph g = watts_strogatz(20, 4, 0.0, rng);
  // Each node gets k/2 forward edges, mirrored: out-degree k.
  for (std::uint32_t v = 0; v < 20; ++v) {
    EXPECT_EQ(g.out_degree(v), 4u);
  }
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(1, 0));
}

TEST(Generators, WattsStrogatzRewiredStaysSimple) {
  rng::Rng rng(6);
  const Graph g = watts_strogatz(100, 6, 0.5, rng);
  for (const Edge& e : g.edges()) {
    EXPECT_NE(e.from, e.to);
    EXPECT_LT(e.from, 100u);
    EXPECT_LT(e.to, 100u);
  }
}

TEST(Generators, ConfigurationModelDegreesWithinBounds) {
  rng::Rng rng(10);
  const Graph g = configuration_model(1000, 2.0, 50, rng);
  EXPECT_EQ(g.num_nodes(), 1000u);
  for (std::uint32_t u = 0; u < 1000; ++u) {
    EXPECT_GE(g.out_degree(u), 1u);
    EXPECT_LE(g.out_degree(u), 50u);
  }
}

TEST(Generators, ConfigurationModelIsSimple) {
  rng::Rng rng(11);
  const Graph g = configuration_model(300, 1.8, 40, rng);
  // Graph's constructor dedups; equality of edge count and stub count means
  // no duplicates were produced (or were cleanly rejected).
  for (const Edge& e : g.edges()) EXPECT_NE(e.from, e.to);
}

TEST(Generators, ConfigurationModelZipfTail) {
  // With exponent 2, P(degree = 1) ~ 1/zeta-ish dominates and the max is
  // far above the mean: heavy-tailed like a follower graph.
  rng::Rng rng(12);
  const Graph g = configuration_model(5000, 2.0, 200, rng);
  std::size_t ones = 0;
  std::size_t max_deg = 0;
  double sum = 0.0;
  for (std::uint32_t u = 0; u < g.num_nodes(); ++u) {
    const std::size_t d = g.out_degree(u);
    ones += d == 1 ? 1 : 0;
    max_deg = std::max(max_deg, d);
    sum += static_cast<double>(d);
  }
  EXPECT_GT(static_cast<double>(ones) / g.num_nodes(), 0.45);
  EXPECT_GT(static_cast<double>(max_deg), 10.0 * sum / g.num_nodes());
}

TEST(Generators, ConfigurationModelDeterministicAndValidating) {
  rng::Rng a(13);
  rng::Rng b(13);
  EXPECT_EQ(configuration_model(200, 2.2, 30, a).edges(),
            configuration_model(200, 2.2, 30, b).edges());
  rng::Rng rng(14);
  EXPECT_THROW(configuration_model(1, 2.0, 1, rng), CheckFailure);
  EXPECT_THROW(configuration_model(10, 1.0, 3, rng), CheckFailure);
  EXPECT_THROW(configuration_model(10, 2.0, 10, rng), CheckFailure);
}

TEST(Generators, ConfigurationModelDegenerateMaxDegree) {
  // max_degree = n-1 forces the rejection fallback into action sometimes;
  // the result must still be simple and complete.
  rng::Rng rng(15);
  const Graph g = configuration_model(12, 1.2, 11, rng);
  for (const Edge& e : g.edges()) EXPECT_NE(e.from, e.to);
  for (std::uint32_t u = 0; u < 12; ++u) EXPECT_GE(g.out_degree(u), 1u);
}

TEST(Generators, StarAndPathAndComplete) {
  const Graph s = star(5);
  EXPECT_EQ(s.num_edges(), 4u);
  EXPECT_EQ(s.out_degree(0), 4u);
  const Graph p = path(4);
  EXPECT_TRUE(p.has_edge(0, 1));
  EXPECT_TRUE(p.has_edge(2, 3));
  EXPECT_EQ(p.num_edges(), 3u);
  const Graph c = complete(4);
  EXPECT_EQ(c.num_edges(), 12u);
}

TEST(EdgeListIo, ParsesCommentsAndRemapsIds) {
  std::istringstream in(
      "# a comment\n"
      "10 20\n"
      "20 30  # trailing comment\n"
      "\n"
      "10 30\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 3u);  // {10,20,30} -> {0,1,2}
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(EdgeListIo, DropsSelfLoops) {
  std::istringstream in("1 1\n1 2\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(EdgeListIo, RejectsMalformedLines) {
  std::istringstream in("1\n");
  EXPECT_THROW(read_edge_list(in), CheckFailure);
  std::istringstream in2("1 2 3\n");
  EXPECT_THROW(read_edge_list(in2), CheckFailure);
}

TEST(EdgeListIo, WriteReadRoundTrip) {
  rng::Rng rng(8);
  const Graph g = barabasi_albert(50, 2, rng);
  std::stringstream buf;
  write_edge_list(g, buf);
  const Graph g2 = read_edge_list(buf);
  EXPECT_EQ(g2.num_nodes(), g.num_nodes());
  EXPECT_EQ(g2.edges(), g.edges());
}

TEST(EdgeListIo, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/path/to/graph.txt"),
               CheckFailure);
}

}  // namespace
}  // namespace rit::graph
