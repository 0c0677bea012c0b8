#include "src/clique/four_cliques.h"

#include <gtest/gtest.h>

#include <set>

#include "src/graph/builder.h"
#include "src/graph/generators.h"

namespace nucleus {
namespace {

// O(n^4) reference 4-clique count.
Count NaiveFourCliqueCount(const Graph& g) {
  Count c = 0;
  const std::size_t n = g.NumVertices();
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId b = a + 1; b < n; ++b) {
      if (!g.HasEdge(a, b)) continue;
      for (VertexId x = b + 1; x < n; ++x) {
        if (!g.HasEdge(a, x) || !g.HasEdge(b, x)) continue;
        for (VertexId y = x + 1; y < n; ++y) {
          if (g.HasEdge(a, y) && g.HasEdge(b, y) && g.HasEdge(x, y)) ++c;
        }
      }
    }
  }
  return c;
}

TEST(FourCliques, CompleteGraphCount) {
  EXPECT_EQ(CountFourCliques(GenerateComplete(4)), 1u);
  EXPECT_EQ(CountFourCliques(GenerateComplete(6)), 15u);   // C(6,4)
  EXPECT_EQ(CountFourCliques(GenerateComplete(8)), 70u);   // C(8,4)
}

TEST(FourCliques, K4FreeGraphs) {
  EXPECT_EQ(CountFourCliques(GenerateCycle(10)), 0u);
  EXPECT_EQ(CountFourCliques(GenerateCompleteBipartite(6, 6)), 0u);
  // K4 minus an edge has no 4-clique.
  const Graph diamond =
      BuildGraphFromEdges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}});
  EXPECT_EQ(CountFourCliques(diamond), 0u);
}

TEST(FourCliques, MatchesNaiveOnRandomGraphs) {
  for (int seed = 0; seed < 5; ++seed) {
    const Graph g = GenerateErdosRenyi(18, 70, seed);
    EXPECT_EQ(CountFourCliques(g), NaiveFourCliqueCount(g))
        << "seed " << seed;
  }
}

TEST(FourCliques, ForEachEnumeratesEachOnceSorted) {
  const Graph g = GenerateErdosRenyi(16, 60, 9);
  std::set<std::array<VertexId, 4>> seen;
  ForEachFourClique(g, [&](VertexId a, VertexId b, VertexId c, VertexId d) {
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
    EXPECT_LT(c, d);
    const VertexId q[4] = {a, b, c, d};
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        EXPECT_TRUE(g.HasEdge(q[i], q[j]));
      }
    }
    const auto [it, inserted] = seen.insert({a, b, c, d});
    EXPECT_TRUE(inserted) << "duplicate 4-clique";
  });
  EXPECT_EQ(seen.size(), CountFourCliques(g));
}

TEST(FourCliques, ParallelCountMatchesSerialOnRmat) {
  const Graph g = GenerateRmat(9, 8, 21);
  const Count serial = CountFourCliques(g, 1);
  EXPECT_GT(serial, 0u);
  EXPECT_EQ(CountFourCliques(g, 2), serial);
  EXPECT_EQ(CountFourCliques(g, 4), serial);
}

TEST(FourCliques, PerTriangleCountsSumToFourTimesTotal) {
  const Graph g = GenerateBarabasiAlbert(80, 5, 4);
  const TriangleIndex tris(g);
  const auto counts = FourCliqueCountsPerTriangle(g, tris);
  Count sum = 0;
  for (Degree c : counts) sum += c;
  EXPECT_EQ(sum, 4 * CountFourCliques(g));
}

TEST(FourCliques, PerTriangleParallelMatchesSequential) {
  const Graph g = GenerateErdosRenyi(40, 200, 13);
  const TriangleIndex tris(g);
  EXPECT_EQ(FourCliqueCountsPerTriangle(g, tris, 1),
            FourCliqueCountsPerTriangle(g, tris, 4));
}

TEST(FourCliques, PerTriangleExample) {
  // K5: every triangle is in exactly 2 four-cliques.
  const Graph g = GenerateComplete(5);
  const TriangleIndex tris(g);
  const auto counts = FourCliqueCountsPerTriangle(g, tris);
  ASSERT_EQ(counts.size(), 10u);
  for (Degree c : counts) EXPECT_EQ(c, 2u);
}

}  // namespace
}  // namespace nucleus
