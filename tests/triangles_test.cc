#include "src/clique/triangles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <utility>
#include <vector>

#include "src/graph/builder.h"
#include "src/graph/generators.h"

namespace nucleus {
namespace {

// O(n^3) reference triangle count.
Count NaiveTriangleCount(const Graph& g) {
  Count c = 0;
  const std::size_t n = g.NumVertices();
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (!g.HasEdge(u, v)) continue;
      for (VertexId w = v + 1; w < n; ++w) {
        if (g.HasEdge(u, w) && g.HasEdge(v, w)) ++c;
      }
    }
  }
  return c;
}

TEST(Triangles, CompleteGraphCount) {
  EXPECT_EQ(CountTriangles(GenerateComplete(5)), 10u);   // C(5,3)
  EXPECT_EQ(CountTriangles(GenerateComplete(10)), 120u); // C(10,3)
}

TEST(Triangles, TriangleFreeGraphs) {
  EXPECT_EQ(CountTriangles(GenerateCompleteBipartite(5, 5)), 0u);
  EXPECT_EQ(CountTriangles(GenerateGrid(5, 5)), 0u);
  EXPECT_EQ(CountTriangles(GeneratePath(10)), 0u);
  EXPECT_EQ(CountTriangles(GenerateStar(10)), 0u);
}

TEST(Triangles, MatchesNaiveOnRandomGraphs) {
  for (int seed = 0; seed < 5; ++seed) {
    const Graph g = GenerateErdosRenyi(25, 90, seed);
    EXPECT_EQ(CountTriangles(g), NaiveTriangleCount(g)) << "seed " << seed;
  }
}

TEST(Triangles, ForEachEnumeratesEachOnceSorted) {
  const Graph g = GenerateErdosRenyi(20, 70, 3);
  std::set<std::array<VertexId, 3>> seen;
  ForEachTriangle(g, [&](VertexId u, VertexId v, VertexId w) {
    EXPECT_LT(u, v);
    EXPECT_LT(v, w);
    EXPECT_TRUE(g.HasEdge(u, v));
    EXPECT_TRUE(g.HasEdge(u, w));
    EXPECT_TRUE(g.HasEdge(v, w));
    const auto [it, inserted] = seen.insert({u, v, w});
    EXPECT_TRUE(inserted) << "duplicate triangle";
  });
  EXPECT_EQ(seen.size(), CountTriangles(g));
}

TEST(Triangles, PerEdgeCountsSumToThreeTimesTotal) {
  const Graph g = GenerateBarabasiAlbert(100, 4, 9);
  const EdgeIndex idx(g);
  const auto counts = TriangleCountsPerEdge(g, idx);
  Count sum = 0;
  for (Degree c : counts) sum += c;
  EXPECT_EQ(sum, 3 * CountTriangles(g));
}

TEST(Triangles, PerEdgeCountsParallelMatchSequential) {
  const Graph g = GenerateErdosRenyi(60, 250, 11);
  const EdgeIndex idx(g);
  EXPECT_EQ(TriangleCountsPerEdge(g, idx, 1),
            TriangleCountsPerEdge(g, idx, 4));
}

TEST(Triangles, PerEdgeCountExamples) {
  // K4 minus one edge: the remaining "diagonal" edge is in 2 triangles.
  const Graph g =
      BuildGraphFromEdges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}});
  const EdgeIndex idx(g);
  const auto counts = TriangleCountsPerEdge(g, idx);
  EXPECT_EQ(counts[idx.EdgeIdOf(0, 1)], 2u);
  EXPECT_EQ(counts[idx.EdgeIdOf(0, 2)], 1u);
  EXPECT_EQ(counts[idx.EdgeIdOf(2, 1)], 1u);
}

TEST(TriangleIndex, IdsAreSortedTriples) {
  const Graph g = GenerateErdosRenyi(25, 90, 2);
  const TriangleIndex tris(g);
  EXPECT_EQ(tris.NumTriangles(), CountTriangles(g));
  for (TriangleId t = 0; t + 1 < tris.NumTriangles(); ++t) {
    EXPECT_LT(tris.Vertices(t), tris.Vertices(t + 1));
  }
}

TEST(TriangleIndex, LookupRoundTrip) {
  const Graph g = GenerateBarabasiAlbert(60, 4, 3);
  const TriangleIndex tris(g);
  for (TriangleId t = 0; t < tris.NumTriangles(); ++t) {
    const auto& v = tris.Vertices(t);
    EXPECT_EQ(tris.TriangleIdOf(v[0], v[1], v[2]), t);
    EXPECT_EQ(tris.TriangleIdOf(v[2], v[0], v[1]), t);  // any order
  }
}

TEST(TriangleIndex, MissingTriangleInvalid) {
  const Graph g = GenerateCycle(6);
  const TriangleIndex tris(g);
  EXPECT_EQ(tris.NumTriangles(), 0u);
  EXPECT_EQ(tris.TriangleIdOf(0, 1, 2), kInvalidTriangle);
}

TEST(TriangleIndex, ForEachTriangleOfEdge) {
  const Graph g = GenerateComplete(5);
  const TriangleIndex tris(g);
  std::size_t count = 0;
  tris.ForEachTriangleOfEdge(g, 0, 1, [&](TriangleId t, VertexId w) {
    EXPECT_NE(t, kInvalidTriangle);
    EXPECT_GT(w, 1u);
    ++count;
  });
  EXPECT_EQ(count, 3u);  // K5: edge {0,1} in triangles with 2, 3, 4
}

TEST(TriangleIndex, ParallelBuildMatchesSerial) {
  const Graph g = GenerateBarabasiAlbert(200, 5, 11);
  const TriangleIndex serial(g, 1);
  const TriangleIndex parallel(g, 4);
  ASSERT_EQ(parallel.NumTriangles(), serial.NumTriangles());
  for (TriangleId t = 0; t < serial.NumTriangles(); ++t) {
    EXPECT_EQ(parallel.Vertices(t), serial.Vertices(t));
  }
}

TEST(TriangleIndex, IdenticalAcrossThreadCountsOnRmat) {
  // RMAT piles most triangles onto low vertex ids, the skew the dynamic
  // vertex chunks balance; the index must not depend on who claims what.
  const Graph g = GenerateRmat(10, 8, 13);
  const TriangleIndex serial(g, 1);
  ASSERT_GT(serial.NumTriangles(), 0u);
  EXPECT_EQ(serial.NumTriangles(), CountTriangles(g, 4));
  for (const int threads : {2, 4}) {
    const TriangleIndex parallel(g, threads);
    ASSERT_EQ(parallel.NumTriangles(), serial.NumTriangles());
    for (TriangleId t = 0; t < serial.NumTriangles(); ++t) {
      ASSERT_EQ(parallel.Vertices(t), serial.Vertices(t)) << "id " << t;
    }
  }
}

TEST(CountTriangles, ParallelMatchesSerial) {
  const Graph g = GenerateBarabasiAlbert(300, 4, 17);
  EXPECT_EQ(CountTriangles(g, 4), CountTriangles(g));
}

TEST(ForEachTriangleBlocks, CoversEveryTriangleOnce) {
  const Graph g = GenerateBarabasiAlbert(150, 4, 19);
  std::vector<std::array<VertexId, 3>> serial;
  ForEachTriangle(g, [&](VertexId u, VertexId v, VertexId w) {
    serial.push_back({u, v, w});
  });
  std::sort(serial.begin(), serial.end());
  const int threads = 4;
  std::vector<std::vector<std::array<VertexId, 3>>> parts(threads);
  ForEachTriangleBlocks(g, threads,
                        [&](int b, VertexId u, VertexId v, VertexId w) {
                          EXPECT_LT(u, v);
                          EXPECT_LT(v, w);
                          parts[b].push_back({u, v, w});
                        });
  std::vector<std::array<VertexId, 3>> merged;
  for (const auto& p : parts) merged.insert(merged.end(), p.begin(), p.end());
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, serial);
}

TEST(EdgeTriangleCsr, MatchesOnTheFlyLookups) {
  const Graph g = GenerateBarabasiAlbert(120, 5, 23);
  const EdgeIndex edges(g);
  const TriangleIndex tris(g);
  for (const int threads : {1, 4}) {
    const EdgeTriangleCsr csr(edges, tris, threads);
    ASSERT_EQ(csr.NumEdges(), edges.NumEdges());
    for (EdgeId e = 0; e < edges.NumEdges(); ++e) {
      const auto [u, v] = edges.Endpoints(e);
      std::vector<std::pair<TriangleId, VertexId>> expect;
      tris.ForEachTriangleOfEdge(g, u, v, [&](TriangleId t, VertexId w) {
        expect.emplace_back(t, w);
      });
      std::sort(expect.begin(), expect.end());
      std::vector<std::pair<TriangleId, VertexId>> got;
      csr.ForEachTriangleOfEdge(e, [&](TriangleId t, VertexId w) {
        got.emplace_back(t, w);
      });
      // CSR reports ascending ids already; sort defensively for the diff.
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expect) << "edge " << e;
      EXPECT_EQ(csr.TriangleCount(e), expect.size());
    }
  }
}

TEST(EdgeTriangleCsr, CountsEqualPerEdgeTriangleCounts) {
  const Graph g = GenerateBarabasiAlbert(100, 4, 29);
  const EdgeIndex edges(g);
  const TriangleIndex tris(g);
  const EdgeTriangleCsr csr(edges, tris, 2);
  const auto d3 = TriangleCountsPerEdge(g, edges);
  for (EdgeId e = 0; e < edges.NumEdges(); ++e) {
    EXPECT_EQ(csr.TriangleCount(e), d3[e]);
  }
}

TEST(TriangleIndex, ApplyDeltaTombstonesAppendsAndRevives) {
  // Two triangles sharing edge (1,2): {0,1,2} and {1,2,3}.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  TriangleIndex tris(b.Build());
  ASSERT_EQ(tris.NumTriangles(), 2u);
  const TriangleId t012 = tris.TriangleIdOf(0, 1, 2);
  // Kill {0,1,2}, birth {0,2,3} (as if edges (0,1) removed, (0,3) added).
  const std::vector<std::array<VertexId, 3>> dead = {{0, 1, 2}};
  const std::vector<std::array<VertexId, 3>> born = {{0, 2, 3}};
  const auto ids = tris.ApplyDelta(dead, born);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 2u);  // appended past the pristine range
  EXPECT_EQ(tris.NumTriangles(), 3u);
  EXPECT_EQ(tris.NumLiveTriangles(), 2u);
  EXPECT_FALSE(tris.IsLive(t012));
  EXPECT_EQ(tris.TriangleIdOf(2, 0, 1), kInvalidTriangle);
  EXPECT_EQ(tris.TriangleIdOf(3, 2, 0), ids[0]);
  EXPECT_EQ(tris.TriangleIdOf(1, 2, 3), tris.TriangleIdOf(3, 1, 2));
  // Revive the pristine tombstone and tombstone the appended id.
  const auto ids2 = tris.ApplyDelta(born, dead);
  EXPECT_EQ(ids2[0], t012);  // revived, not re-appended
  EXPECT_EQ(tris.NumTriangles(), 3u);
  EXPECT_EQ(tris.NumLiveTriangles(), 2u);
  EXPECT_FALSE(tris.IsLive(2));
  EXPECT_TRUE(tris.IsLive(t012));
}

TEST(EdgeTriangleCsr, ApplyDeltaPatchesEntriesInPlace) {
  // K4 on {0,1,2,3}: four triangles, every edge in two of them.
  GraphBuilder b;
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) b.AddEdge(u, v);
  }
  const Graph g = b.Build();
  EdgeIndex edges(g);
  TriangleIndex tris(g);
  EdgeTriangleCsr csr(edges, tris);
  // Simulate removing edge (0,1): triangles {0,1,2} and {0,1,3} die.
  const TriangleId t012 = tris.TriangleIdOf(0, 1, 2);
  const TriangleId t013 = tris.TriangleIdOf(0, 1, 3);
  const EdgeId e01 = edges.EdgeIdOf(0, 1);
  const std::vector<EdgeTriangleCsr::TrianglePatch> dead = {
      {t012, {e01, edges.EdgeIdOf(0, 2), edges.EdgeIdOf(1, 2)}, {2, 1, 0}},
      {t013, {e01, edges.EdgeIdOf(0, 3), edges.EdgeIdOf(1, 3)}, {3, 1, 0}},
  };
  const std::vector<EdgeId> dead_edges = {e01};
  csr.ApplyDelta(dead, {}, dead_edges, edges.NumEdges());
  EXPECT_EQ(csr.TriangleCount(e01), 0u);
  EXPECT_EQ(csr.TriangleCount(edges.EdgeIdOf(0, 2)), 1u);
  EXPECT_EQ(csr.TriangleCount(edges.EdgeIdOf(2, 3)), 2u);
  std::vector<TriangleId> got;
  csr.ForEachTriangleOfEdge(edges.EdgeIdOf(0, 2),
                            [&](TriangleId t, VertexId w) {
                              got.push_back(t);
                              EXPECT_EQ(w, 3u);  // only {0,2,3} survives
                            });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], tris.TriangleIdOf(0, 2, 3));
  // Patch the triangles back in (edge (0,1) restored).
  csr.ApplyDelta({}, dead, {}, edges.NumEdges());
  EXPECT_EQ(csr.TriangleCount(e01), 2u);
  EXPECT_EQ(csr.TriangleCount(edges.EdgeIdOf(0, 2)), 2u);
}

}  // namespace
}  // namespace nucleus
