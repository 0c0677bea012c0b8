#include "src/peel/hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/clique/compressed_csr_space.h"
#include "src/clique/csr_space.h"
#include "src/clique/triangles.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/peel/generic_peel.h"
#include "tests/testlib/hierarchy_check.h"

namespace nucleus {
namespace {

// Two K5 blocks joined by a 3-vertex path:
// block A = {0..4}, path = {5, 6, 7} (4-5, 5-6, 6-7, 7-8), block B = {8..12}.
Graph TwoCliquesWithBridge() {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) edges.emplace_back(u, v);
  }
  for (VertexId u = 8; u < 13; ++u) {
    for (VertexId v = u + 1; v < 13; ++v) edges.emplace_back(u, v);
  }
  edges.emplace_back(4, 5);
  edges.emplace_back(5, 6);
  edges.emplace_back(6, 7);
  edges.emplace_back(7, 8);
  return BuildGraphFromEdges(13, edges);
}

// Checks the structural invariants every hierarchy must satisfy.
template <typename Space>
void CheckInvariants(const Space& space, const std::vector<Degree>& kappa,
                     const NucleusHierarchy& h) {
  const std::size_t n = space.NumRCliques();
  // Every r-clique appears in exactly one node, at its own kappa level.
  std::vector<int> appearances(n, 0);
  for (std::size_t id = 0; id < h.nodes.size(); ++id) {
    for (CliqueId r : h.nodes[id].new_members) {
      ++appearances[r];
      EXPECT_EQ(h.nodes[id].k, kappa[r]);
      EXPECT_EQ(h.node_of_clique[r], static_cast<int>(id));
    }
  }
  for (std::size_t r = 0; r < n; ++r) EXPECT_EQ(appearances[r], 1);
  // Parent k < child k, parent/child links consistent, sizes add up.
  for (std::size_t id = 0; id < h.nodes.size(); ++id) {
    const auto& node = h.nodes[id];
    std::size_t child_size = 0;
    for (int c : node.children) {
      EXPECT_GT(h.nodes[c].k, node.k);
      EXPECT_EQ(h.nodes[c].parent, static_cast<int>(id));
      child_size += h.nodes[c].size;
    }
    EXPECT_EQ(node.size, node.new_members.size() + child_size);
    if (node.parent == -1) {
      EXPECT_NE(std::find(h.roots.begin(), h.roots.end(),
                          static_cast<int>(id)),
                h.roots.end());
    }
  }
  // Root sizes sum to n.
  std::size_t total = 0;
  for (int r : h.roots) total += h.nodes[r].size;
  EXPECT_EQ(total, n);
}

TEST(CoreHierarchy, TwoCliquesWithBridgeShape) {
  const Graph g = TwoCliquesWithBridge();
  const auto kappa = PeelCore(g).kappa;
  const auto h = BuildCoreHierarchy(g, kappa);
  CheckInvariants(CoreSpace(g), kappa, h);
  // Every vertex has degree >= 2, so the whole graph is one 2-core that
  // contains the two K5 4-cores as children.
  std::size_t k4_nodes = 0, k2_nodes = 0;
  for (const auto& node : h.nodes) {
    if (node.k == 4) {
      ++k4_nodes;
      EXPECT_EQ(node.size, 5u);
    }
    if (node.k == 2) {
      ++k2_nodes;
      EXPECT_EQ(node.size, 13u);
      EXPECT_EQ(node.children.size(), 2u);
    }
  }
  EXPECT_EQ(k4_nodes, 2u);
  EXPECT_EQ(k2_nodes, 1u);
  EXPECT_EQ(h.roots.size(), 1u);
  EXPECT_EQ(h.Depth(), 2u);
}

TEST(CoreHierarchy, DisconnectedComponentsAreSeparateRoots) {
  // Two disjoint triangles.
  const Graph g =
      BuildGraphFromEdges(6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  const auto kappa = PeelCore(g).kappa;
  const auto h = BuildCoreHierarchy(g, kappa);
  CheckInvariants(CoreSpace(g), kappa, h);
  EXPECT_EQ(h.roots.size(), 2u);
  for (int r : h.roots) {
    EXPECT_EQ(h.nodes[r].k, 2u);
    EXPECT_EQ(h.nodes[r].size, 3u);
  }
}

TEST(CoreHierarchy, IsolatedVerticesAreZeroNodes) {
  const Graph g = BuildGraphFromEdges(4, {{0, 1}});
  const auto kappa = PeelCore(g).kappa;
  const auto h = BuildCoreHierarchy(g, kappa);
  CheckInvariants(CoreSpace(g), kappa, h);
  // Vertices 2 and 3 are isolated (kappa 0): singleton root nodes.
  std::size_t zero_roots = 0;
  for (int r : h.roots) {
    if (h.nodes[r].k == 0) ++zero_roots;
  }
  EXPECT_EQ(zero_roots, 2u);
}

TEST(CoreHierarchy, NestedCliquesProduceChain) {
  const Graph g = GenerateNestedCliques(3, 4, 4, 7);
  const auto kappa = PeelCore(g).kappa;
  const auto h = BuildCoreHierarchy(g, kappa);
  CheckInvariants(CoreSpace(g), kappa, h);
  // The densest clique (K12) must be in a deepest node.
  EXPECT_GE(h.Depth(), 3u);
}

TEST(TrussHierarchy, InvariantsOnRandomGraph) {
  const Graph g = GenerateErdosRenyi(30, 140, 17);
  const EdgeIndex edges(g);
  const auto kappa = PeelTruss(g, edges).kappa;
  const auto h = BuildTrussHierarchy(g, edges, kappa);
  CheckInvariants(TrussSpace(g, edges), kappa, h);
}

TEST(TrussHierarchy, TriangleDisconnectedTrussesSeparate) {
  // Figure 3 of the paper: two 1-(3,4)-like nuclei are separate when no
  // s-clique bridges them. Truss analogue: two triangles sharing a single
  // vertex are *not* triangle-connected, so the k=1 trusses stay separate.
  const Graph g = BuildGraphFromEdges(
      5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}});
  const EdgeIndex edges(g);
  const auto kappa = PeelTruss(g, edges).kappa;
  const auto h = BuildTrussHierarchy(g, edges, kappa);
  CheckInvariants(TrussSpace(g, edges), kappa, h);
  std::size_t k1_nodes = 0;
  for (const auto& node : h.nodes) {
    if (node.k == 1) {
      ++k1_nodes;
      EXPECT_EQ(node.size, 3u);  // each triangle: 3 edges
    }
  }
  EXPECT_EQ(k1_nodes, 2u);
}

TEST(Nucleus34Hierarchy, InvariantsOnRandomGraph) {
  const Graph g = GenerateErdosRenyi(20, 95, 23);
  const TriangleIndex tris(g);
  const auto kappa = PeelNucleus34(g, tris).kappa;
  const auto h = BuildNucleus34Hierarchy(g, tris, kappa);
  CheckInvariants(Nucleus34Space(g, tris), kappa, h);
}

TEST(Nucleus34Hierarchy, TwoK4sSharingTriangleFourCliqueDisconnected) {
  // Two K4s sharing one triangle {0,1,2}: 4-cliques {0,1,2,3} and
  // {0,1,2,4} share the triangle, so all triangles are S-connected through
  // it and the two K4s merge at k=1.
  const Graph g = BuildGraphFromEdges(
      5, {{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}, {2, 3}, {0, 4}, {1, 4},
          {2, 4}});
  const TriangleIndex tris(g);
  const auto kappa = PeelNucleus34(g, tris).kappa;
  const auto h = BuildNucleus34Hierarchy(g, tris, kappa);
  CheckInvariants(Nucleus34Space(g, tris), kappa, h);
  // Shared triangle {0,1,2} is in two 4-cliques -> kappa 2 is impossible
  // (each of its s-cliques has co-members of kappa 1), all others kappa 1.
  for (TriangleId t = 0; t < tris.NumTriangles(); ++t) {
    EXPECT_EQ(kappa[t], 1u);
  }
}

TEST(Hierarchy, EmptyGraph) {
  const Graph g;
  const auto h = BuildCoreHierarchy(g, {});
  EXPECT_TRUE(h.nodes.empty());
  EXPECT_TRUE(h.roots.empty());
  EXPECT_EQ(h.Depth(), 0u);
}

TEST(Hierarchy, SingleVertex) {
  const Graph g = BuildGraphFromEdges(1, {});
  const auto kappa = PeelCore(g).kappa;
  const auto h = BuildCoreHierarchy(g, kappa);
  ASSERT_EQ(h.nodes.size(), 1u);
  EXPECT_EQ(h.nodes[0].k, 0u);
  EXPECT_EQ(h.Depth(), 1u);
}

// The sweep's output depends only on each level's ascending member order,
// not on how s-cliques are enumerated: both arena rungs and both
// BuildHierarchy overloads reproduce the on-the-fly forest bit for bit.
template <typename Space>
void ExpectSameForestOnEveryRung(const Space& space) {
  const PeelResult peel = PeelDecomposition(space);
  const std::vector<std::uint8_t> live = space.LiveRFlags();
  const NucleusHierarchy fly = BuildHierarchy(space, peel.kappa, live);
  const CsrSpace<Space> csr(space, 2);
  const CompressedCsrSpace<Space> packed(space, 2);
  testlib::ExpectHierarchiesEqual(BuildHierarchy(csr, peel.kappa, live), fly,
                                  "csr kappa");
  testlib::ExpectHierarchiesEqual(BuildHierarchy(csr, peel), fly,
                                  "csr peel levels");
  testlib::ExpectHierarchiesEqual(BuildHierarchy(packed, peel.kappa, live),
                                  fly, "compressed kappa");
  testlib::ExpectHierarchiesEqual(BuildHierarchy(packed, peel), fly,
                                  "compressed peel levels");
}

TEST(TrussHierarchy, ArenaRungsMatchOnTheFly) {
  const Graph g = GeneratePlantedPartition(3, 16, 0.55, 0.04, 5);
  const EdgeIndex edges(g);
  ExpectSameForestOnEveryRung(TrussSpace(g, edges));
}

TEST(Nucleus34Hierarchy, ArenaRungsMatchOnTheFly) {
  const Graph g = GeneratePlantedPartition(3, 16, 0.6, 0.04, 6);
  const TriangleIndex tris(g, 2);
  ExpectSameForestOnEveryRung(Nucleus34Space(g, tris));
}

}  // namespace
}  // namespace nucleus
