// The dynamic-graph certification battery: a 100-commit small-batch churn
// over a NucleusSession with all three kappa caches AND all three cached
// hierarchies warm. After EVERY commit, for every space:
//   - Decompose must be served from cache (zero engine reruns),
//   - every patched kappa value must equal a from-scratch peel on the
//     mutated graph (compared through the endpoint-pair / vertex-triple
//     mapping, since patched ids are stable while fresh ids re-densify),
//   - the repaired cached hierarchy must be bitwise-equal, node for node,
//     to a full from-scratch rebuild over the same patched id space —
//     which also pins the level partition: new_members of the level-k
//     nodes ARE the kappa == k live ids.
// The final stats prove the contract: zero index/arena/CSR/hierarchy
// builds beyond the warm-up, zero compactions, one (2,3) and one (3,4)
// kappa re-seed plus three hierarchy repairs per commit. Runs at 1, 4,
// and 8 threads, with concurrent reader bursts interleaved between
// commits to drive the shared-lock read paths under churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/clique/edge_index.h"
#include "src/clique/triangles.h"
#include "src/common/rng.h"
#include "src/core/session.h"
#include "src/graph/generators.h"
#include "src/peel/generic_peel.h"
#include "src/peel/hierarchy.h"
#include "tests/testlib/hierarchy_check.h"

namespace nucleus {
namespace {

constexpr int kRounds = 100;
constexpr int kOpsPerRound = 4;
// The churn toggles a fixed pool of pairs, so at most kPoolSize ids are
// ever simultaneously tombstoned — below kMinDeadForCompaction, which
// keeps the whole run compaction-free by construction.
constexpr int kPoolSize = 24;

void ChurnAndCertify(int threads, std::uint64_t seed) {
  const Graph initial = GeneratePlantedPartition(3, 14, 0.55, 0.05, 13);
  NucleusSession session(initial);

  DecomposeOptions warm;
  warm.method = Method::kAnd;
  warm.threads = threads;
  warm.materialize = Materialize::kOn;  // force arenas so patches are hit
  const DecompositionKind kinds[] = {DecompositionKind::kCore,
                                     DecompositionKind::kTruss,
                                     DecompositionKind::kNucleus34};
  for (auto kind : kinds) {
    ASSERT_TRUE(session.Decompose(kind, warm).ok());
    ASSERT_TRUE(session.Hierarchy(kind, warm).ok());  // cache all three
  }
  session.EdgeTriangles(threads);
  const SessionStats warm_stats = session.stats();
  ASSERT_EQ(warm_stats.hierarchy_builds, 3);

  // A fixed pool of churnable pairs: every op toggles one (remove when
  // present, insert when absent), so removed ids get revived instead of
  // accumulating tombstones.
  Rng rng(seed);
  const std::size_t n = initial.NumVertices();
  std::vector<std::pair<VertexId, VertexId>> pool;
  while (pool.size() < kPoolSize) {
    const VertexId u = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    const VertexId v = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    if (u == v) continue;
    const auto p = std::minmax(u, v);
    if (std::find(pool.begin(), pool.end(),
                  std::make_pair(p.first, p.second)) == pool.end()) {
      pool.emplace_back(p.first, p.second);
    }
  }

  for (int round = 0; round < kRounds; ++round) {
    auto batch = session.BeginUpdates();
    ASSERT_TRUE(batch.MaintainsTruss());
    ASSERT_TRUE(batch.MaintainsNucleus34());
    int applied = 0;
    while (applied < kOpsPerRound) {
      const auto& [u, v] = pool[rng.UniformInt(0, pool.size() - 1)];
      if (batch.InsertEdge(u, v) || batch.RemoveEdge(u, v)) ++applied;
    }
    // Concurrent readers race a few commits: Decompose returns by value,
    // so a commit landing mid-burst is safe (and TSAN-checked).
    if (round % 25 == 24) {
      std::vector<std::thread> readers;
      for (int r = 0; r < 4; ++r) {
        readers.emplace_back([&session, &warm, &kinds] {
          for (int i = 0; i < 3; ++i) {
            for (auto kind : kinds) {
              auto res = session.Decompose(kind, warm);
              ASSERT_TRUE(res.ok());
            }
          }
        });
      }
      ASSERT_TRUE(batch.Commit().ok());
      for (auto& t : readers) t.join();
    } else {
      ASSERT_TRUE(batch.Commit().ok());
    }

    const Graph& g = session.graph();
    const EdgeIndex fresh_edges(g);
    const TriangleIndex fresh_tris(g, threads);
    const EdgeIndex& patched_edges = session.Edges();
    const TriangleIndex& patched_tris = session.Triangles(threads);
    const auto core_ref = PeelCore(g).kappa;
    const auto truss_ref = PeelTruss(g, fresh_edges).kappa;
    const auto n34_ref = PeelNucleus34(g, fresh_tris).kappa;

    for (auto kind : kinds) {
      // Every read after the commit is a cache hit: zero engine reruns.
      const auto res = session.Decompose(kind, warm);
      ASSERT_TRUE(res.ok());
      ASSERT_TRUE(res->served_from_cache) << "round " << round;
      ASSERT_TRUE(res->exact);

      // Patched kappa equals from-scratch peel, value for value.
      if (kind == DecompositionKind::kCore) {
        ASSERT_EQ(res->kappa, core_ref) << "round " << round;
      } else if (kind == DecompositionKind::kTruss) {
        for (EdgeId e = 0; e < fresh_edges.NumEdges(); ++e) {
          const auto [u, v] = fresh_edges.Endpoints(e);
          const EdgeId pe = patched_edges.EdgeIdOf(u, v);
          ASSERT_NE(pe, kInvalidEdge);
          ASSERT_EQ(res->kappa[pe], truss_ref[e])
              << "round " << round << " edge {" << u << "," << v << "}";
        }
      } else {
        for (TriangleId t = 0; t < fresh_tris.NumTriangles(); ++t) {
          const auto& tri = fresh_tris.Vertices(t);
          const TriangleId pt =
              patched_tris.TriangleIdOf(tri[0], tri[1], tri[2]);
          ASSERT_NE(pt, kInvalidTriangle);
          ASSERT_EQ(res->kappa[pt], n34_ref[t])
              << "round " << round << " triangle {" << tri[0] << ","
              << tri[1] << "," << tri[2] << "}";
        }
      }

      // The repaired cached hierarchy is bitwise-equal to a full rebuild
      // over the same patched id space (HierarchyFor runs BuildHierarchy
      // from scratch and bypasses the cache). Both sweep the session's
      // patched arena, so the repair is also checked against a sweep of a
      // fresh on-the-fly space, which no arena patch can reach.
      const char* what = kind == DecompositionKind::kCore    ? "core"
                         : kind == DecompositionKind::kTruss ? "truss"
                                                             : "n34";
      const auto repaired = session.Hierarchy(kind, warm);
      ASSERT_TRUE(repaired.ok());
      auto rebuilt = session.HierarchyFor(kind, res->kappa);
      ASSERT_TRUE(rebuilt.ok());
      testlib::ExpectHierarchiesEqual(**repaired, *rebuilt, what);
      testlib::ExpectHierarchiesEqual(
          **repaired, testlib::FlyHierarchy(session, kind, res->kappa),
          std::string(what) + " vs fly");
    }
  }

  // The contract, in counters: the whole 100-commit churn ran with zero
  // engine reruns, zero index/arena/CSR rebuilds, zero full hierarchy
  // rebuilds (only localized repairs), and zero compactions.
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.edge_index_builds, warm_stats.edge_index_builds);
  EXPECT_EQ(stats.triangle_index_builds, warm_stats.triangle_index_builds);
  EXPECT_EQ(stats.edge_triangle_csr_builds,
            warm_stats.edge_triangle_csr_builds);
  EXPECT_EQ(stats.core_arena_builds, warm_stats.core_arena_builds);
  EXPECT_EQ(stats.truss_arena_builds, warm_stats.truss_arena_builds);
  EXPECT_EQ(stats.nucleus34_arena_builds,
            warm_stats.nucleus34_arena_builds);
  EXPECT_EQ(stats.hierarchy_builds, warm_stats.hierarchy_builds);
  EXPECT_EQ(stats.compactions, 0);
  EXPECT_EQ(stats.incremental_commits, kRounds);
  EXPECT_EQ(stats.truss_kappa_seeds, kRounds);
  EXPECT_EQ(stats.nucleus34_kappa_seeds, kRounds);
  EXPECT_EQ(stats.hierarchy_repairs, 3 * kRounds);
}

TEST(SessionChurn34, CertifiedSingleThread) { ChurnAndCertify(1, 101); }

TEST(SessionChurn34, CertifiedFourThreads) { ChurnAndCertify(4, 211); }

TEST(SessionChurn34, CertifiedEightThreads) { ChurnAndCertify(8, 307); }

}  // namespace
}  // namespace nucleus
