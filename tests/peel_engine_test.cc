// Unified peel engine: the sequential bucket-queue strategy and the
// level-synchronous parallel strategy must be indistinguishable in output
// — bitwise-identical kappa AND identical level partitions — across all
// three canonical spaces, thread counts, and materialization modes. Plus
// liveness: peeling over a patched (tombstoned) session space pins dead
// ids at 0 and keeps them out of the order/levels, and the post-commit
// Hierarchy() regression that rides on it.
#include "src/peel/peel_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/clique/csr_space.h"
#include "src/clique/representation.h"
#include "src/clique/spaces.h"
#include "src/core/session.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/peel/generic_peel.h"
#include "src/peel/hierarchy.h"
#include "src/peel/kcore.h"
#include "src/peel/ktruss.h"
#include "src/peel/nucleus34.h"
#include "tests/testlib/fixtures.h"

namespace nucleus {
namespace {

// Level partition as a canonical map k -> sorted member set, so sequential
// (extraction-ordered) and parallel (id-sorted) runs compare equal.
std::map<Degree, std::set<CliqueId>> LevelSets(const PeelResult& r) {
  std::map<Degree, std::set<CliqueId>> out;
  for (const PeelLevel& level : r.levels) {
    auto& members = out[level.k];
    for (std::size_t i = level.begin; i < level.end; ++i) {
      members.insert(r.order[i]);
    }
  }
  return out;
}

// Structural invariants every PeelResult must satisfy.
void CheckWellFormed(const PeelResult& r, std::size_t num_live) {
  EXPECT_EQ(r.order.size(), num_live);
  // Levels tile `order` exactly, with strictly increasing k.
  std::size_t cursor = 0;
  Degree last_k = 0;
  for (std::size_t i = 0; i < r.levels.size(); ++i) {
    const PeelLevel& level = r.levels[i];
    EXPECT_EQ(level.begin, cursor);
    EXPECT_LT(level.begin, level.end);
    if (i > 0) {
      EXPECT_GT(level.k, last_k);
    }
    last_k = level.k;
    cursor = level.end;
    for (std::size_t p = level.begin; p < level.end; ++p) {
      EXPECT_EQ(r.kappa[r.order[p]], level.k);
    }
  }
  EXPECT_EQ(cursor, r.order.size());
}

template <typename Space>
void ExpectStrategiesAgree(const Space& space, const std::string& context) {
  PeelOptions seq;
  seq.strategy = PeelStrategy::kSequential;
  const PeelResult a = PeelDecomposition(space, seq);

  std::size_t num_live = space.NumRCliques();
  {
    const auto live = internal::SpaceLiveFlags(space);
    if (!live.empty()) {
      num_live = 0;
      for (std::uint8_t f : live) num_live += f;
    }
  }
  CheckWellFormed(a, num_live);

  for (int threads : {1, 4, 8}) {
    PeelOptions par;
    par.strategy = PeelStrategy::kParallel;
    par.threads = threads;
    const PeelResult b = PeelDecomposition(space, par);
    EXPECT_EQ(a.kappa, b.kappa)
        << context << " threads=" << threads << ": kappa differs";
    EXPECT_EQ(LevelSets(a), LevelSets(b))
        << context << " threads=" << threads << ": level partition differs";
    CheckWellFormed(b, num_live);
  }
}

// All 3 spaces x {1,4,8} threads x materialize on/off on a mix of graphs.
TEST(PeelEngine, StrategiesAgreeAcrossSpacesThreadsMaterialization) {
  const std::vector<std::pair<std::string, Graph>> graphs = [] {
    std::vector<std::pair<std::string, Graph>> g;
    g.emplace_back("figure2", testlib::PaperFigure2Graph());
    g.emplace_back("complete7", GenerateComplete(7));
    g.emplace_back("er", GenerateErdosRenyi(60, 240, 3));
    g.emplace_back("planted", GeneratePlantedPartition(3, 18, 0.6, 0.05, 9));
    g.emplace_back("ba", GenerateBarabasiAlbert(80, 4, 11));
    return g;
  }();
  for (const auto& [name, g] : graphs) {
    // materialize off: the on-the-fly spaces.
    ExpectStrategiesAgree(CoreSpace(g), name + "/core/fly");
    const EdgeIndex edges(g);
    ExpectStrategiesAgree(TrussSpace(g, edges), name + "/truss/fly");
    const TriangleIndex tris(g);
    ExpectStrategiesAgree(Nucleus34Space(g, tris), name + "/n34/fly");
    // materialize on: the CSR arenas.
    ExpectStrategiesAgree(CsrSpace<CoreSpace>(CoreSpace(g)),
                          name + "/core/csr");
    const TrussSpace truss_base(g, edges);
    ExpectStrategiesAgree(CsrSpace<TrussSpace>(truss_base),
                          name + "/truss/csr");
    const Nucleus34Space n34_base(g, tris);
    ExpectStrategiesAgree(CsrSpace<Nucleus34Space>(n34_base),
                          name + "/n34/csr");
  }
}

// The materialize knob inside PeelOptions: self-materialized and on-the-fly
// runs agree, and kAuto at threads > 1 routes to the parallel strategy
// (same kappa either way — strategy-blindness is the whole point).
TEST(PeelEngine, SelfMaterializationMatchesFly) {
  const Graph g = GeneratePlantedPartition(3, 16, 0.6, 0.05, 21);
  const EdgeIndex edges(g);
  const TrussSpace space(g, edges);
  PeelOptions fly;  // kOff default
  PeelOptions mat;
  mat.materialize = Materialize::kOn;
  mat.threads = 4;  // kAuto strategy -> parallel
  const PeelResult a = PeelDecomposition(space, fly);
  const PeelResult b = PeelDecomposition(space, mat);
  EXPECT_EQ(a.kappa, b.kappa);
  EXPECT_EQ(LevelSets(a), LevelSets(b));
}

// One peel rule: the shared ladder keeps a peel on the fly under kAuto
// (where SND/AND would build the CSR arena) and builds only under the
// explicit modes; the kappa never moves.
TEST(PeelEngine, LadderResolvesPeelRungPerMode) {
  const Graph g = GeneratePlantedPartition(3, 16, 0.6, 0.05, 21);
  const EdgeIndex edges(g);
  const TrussSpace space(g, edges);
  const std::vector<Degree> fly_kappa = PeelDecomposition(space).kappa;
  const std::pair<Materialize, Rung> cases[] = {
      {Materialize::kAuto, Rung::kFly},
      {Materialize::kOn, Rung::kCsr},
      {Materialize::kCompressed, Rung::kCompressed},
      {Materialize::kOff, Rung::kFly},
  };
  for (const auto& [mode, want] : cases) {
    const auto resolve = [&](LadderConsumer consumer) {
      LadderState<TrussSpace> state;
      LadderBuild build;
      const StatusOr<Rung> rung = ResolveRepresentation(
          space, LadderPolicy{mode, std::uint64_t{1} << 30, consumer}, 1, {},
          &state, &build);
      EXPECT_TRUE(rung.ok());
      EXPECT_EQ(build.built, rung.ok() ? *rung : Rung::kFly);
      return rung.ok() ? *rung : Rung::kFly;
    };
    EXPECT_EQ(resolve(LadderConsumer::kPeel), want)
        << "mode " << static_cast<int>(mode);
    PeelOptions opt;
    opt.materialize = mode;
    EXPECT_EQ(PeelDecomposition(space, opt).kappa, fly_kappa);
  }
  LadderState<TrussSpace> state;
  LadderBuild build;
  EXPECT_EQ(*ResolveRepresentation(space, LadderPolicy{}, 1, {}, &state,
                                   &build),
            Rung::kCsr)
      << "SND/AND under kAuto build the arena";
}

TEST(PeelEngine, EmptyAndEdgelessSpaces) {
  const Graph empty = BuildGraphFromEdges(0, {});
  for (PeelStrategy s :
       {PeelStrategy::kSequential, PeelStrategy::kParallel}) {
    PeelOptions opt;
    opt.strategy = s;
    opt.threads = 4;
    const PeelResult r = PeelDecomposition(CoreSpace(empty), opt);
    EXPECT_TRUE(r.kappa.empty());
    EXPECT_TRUE(r.order.empty());
    EXPECT_TRUE(r.levels.empty());
  }
  const Graph isolated = BuildGraphFromEdges(3, {});
  for (PeelStrategy s :
       {PeelStrategy::kSequential, PeelStrategy::kParallel}) {
    PeelOptions opt;
    opt.strategy = s;
    opt.threads = 4;
    const PeelResult r = PeelDecomposition(CoreSpace(isolated), opt);
    EXPECT_EQ(r.kappa, (std::vector<Degree>{0, 0, 0}));
    ASSERT_EQ(r.levels.size(), 1u);
    EXPECT_EQ(r.levels[0].k, 0u);
    EXPECT_EQ(r.order.size(), 3u);
  }
}

// A parallel-strategy peel issued from inside another parallel region must
// degrade to an inline run with identical output (regression: the blocked
// scan used to fold never-dispatched workers' scratch minima as 0, wedging
// the level loop on an empty frontier). The graph is sized past the
// parallel-scan threshold so the blocked path is actually exercised.
TEST(PeelEngine, ParallelStrategyInsideParallelRegionRunsInline) {
  const Graph g = GenerateErdosRenyi(40000, 80000, 3);
  PeelOptions par;
  par.strategy = PeelStrategy::kParallel;
  par.threads = 4;
  const PeelResult want = PeelDecomposition(CoreSpace(g), par);
  PeelResult got;
  ParallelBlocks(2, 2, [&](int w, std::size_t, std::size_t) {
    if (w == 0) got = PeelDecomposition(CoreSpace(g), par);
  });
  EXPECT_EQ(want.kappa, got.kappa);
  EXPECT_EQ(LevelSets(want), LevelSets(got));
}

// Liveness: peel over a patched (tombstoned, uncompacted) index. Dead ids
// must stay at kappa 0, out of order/levels, and the live ids' kappa must
// match a from-scratch decomposition of the mutated graph.
TEST(PeelEngine, PatchedSpaceSkipsDeadIds) {
  Graph g = GeneratePlantedPartition(3, 12, 0.7, 0.08, 5);
  EdgeIndex edges(g);
  // Remove a handful of edges via ApplyDelta (as a committed batch would).
  std::vector<std::pair<VertexId, VertexId>> removed;
  for (EdgeId e = 0; removed.size() < 6 && e < edges.NumEdges(); e += 7) {
    removed.push_back(edges.Endpoints(e));
  }
  std::vector<std::pair<VertexId, VertexId>> remaining;
  for (EdgeId e = 0; e < edges.NumEdges(); ++e) {
    const auto endpoints = edges.Endpoints(e);
    if (std::find(removed.begin(), removed.end(), endpoints) ==
        removed.end()) {
      remaining.push_back(endpoints);
    }
  }
  const Graph mutated = BuildGraphFromEdges(g.NumVertices(), remaining);
  edges.ApplyDelta(removed, {});
  ASSERT_LT(edges.NumLiveEdges(), edges.NumEdges());

  const TrussSpace patched(mutated, edges);
  const EdgeIndex fresh(mutated);
  const TrussSpace rebuilt(mutated, fresh);

  for (PeelStrategy s :
       {PeelStrategy::kSequential, PeelStrategy::kParallel}) {
    PeelOptions opt;
    opt.strategy = s;
    opt.threads = 4;
    const PeelResult pr = PeelDecomposition(patched, opt);
    const PeelResult fr = PeelDecomposition(rebuilt, opt);
    EXPECT_EQ(pr.order.size(), edges.NumLiveEdges());
    for (const auto& [u, v] : removed) {
      // Dead ids: kappa pinned 0, absent from the order.
      EdgeId dead_id = kInvalidEdge;
      for (EdgeId e = 0; e < edges.NumEdges(); ++e) {
        if (!edges.IsLive(e) && edges.Endpoints(e) ==
                                    std::make_pair(std::min(u, v),
                                                   std::max(u, v))) {
          dead_id = e;
        }
      }
      ASSERT_NE(dead_id, kInvalidEdge);
      EXPECT_EQ(pr.kappa[dead_id], 0u);
      EXPECT_EQ(std::count(pr.order.begin(), pr.order.end(), dead_id), 0);
    }
    // Live kappa values agree with the fresh rebuild (ids differ; compare
    // through endpoints).
    for (EdgeId e = 0; e < fresh.NumEdges(); ++e) {
      const auto [u, v] = fresh.Endpoints(e);
      const EdgeId pe = edges.EdgeIdOf(u, v);
      ASSERT_NE(pe, kInvalidEdge);
      EXPECT_EQ(pr.kappa[pe], fr.kappa[e]) << "edge {" << u << "," << v
                                           << "} strategy "
                                           << static_cast<int>(s);
    }
  }
}

// Fieldwise bitwise equality of two hierarchies: node numbering, member
// ORDER, roots, and the clique->node map must all agree exactly. This is
// the contract every BuildHierarchy path (kappa, sequential peel levels,
// parallel peel levels) and RepairHierarchy promises.
void ExpectHierarchiesBitwiseEqual(const NucleusHierarchy& got,
                                   const NucleusHierarchy& want,
                                   const std::string& what) {
  ASSERT_EQ(got.nodes.size(), want.nodes.size()) << what;
  for (std::size_t i = 0; i < want.nodes.size(); ++i) {
    EXPECT_EQ(got.nodes[i].k, want.nodes[i].k) << what << " node " << i;
    EXPECT_EQ(got.nodes[i].parent, want.nodes[i].parent)
        << what << " node " << i;
    EXPECT_EQ(got.nodes[i].children, want.nodes[i].children)
        << what << " node " << i;
    EXPECT_EQ(got.nodes[i].new_members, want.nodes[i].new_members)
        << what << " node " << i;
    EXPECT_EQ(got.nodes[i].size, want.nodes[i].size)
        << what << " node " << i;
  }
  EXPECT_EQ(got.roots, want.roots) << what;
  EXPECT_EQ(got.node_of_clique, want.node_of_clique) << what;
}

// Hierarchy built from the engine's level partition is BITWISE equal to
// the one built from the kappa vector — the PeelResult path canonicalizes
// level segments to ascending id order first, so even member order and
// node numbering agree, whichever strategy produced the partition.
TEST(PeelEngine, HierarchyFromLevelsMatchesKappaPath) {
  const Graph g = GeneratePlantedPartition(3, 15, 0.6, 0.04, 13);
  const EdgeIndex edges(g);
  const TrussSpace space(g, edges);
  PeelOptions par;
  par.strategy = PeelStrategy::kParallel;
  par.threads = 4;
  const PeelResult peel = PeelDecomposition(space, par);
  const NucleusHierarchy from_levels = BuildHierarchy(space, peel);
  const NucleusHierarchy from_kappa = BuildHierarchy(space, peel.kappa);
  ExpectHierarchiesBitwiseEqual(from_levels, from_kappa, "truss/parallel");
}

// Satellite: the canonical-form guarantee across all three spaces and both
// peel strategies — every build path lands on the identical forest.
TEST(PeelEngine, HierarchyCanonicalAcrossSpacesAndStrategies) {
  const Graph g = GeneratePlantedPartition(3, 13, 0.6, 0.06, 31);
  const EdgeIndex edges(g);
  const TriangleIndex tris(g);

  const auto check = [&](const auto& space, const std::string& name) {
    PeelOptions seq;
    seq.strategy = PeelStrategy::kSequential;
    PeelOptions par;
    par.strategy = PeelStrategy::kParallel;
    par.threads = 4;
    const PeelResult a = PeelDecomposition(space, seq);
    const PeelResult b = PeelDecomposition(space, par);
    const NucleusHierarchy want =
        BuildHierarchy(space, a.kappa, internal::SpaceLiveFlags(space));
    ExpectHierarchiesBitwiseEqual(BuildHierarchy(space, a), want,
                                  name + "/seq-levels");
    ExpectHierarchiesBitwiseEqual(BuildHierarchy(space, b), want,
                                  name + "/par-levels");
  };
  check(CoreSpace(g), "core");
  check(TrussSpace(g, edges), "truss");
  check(Nucleus34Space(g, tris), "n34");
}

// Satellite: RepairHierarchy with unchanged kappa is an identity — the
// spliced prefix plus the resumed sweep reproduce the full rebuild
// bitwise for every touched-level cut, across all three spaces.
TEST(PeelEngine, RepairHierarchyIdentityMatchesFullRebuild) {
  const Graph g = GeneratePlantedPartition(3, 12, 0.65, 0.06, 37);
  const EdgeIndex edges(g);
  const TriangleIndex tris(g);

  const auto check = [&](const auto& space, const std::string& name) {
    const PeelResult peel = PeelDecomposition(space, PeelOptions{});
    const auto live = internal::SpaceLiveFlags(space);
    const NucleusHierarchy full = BuildHierarchy(space, peel.kappa, live);
    Degree kmax = 0;
    for (Degree k : peel.kappa) kmax = std::max(kmax, k);
    for (Degree level : {Degree{0}, kmax / 2, kmax, kmax + 3}) {
      const NucleusHierarchy repaired =
          RepairHierarchy(space, full, peel.kappa, live, level);
      ExpectHierarchiesBitwiseEqual(
          repaired, full, name + "/L=" + std::to_string(level));
    }
  };
  check(CoreSpace(g), "core");
  check(TrussSpace(g, edges), "truss");
  check(Nucleus34Space(g, tris), "n34");
}

// Satellite: a genuine-delta repair over a PATCHED space. The old
// hierarchy was built pre-delta; after tombstoning edges the repair at
// the touched level (max over changed ids of max(old, new) kappa, and the
// old kappa of every dead id) must reproduce the post-delta full rebuild
// bitwise — for both peel strategies of the oracle.
TEST(PeelEngine, RepairHierarchyAfterDeltaMatchesFullRebuild) {
  const Graph g = GeneratePlantedPartition(3, 12, 0.7, 0.08, 41);
  EdgeIndex edges(g);
  const TrussSpace space0(g, edges);
  const PeelResult peel0 = PeelDecomposition(space0, PeelOptions{});
  const NucleusHierarchy h0 = BuildHierarchy(space0, peel0.kappa);

  // Remove a handful of edges, patching the id space in place.
  std::vector<std::pair<VertexId, VertexId>> removed;
  for (EdgeId e = 0; removed.size() < 5 && e < edges.NumEdges(); e += 9) {
    removed.push_back(edges.Endpoints(e));
  }
  std::vector<std::pair<VertexId, VertexId>> remaining;
  for (EdgeId e = 0; e < edges.NumEdges(); ++e) {
    if (std::find(removed.begin(), removed.end(), edges.Endpoints(e)) ==
        removed.end()) {
      remaining.push_back(edges.Endpoints(e));
    }
  }
  const Graph mutated = BuildGraphFromEdges(g.NumVertices(), remaining);
  edges.ApplyDelta(removed, {});

  const TrussSpace space1(mutated, edges);
  const auto live = space1.LiveRFlags();
  for (PeelStrategy s :
       {PeelStrategy::kSequential, PeelStrategy::kParallel}) {
    PeelOptions opt;
    opt.strategy = s;
    opt.threads = 4;
    const PeelResult peel1 = PeelDecomposition(space1, opt);
    Degree touched = 0;
    for (EdgeId e = 0; e < edges.NumEdges(); ++e) {
      const Degree oldk = peel0.kappa[e];
      const Degree newk = peel1.kappa[e];
      if (!edges.IsLive(e)) {
        touched = std::max(touched, oldk);
      } else if (oldk != newk) {
        touched = std::max(touched, std::max(oldk, newk));
      }
    }
    const NucleusHierarchy full = BuildHierarchy(space1, peel1.kappa, live);
    const NucleusHierarchy repaired =
        RepairHierarchy(space1, h0, peel1.kappa, live, touched);
    ExpectHierarchiesBitwiseEqual(
        repaired, full, std::string("strategy=") +
                            (s == PeelStrategy::kSequential ? "seq" : "par"));
  }
}

// Regression (satellite): post-commit Hierarchy() over the patched session
// space — the peel must skip tombstoned ids for every strategy, and the
// hierarchy must name exactly the live edges of the mutated graph.
TEST(PeelEngine, PostCommitHierarchyOverPatchedSpace) {
  const Graph g = GeneratePlantedPartition(3, 14, 0.65, 0.05, 17);
  for (PeelStrategy s :
       {PeelStrategy::kSequential, PeelStrategy::kParallel}) {
    NucleusSession session(g);
    // Warm the (2,3) index so the commit patches instead of dropping.
    DecomposeOptions opt;
    opt.method = Method::kPeeling;
    opt.peel_strategy = s;
    opt.threads = s == PeelStrategy::kParallel ? 4 : 1;
    ASSERT_TRUE(session.Decompose(DecompositionKind::kTruss, opt).ok());

    auto batch = session.BeginUpdates();
    const EdgeIndex& edges = session.Edges();
    std::size_t removed = 0;
    for (EdgeId e = 0; removed < 5 && e < edges.NumEdges(); e += 11) {
      const auto [u, v] = edges.Endpoints(e);
      if (batch.RemoveEdge(u, v)) ++removed;
    }
    ASSERT_GT(removed, 0u);
    ASSERT_TRUE(batch.Commit().ok());

    // Post-commit: the edge id space is patched (tombstones present).
    ASSERT_LT(session.Edges().NumLiveEdges(), session.Edges().NumEdges());
    auto h = session.Hierarchy(DecompositionKind::kTruss, opt);
    ASSERT_TRUE(h.ok()) << h.status().ToString();

    // Every member of every node is a live edge, and the node count
    // matches a clean-room hierarchy of the mutated graph.
    std::size_t members = 0;
    for (const auto& node : (*h)->nodes) {
      for (CliqueId e : node.new_members) {
        EXPECT_TRUE(session.Edges().IsLive(static_cast<EdgeId>(e)));
        ++members;
      }
    }
    EXPECT_EQ(members, session.Edges().NumLiveEdges());

    NucleusSession clean(session.graph());
    auto hc = clean.Hierarchy(DecompositionKind::kTruss, opt);
    ASSERT_TRUE(hc.ok());
    EXPECT_EQ((*h)->nodes.size(), (*hc)->nodes.size());
    EXPECT_EQ((*h)->roots.size(), (*hc)->roots.size());
    EXPECT_EQ((*h)->Depth(), (*hc)->Depth());
  }
}

// A cold session Hierarchy() with method = peel builds from the fresh
// peel's level partition (the zero-re-bucketing path); it must be
// indistinguishable from the kappa-bucketing path an AND-warmed session
// takes. Same graph, same space, so even node numbering agrees (both
// paths feed identically-ordered levels to the same union-find sweep).
TEST(PeelEngine, SessionHierarchyLevelsPathMatchesKappaPath) {
  const Graph g = GeneratePlantedPartition(3, 15, 0.6, 0.04, 29);
  NucleusSession from_peel(g);
  DecomposeOptions peel_opt;
  peel_opt.method = Method::kPeeling;
  peel_opt.threads = 4;
  auto ha = from_peel.Hierarchy(DecompositionKind::kTruss, peel_opt);
  ASSERT_TRUE(ha.ok());

  NucleusSession from_and(g);
  auto hb = from_and.Hierarchy(DecompositionKind::kTruss,
                               {.method = Method::kAnd});
  ASSERT_TRUE(hb.ok());

  ASSERT_EQ((*ha)->nodes.size(), (*hb)->nodes.size());
  EXPECT_EQ((*ha)->roots, (*hb)->roots);
  EXPECT_EQ((*ha)->node_of_clique, (*hb)->node_of_clique);
  for (std::size_t i = 0; i < (*ha)->nodes.size(); ++i) {
    EXPECT_EQ((*ha)->nodes[i].k, (*hb)->nodes[i].k);
    EXPECT_EQ((*ha)->nodes[i].parent, (*hb)->nodes[i].parent);
    EXPECT_EQ((*ha)->nodes[i].size, (*hb)->nodes[i].size);
    EXPECT_EQ((*ha)->nodes[i].new_members, (*hb)->nodes[i].new_members);
  }
}

// The session's exact-result cache is strategy-agnostic: a parallel-peel
// request after a sequential-peel run (and vice versa) is a cache hit with
// identical kappa.
TEST(PeelEngine, SessionResultCacheDedupesAcrossStrategies) {
  const Graph g = GeneratePlantedPartition(2, 16, 0.6, 0.05, 23);
  NucleusSession session(g);
  DecomposeOptions seq;
  seq.method = Method::kPeeling;
  seq.peel_strategy = PeelStrategy::kSequential;
  const auto a = session.Decompose(DecompositionKind::kTruss, seq);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a->served_from_cache);

  DecomposeOptions par;
  par.method = Method::kPeeling;
  par.peel_strategy = PeelStrategy::kParallel;
  par.threads = 8;
  const auto b = session.Decompose(DecompositionKind::kTruss, par);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->served_from_cache);
  EXPECT_EQ(a->kappa, b->kappa);
  EXPECT_EQ(session.stats().decompose_cache_hits, 1);
}

// Free-function wrappers carry the options through.
TEST(PeelEngine, WrappersHonorStrategy) {
  const Graph g = GenerateErdosRenyi(50, 200, 7);
  const EdgeIndex edges(g);
  const TriangleIndex tris(g);
  PeelOptions par;
  par.strategy = PeelStrategy::kParallel;
  par.threads = 4;
  EXPECT_EQ(PeelCore(g).kappa, PeelCore(g, par).kappa);
  EXPECT_EQ(PeelTruss(g, edges).kappa, PeelTruss(g, edges, par).kappa);
  EXPECT_EQ(PeelNucleus34(g, tris).kappa,
            PeelNucleus34(g, tris, par).kappa);
  EXPECT_EQ(TrussNumbers(g, edges),
            TrussNumbers(g, edges, 4, PeelStrategy::kParallel));
  EXPECT_EQ(Nucleus34Numbers(g, tris),
            Nucleus34Numbers(g, tris, 4, PeelStrategy::kParallel));
  EXPECT_EQ(CoreNumbers(g), CoreNumbers(g, par));
}

}  // namespace
}  // namespace nucleus
