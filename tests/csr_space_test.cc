// CsrSpace equivalence suite: the materialized adapter must be bitwise
// indistinguishable (tau/kappa) from the on-the-fly spaces for every engine,
// space, and option combination, on the paper fixtures and random graphs.
#include "src/clique/csr_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/clique/delta.h"
#include "src/clique/intersect.h"
#include "src/clique/kclique.h"
#include "src/clique/representation.h"
#include "src/common/cancel.h"
#include "src/core/generic_rs.h"
#include "src/core/session.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
// Impl headers: this suite instantiates the engines for the non-canonical
// CsrSpace<GenericRsSpace> (the documented extension-point pattern).
#include "src/local/and_impl.h"
#include "src/local/degree_levels_impl.h"
#include "src/local/snd_impl.h"
#include "src/peel/generic_peel.h"
#include "testlib/fixtures.h"

namespace nucleus {
namespace {

std::vector<Graph> TestGraphs() {
  std::vector<Graph> graphs;
  graphs.push_back(testlib::PaperFigure2Graph());
  graphs.push_back(testlib::PaperFigure3TwoK4Graph());
  graphs.push_back(testlib::TwoCliquesBridgedGraph(6, 5));
  for (auto& g : testlib::RandomGraphBatch(4, 77)) {
    graphs.push_back(std::move(g));
  }
  return graphs;
}

// Sorted list of sorted co-member groups — the s-clique set of one r-clique
// in canonical form.
template <typename Space>
std::vector<std::vector<CliqueId>> CanonicalSCliques(const Space& space,
                                                     CliqueId r) {
  std::vector<std::vector<CliqueId>> out;
  space.ForEachSClique(r, [&](std::span<const CliqueId> co) {
    std::vector<CliqueId> group(co.begin(), co.end());
    std::sort(group.begin(), group.end());
    out.push_back(std::move(group));
  });
  std::sort(out.begin(), out.end());
  return out;
}

// The full cross-check for one space: identical degrees, identical s-clique
// sets, and identical results from every engine, across notification on/off
// and 1/4 threads.
template <typename Space>
void ExpectCsrEquivalent(const Space& space) {
  for (const int threads : {1, 4}) {
    const CsrSpace<Space> csr(space, threads);
    ASSERT_EQ(csr.NumRCliques(), space.NumRCliques());
    EXPECT_EQ(csr.InitialDegrees(), space.InitialDegrees());
    for (CliqueId r = 0; r < space.NumRCliques(); ++r) {
      EXPECT_EQ(CanonicalSCliques(csr, r), CanonicalSCliques(space, r))
          << "r-clique " << r;
    }

    // Peeling and degree levels consume the adapter unchanged.
    const PeelResult peel = PeelDecomposition(space);
    EXPECT_EQ(PeelDecomposition(csr).kappa, peel.kappa);
    EXPECT_EQ(ComputeDegreeLevels(csr).level,
              ComputeDegreeLevels(space).level);

    // SND: materialized on vs off must be bitwise identical (tau, sweep
    // count, convergence flag).
    LocalOptions off;
    off.threads = threads;
    off.materialize = Materialize::kOff;
    LocalOptions on = off;
    on.materialize = Materialize::kOn;
    const LocalResult snd_off = SndGeneric(space, off);
    const LocalResult snd_on = SndGeneric(space, on);
    EXPECT_EQ(snd_on.tau, snd_off.tau);
    EXPECT_EQ(snd_on.iterations, snd_off.iterations);
    EXPECT_TRUE(snd_on.converged);
    EXPECT_EQ(snd_off.tau, peel.kappa);

    // AND: notification on/off, engine-materialized and pre-materialized.
    for (const bool notify : {true, false}) {
      AndOptions aoff;
      aoff.local.threads = threads;
      aoff.local.materialize = Materialize::kOff;
      aoff.use_notification = notify;
      AndOptions aon = aoff;
      aon.local.materialize = Materialize::kOn;
      EXPECT_EQ(AndGeneric(space, aoff).tau, peel.kappa);
      EXPECT_EQ(AndGeneric(space, aon).tau, peel.kappa);
      EXPECT_EQ(AndGeneric(csr, aoff).tau, peel.kappa);
    }
  }
}

TEST(CsrSpace, CoreEquivalence) {
  for (const Graph& g : TestGraphs()) {
    ExpectCsrEquivalent(CoreSpace(g));
  }
}

TEST(CsrSpace, TrussEquivalence) {
  for (const Graph& g : TestGraphs()) {
    const EdgeIndex edges(g);
    ExpectCsrEquivalent(TrussSpace(g, edges));
  }
}

TEST(CsrSpace, Nucleus34Equivalence) {
  for (const Graph& g : TestGraphs()) {
    const TriangleIndex tris(g);
    ExpectCsrEquivalent(Nucleus34Space(g, tris));
  }
}

TEST(CsrSpace, GenericRsEquivalence) {
  // (2,4) exercises the generic builder with arity C(4,2)-1 = 5.
  const Graph g = testlib::TwoCliquesBridgedGraph(6, 5);
  const KCliqueIndex pairs(g, 2);
  const GenericRsSpace space(g, pairs, 4);
  EXPECT_EQ(CoMemberArity(space), 5);
  ExpectCsrEquivalent(space);
}

TEST(CsrSpace, ArityMatchesSpace) {
  const Graph g = testlib::PaperFigure3TwoK4Graph();
  const EdgeIndex edges(g);
  const TriangleIndex tris(g);
  EXPECT_EQ(CsrSpace<CoreSpace>(CoreSpace(g)).arity(), 1);
  EXPECT_EQ(CsrSpace<TrussSpace>(TrussSpace(g, edges)).arity(), 2);
  EXPECT_EQ(CsrSpace<Nucleus34Space>(Nucleus34Space(g, tris)).arity(), 3);
}

TEST(CsrSpace, TryBuildRejectsOverBudgetAndReturnsDegrees) {
  const Graph g = testlib::TwoCliquesBridgedGraph(8, 8);
  const EdgeIndex edges(g);
  const TrussSpace space(g, edges);
  std::vector<Degree> degrees;
  auto csr = CsrSpace<TrussSpace>::TryBuild(space, /*threads=*/2,
                                            /*budget_bytes=*/1, &degrees);
  EXPECT_FALSE(csr.has_value());
  // The failed attempt still yields d_3, so the caller never re-counts.
  EXPECT_EQ(degrees, space.InitialDegrees());
  // A generous budget succeeds.
  auto ok = CsrSpace<TrussSpace>::TryBuild(
      space, 2, std::uint64_t{1} << 30, &degrees);
  ASSERT_TRUE(ok.has_value());
  EXPECT_GT(ok->MemoryBytes(), 0u);
}

// The (3,4) builder over a triangle index patched the way a committed
// update patches it: tombstoned ids of removed triangles and born ids
// appended past the pristine range. Its groups must equal the on-the-fly
// space's over the same patched index and the new graph.
TEST(CsrSpace, Nucleus34ArenaOverPatchedIndexMatchesFly) {
  const Graph old_g = GenerateRmat(8, 8, 5);
  EdgeDelta delta;
  std::vector<std::pair<VertexId, VertexId>> kept;
  std::size_t i = 0;
  for (VertexId u = 0; u < old_g.NumVertices(); ++u) {
    for (VertexId v : old_g.Neighbors(u)) {
      if (u > v) continue;
      (i++ % 7 == 0 ? delta.removed : kept).push_back({u, v});
    }
  }
  // Close new triangles: non-adjacent pairs with common neighbors.
  for (VertexId u = 0; u < old_g.NumVertices() && delta.inserted.size() < 40;
       u += 3) {
    for (VertexId v = u + 1; v < old_g.NumVertices(); v += 5) {
      if (!old_g.HasEdge(u, v) &&
          CountCommon(old_g.Neighbors(u), old_g.Neighbors(v)) >= 2) {
        delta.inserted.push_back({u, v});
        break;
      }
    }
  }
  kept.insert(kept.end(), delta.inserted.begin(), delta.inserted.end());
  const Graph new_g = BuildGraphFromEdges(old_g.NumVertices(), kept);
  const TriangleDelta td = ComputeTriangleDelta(old_g, new_g, delta);
  TriangleIndex tris(old_g);
  const std::size_t pristine = tris.NumTriangles();
  tris.ApplyDelta(td.dead, td.born);
  ASSERT_GT(tris.NumTriangles(), pristine);  // born ids past the range
  ASSERT_LT(tris.NumLiveTriangles(), tris.NumTriangles());  // tombstones

  const Nucleus34Space fly(new_g, tris);
  std::size_t groups = 0;
  for (const int threads : {1, 4}) {
    const CsrSpace<Nucleus34Space> csr(fly, threads);
    ASSERT_EQ(csr.NumRCliques(), tris.NumTriangles());
    EXPECT_EQ(csr.InitialDegrees(), fly.InitialDegrees());
    for (CliqueId r = 0; r < fly.NumRCliques(); ++r) {
      const auto want = CanonicalSCliques(fly, r);
      EXPECT_EQ(CanonicalSCliques(csr, r), want) << "triangle " << r;
      groups += want.size();
    }
  }
  EXPECT_GT(groups, 0u);
}

// The (3,4) arena is written per triangle into its own range, so it is
// byte-identical whatever the thread count.
TEST(CsrSpace, Nucleus34ArenaIdenticalAcrossThreads) {
  const Graph g = GenerateRmat(9, 8, 3);
  const TriangleIndex tris(g, 4);
  const Nucleus34Space space(g, tris);
  const auto build = [&](int threads) {
    internal::CsrArena arena;
    EXPECT_TRUE(BuildCsrArena(space, threads,
                              std::numeric_limits<std::uint64_t>::max(), 3,
                              &arena));
    return arena;
  };
  const internal::CsrArena serial = build(1);
  EXPECT_EQ(serial.degrees, space.InitialDegrees());
  ASSERT_GT(serial.co_members.size(), 0u);
  const internal::CsrArena parallel = build(4);
  EXPECT_EQ(parallel.degrees, serial.degrees);
  EXPECT_EQ(parallel.offsets, serial.offsets);
  EXPECT_EQ(parallel.co_members, serial.co_members);
  // Groups come in the on-the-fly space's order, so the generic builder
  // (one ForEachSClique per triangle) writes the very same bytes.
  internal::CsrArena generic;
  ASSERT_TRUE(internal::GenericBuildCsrArena(
      space, 4, std::numeric_limits<std::uint64_t>::max(), 3, &generic));
  EXPECT_EQ(generic.offsets, serial.offsets);
  EXPECT_EQ(generic.co_members, serial.co_members);
}

// A budget rejection of the (3,4) build still hands back d_4, and the
// budget is exact: the arena's own size fits, one byte less does not.
TEST(CsrSpace, Nucleus34TryBuildRejectsOverBudgetAndReturnsDegrees) {
  const Graph g = GenerateRmat(8, 8, 7);
  const TriangleIndex tris(g);
  const Nucleus34Space space(g, tris);
  const std::vector<Degree> d4 = space.InitialDegrees();
  std::uint64_t total = 0;
  for (Degree d : d4) total += d;
  ASSERT_GT(total, 0u);
  const std::uint64_t exact =
      internal::CsrArenaBytes(tris.NumTriangles(), total, 3);
  for (const std::uint64_t budget : {std::uint64_t{1}, exact - 1}) {
    std::vector<Degree> degrees;
    EXPECT_FALSE(CsrSpace<Nucleus34Space>::TryBuild(space, 4, budget,
                                                    &degrees)
                     .has_value());
    EXPECT_EQ(degrees, d4) << "budget " << budget;
  }
  std::vector<Degree> unused;
  const auto fits =
      CsrSpace<Nucleus34Space>::TryBuild(space, 4, exact, &unused);
  ASSERT_TRUE(fits.has_value());
  EXPECT_EQ(fits->InitialDegrees(), d4);
}

// The budgets of the rung-selection table, priced per space from its own
// arena sizes.
enum class Budget { kUnlimited, kUnderCsr, kUnderCompressed, kOne };

struct LadderRow {
  Materialize mode;
  Budget budget;
  Rung local;  // rung for SND/AND (CoreSpace under kAuto: kFly instead)
  Rung peel;
};

constexpr LadderRow kLadderRows[] = {
    {Materialize::kAuto, Budget::kUnlimited, Rung::kCsr, Rung::kFly},
    {Materialize::kAuto, Budget::kUnderCsr, Rung::kCompressed, Rung::kFly},
    {Materialize::kAuto, Budget::kUnderCompressed, Rung::kFly, Rung::kFly},
    {Materialize::kAuto, Budget::kOne, Rung::kFly, Rung::kFly},
    {Materialize::kOn, Budget::kUnlimited, Rung::kCsr, Rung::kCsr},
    {Materialize::kOn, Budget::kUnderCsr, Rung::kCsr, Rung::kCsr},
    {Materialize::kOn, Budget::kUnderCompressed, Rung::kCsr, Rung::kCsr},
    {Materialize::kOn, Budget::kOne, Rung::kCsr, Rung::kCsr},
    {Materialize::kCompressed, Budget::kUnlimited, Rung::kCompressed,
     Rung::kCompressed},
    {Materialize::kCompressed, Budget::kUnderCsr, Rung::kCompressed,
     Rung::kCompressed},
    {Materialize::kCompressed, Budget::kUnderCompressed, Rung::kFly,
     Rung::kFly},
    {Materialize::kCompressed, Budget::kOne, Rung::kFly, Rung::kFly},
    {Materialize::kOff, Budget::kUnlimited, Rung::kFly, Rung::kFly},
    {Materialize::kOff, Budget::kUnderCsr, Rung::kFly, Rung::kFly},
    {Materialize::kOff, Budget::kUnderCompressed, Rung::kFly, Rung::kFly},
    {Materialize::kOff, Budget::kOne, Rung::kFly, Rung::kFly},
};

template <typename Space>
Rung ResolvedRung(const Space& space, const LadderPolicy& policy) {
  LadderState<Space> state;
  LadderBuild build;
  const StatusOr<Rung> rung =
      ResolveRepresentation(space, policy, /*threads=*/2, {}, &state, &build);
  EXPECT_TRUE(rung.ok()) << rung.status().ToString();
  return rung.ok() ? *rung : Rung::kFly;
}

// One space through the whole table: the rung the ladder picks for each
// engine, and tau/kappa (plus the SND sweep count and the peel order)
// bitwise equal to the kOff run. Asynchronous AND at two threads has no
// fixed sweep count, so only its tau is compared.
template <typename Space>
void ExpectLadderTable(const Space& space, const std::string& name) {
  const std::uint64_t csr_bytes = CsrSpace<Space>(space).MemoryBytes();
  const std::uint64_t compressed_bytes =
      CompressedCsrSpace<Space>(space).MemoryBytes();
  // The table assumes compression pays on the fixture.
  ASSERT_LT(compressed_bytes, csr_bytes) << name;
  const auto bytes = [&](Budget b) -> std::uint64_t {
    switch (b) {
      case Budget::kUnlimited:
        return std::numeric_limits<std::uint64_t>::max();
      case Budget::kUnderCsr:
        return csr_bytes - 1;
      case Budget::kUnderCompressed:
        return compressed_bytes - 1;
      case Budget::kOne:
        break;
    }
    return 1;
  };

  LocalOptions off;
  off.threads = 2;
  off.materialize = Materialize::kOff;
  AndOptions and_off;
  and_off.local = off;
  PeelOptions peel_off;
  peel_off.threads = 2;
  const LocalResult snd_ref = SndGeneric(space, off);
  const LocalResult and_ref = AndGeneric(space, and_off);
  const PeelResult peel_ref = PeelDecomposition(space, peel_off);

  const bool core = std::is_same_v<Space, CoreSpace>;
  for (const LadderRow& row : kLadderRows) {
    const std::string where = name + " mode " +
                              std::to_string(static_cast<int>(row.mode)) +
                              " budget " +
                              std::to_string(static_cast<int>(row.budget));
    const LadderPolicy local_policy{row.mode, bytes(row.budget),
                                    LadderConsumer::kLocal};
    const LadderPolicy peel_policy{row.mode, bytes(row.budget),
                                   LadderConsumer::kPeel};
    const Rung want_local =
        core && row.mode == Materialize::kAuto ? Rung::kFly : row.local;
    EXPECT_EQ(ResolvedRung(space, local_policy), want_local) << where;
    EXPECT_EQ(ResolvedRung(space, peel_policy), row.peel) << where;

    LocalOptions local = off;
    local.materialize = row.mode;
    local.materialize_budget_bytes = bytes(row.budget);
    const LocalResult snd = SndGeneric(space, local);
    EXPECT_EQ(snd.tau, snd_ref.tau) << where;
    EXPECT_EQ(snd.iterations, snd_ref.iterations) << where;
    AndOptions and_opt;
    and_opt.local = local;
    const LocalResult and_run = AndGeneric(space, and_opt);
    EXPECT_EQ(and_run.tau, and_ref.tau) << where;
    PeelOptions peel = peel_off;
    peel.materialize = row.mode;
    peel.materialize_budget_bytes = bytes(row.budget);
    const PeelResult peel_run = PeelDecomposition(space, peel);
    EXPECT_EQ(peel_run.kappa, peel_ref.kappa) << where;
    EXPECT_EQ(peel_run.order, peel_ref.order) << where;
  }
  EXPECT_EQ(snd_ref.tau, peel_ref.kappa) << name;
  EXPECT_EQ(and_ref.tau, peel_ref.kappa) << name;
}

TEST(CsrSpace, AutoBudgetFallbackMatchesResults) {
  // Mode x budget x space: the ladder's rung choice per engine, and results
  // that never depend on it. Dense blocks make every arena compress.
  const Graph g = GeneratePlantedPartition(3, 16, 0.6, 0.05, 21);
  const EdgeIndex edges(g);
  const TriangleIndex tris(g);
  ExpectLadderTable(CoreSpace(g), "core");
  ExpectLadderTable(TrussSpace(g, edges), "truss");
  ExpectLadderTable(Nucleus34Space(g, tris), "nucleus34");

  // An impossible budget forces the on-the-fly path inside the engine on a
  // sparse random graph too; the results must not change.
  const Graph sparse = testlib::RandomGraph(60, 240, 5);
  const EdgeIndex sparse_edges(sparse);
  const TrussSpace space(sparse, sparse_edges);
  LocalOptions tiny;
  tiny.materialize = Materialize::kAuto;
  tiny.materialize_budget_bytes = 1;
  LocalOptions off;
  off.materialize = Materialize::kOff;
  EXPECT_EQ(SndGeneric(space, tiny).tau, SndGeneric(space, off).tau);
}

// A pre-cancelled token and a 1 ms deadline stop every engine under every
// materializing mode, with the stop status and no partial payload.
TEST(CsrSpace, StoppedEnginesReturnStatusOnly) {
  const Graph g = GeneratePlantedPartition(40, 50, 0.5, 0.002, 5);
  const EdgeIndex edges(g);
  const TriangleIndex tris(g);
  const TrussSpace truss(g, edges);
  const Nucleus34Space n34(g, tris);
  CancelToken cancelled;
  cancelled.RequestCancel();
  for (const Materialize mode :
       {Materialize::kOn, Materialize::kCompressed, Materialize::kAuto}) {
    for (const bool use_deadline : {false, true}) {
      const StatusCode want = use_deadline ? StatusCode::kDeadlineExceeded
                                           : StatusCode::kCancelled;
      const std::string where =
          "mode " + std::to_string(static_cast<int>(mode)) +
          (use_deadline ? " deadline" : " cancelled");
      LocalOptions local;
      local.materialize = mode;
      local.deadline_ms = use_deadline ? 1 : 0;
      local.cancel_token = use_deadline ? nullptr : &cancelled;
      AndOptions and_opt;
      and_opt.local = local;
      PeelOptions peel;
      peel.materialize = mode;
      peel.deadline_ms = local.deadline_ms;
      peel.cancel_token = local.cancel_token;
      const auto expect_stopped = [&](const auto& space,
                                      const std::string& kind) {
        const LocalResult snd = SndGeneric(space, local);
        EXPECT_EQ(snd.status.code(), want) << kind << " snd " << where;
        EXPECT_TRUE(snd.tau.empty()) << kind << " snd " << where;
        const LocalResult and_run = AndGeneric(space, and_opt);
        EXPECT_EQ(and_run.status.code(), want) << kind << " and " << where;
        EXPECT_TRUE(and_run.tau.empty()) << kind << " and " << where;
        const PeelResult peel_run = PeelDecomposition(space, peel);
        EXPECT_EQ(peel_run.status.code(), want) << kind << " peel " << where;
        EXPECT_TRUE(peel_run.kappa.empty()) << kind << " peel " << where;
      };
      expect_stopped(truss, "truss");
      expect_stopped(n34, "nucleus34");
    }
  }
}

TEST(CsrSpace, FacadeMaterializeKnob) {
  // The materialize knob through the session: every kind x method agrees
  // on vs off (the result cache is bypassed so each call runs an engine).
  const Graph g = testlib::RandomGraph(50, 200, 9);
  NucleusSession session{Graph(g)};
  for (const auto kind :
       {DecompositionKind::kCore, DecompositionKind::kTruss,
        DecompositionKind::kNucleus34}) {
    for (const auto method : {Method::kPeeling, Method::kSnd, Method::kAnd}) {
      DecomposeOptions on;
      on.method = method;
      on.materialize = Materialize::kOn;
      on.use_result_cache = false;
      DecomposeOptions mat_off = on;
      mat_off.materialize = Materialize::kOff;
      const auto got_on = session.Decompose(kind, on);
      const auto got_off = session.Decompose(kind, mat_off);
      ASSERT_TRUE(got_on.ok() && got_off.ok());
      EXPECT_EQ(got_on->kappa, got_off->kappa);
    }
  }
}

TEST(CsrSpace, ApplyPatchMatchesRebuiltArena) {
  // Build the truss arena for a K5, then "remove" edge (0,1) by patching:
  // the three triangles {0,1,w} die for w in {2,3,4}. The patched arena
  // must enumerate exactly the co-member sets a scratch arena over the
  // shrunken graph does (compared through the shared surviving ids).
  GraphBuilder b;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) b.AddEdge(u, v);
  }
  const Graph g = b.Build();
  EdgeIndex edges(g);
  const TrussSpace space(g, edges);
  CsrSpace<TrussSpace> arena(space);

  const EdgeId e01 = edges.EdgeIdOf(0, 1);
  std::vector<std::vector<CliqueId>> dead_s;
  for (VertexId w = 2; w < 5; ++w) {
    dead_s.push_back({e01, edges.EdgeIdOf(0, w), edges.EdgeIdOf(1, w)});
  }
  const std::vector<CliqueId> dead_r = {e01};
  arena.ApplyPatch(dead_s, {}, dead_r, edges.NumEdges());

  const auto degrees = arena.InitialDegrees();
  EXPECT_EQ(degrees[e01], 0u);
  // Every other edge of the two dead-triangle fans lost one triangle
  // (3 -> 2); edges among {2,3,4} keep all three.
  for (VertexId w = 2; w < 5; ++w) {
    EXPECT_EQ(degrees[edges.EdgeIdOf(0, w)], 2u);
    EXPECT_EQ(degrees[edges.EdgeIdOf(1, w)], 2u);
  }
  EXPECT_EQ(degrees[edges.EdgeIdOf(2, 3)], 3u);
  // Dead r-clique enumerates nothing; live ones never report e01.
  arena.ForEachSClique(e01, [&](std::span<const CliqueId>) { FAIL(); });
  std::size_t groups = 0;
  for (VertexId w = 2; w < 5; ++w) {
    arena.ForEachSClique(edges.EdgeIdOf(0, w),
                         [&](std::span<const CliqueId> co) {
                           ++groups;
                           for (CliqueId c : co) EXPECT_NE(c, e01);
                         });
  }
  EXPECT_EQ(groups, 6u);
  // Patch the fan back in (edge restored): sentinel slots are reused, and
  // the arena matches the pristine build again.
  arena.ApplyPatch({}, dead_s, {}, edges.NumEdges());
  const CsrSpace<TrussSpace> pristine(space);
  EXPECT_EQ(arena.InitialDegrees(), pristine.InitialDegrees());
  for (EdgeId e = 0; e < edges.NumEdges(); ++e) {
    std::vector<std::vector<CliqueId>> got, want;
    const auto collect = [](std::vector<std::vector<CliqueId>>* out) {
      return [out](std::span<const CliqueId> co) {
        std::vector<CliqueId> group(co.begin(), co.end());
        std::sort(group.begin(), group.end());
        out->push_back(std::move(group));
      };
    };
    arena.ForEachSClique(e, collect(&got));
    pristine.ForEachSClique(e, collect(&want));
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "edge " << e;
  }
}

}  // namespace
}  // namespace nucleus
