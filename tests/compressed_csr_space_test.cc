// CompressedCsrSpace equivalence suite: the delta+varint arena must be
// bitwise indistinguishable (tau/kappa, hierarchy) from the uncompressed
// arena and the on-the-fly spaces for every engine, space, strategy, and
// thread count — before and after graph mutations — plus codec round-trip
// fuzz and the session's degradation-ladder / memo / drop accounting.
#include "src/clique/compressed_csr_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "src/clique/kclique.h"
#include "src/common/rng.h"
#include "src/core/generic_rs.h"
#include "src/core/session.h"
#include "src/graph/generators.h"
// Impl headers: the suite instantiates the engines directly for the
// non-canonical CompressedCsrSpace<...> instantiations.
#include "src/local/and_impl.h"
#include "src/local/snd_impl.h"
#include "src/peel/generic_peel.h"
#include "testlib/fixtures.h"
#include "testlib/hierarchy_check.h"

namespace nucleus {
namespace {

// ---------------------------------------------------------------------------
// Varint codec round trip

std::vector<std::uint64_t> RoundTrip(const std::vector<std::uint64_t>& in) {
  std::vector<std::uint8_t> bytes;
  for (const std::uint64_t v : in) internal::AppendVarint(&bytes, v);
  std::vector<std::uint64_t> out;
  const std::uint8_t* p = bytes.data();
  const std::uint8_t* end = bytes.data() + bytes.size();
  while (p < end) {
    std::uint64_t v;
    p = internal::DecodeVarint(p, &v);
    out.push_back(v);
  }
  EXPECT_EQ(p, end);
  return out;
}

TEST(Varint, RoundTripBoundaries) {
  // Empty stream, single values, and every LEB128 length boundary.
  EXPECT_TRUE(RoundTrip({}).empty());
  std::vector<std::uint64_t> values = {0, 1, 0x7f, 0x80, 0x3fff, 0x4000,
                                       0x1fffff, 0x200000};
  for (int shift = 28; shift < 64; shift += 7) {
    values.push_back((std::uint64_t{1} << shift) - 1);
    values.push_back(std::uint64_t{1} << shift);
  }
  values.push_back(std::numeric_limits<std::uint32_t>::max());  // max id
  values.push_back(std::numeric_limits<std::uint64_t>::max());
  for (const std::uint64_t v : values) {
    EXPECT_EQ(RoundTrip({v}), std::vector<std::uint64_t>{v}) << v;
  }
  EXPECT_EQ(RoundTrip(values), values);
}

TEST(Varint, RoundTripFuzz) {
  Rng rng(2024);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint64_t> values;
    const int n = static_cast<int>(rng.UniformInt(0, 64));
    for (int i = 0; i < n; ++i) {
      // Mix dense runs of tiny deltas (the common case for sorted id
      // lists) with values spanning the full byte-length range.
      const int bits = static_cast<int>(rng.UniformInt(0, 63));
      values.push_back(rng.UniformInt(0, 1) == 0
                           ? rng.UniformInt(0, 3)
                           : rng.UniformInt(0, (std::uint64_t{1} << bits)));
    }
    EXPECT_EQ(RoundTrip(values), values) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Space equivalence

std::vector<Graph> TestGraphs() {
  std::vector<Graph> graphs;
  graphs.push_back(testlib::PaperFigure2Graph());
  graphs.push_back(testlib::PaperFigure3TwoK4Graph());
  graphs.push_back(testlib::TwoCliquesBridgedGraph(6, 5));
  for (auto& g : testlib::RandomGraphBatch(3, 91)) {
    graphs.push_back(std::move(g));
  }
  return graphs;
}

// Sorted list of sorted co-member groups — group order inside the
// compressed arena is canonicalized by the encoder, so equivalence is on
// the SET of groups, which is what every consumer observes.
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

template <typename Space>
void ExpectCompressedEquivalent(const Space& space) {
  const PeelResult peel_seq =
      PeelDecomposition(space, {.strategy = PeelStrategy::kSequential});
  for (const int threads : {1, 4, 8}) {
    const CompressedCsrSpace<Space> packed(space, threads);
    ASSERT_EQ(packed.NumRCliques(), space.NumRCliques());
    EXPECT_EQ(packed.InitialDegrees(), space.InitialDegrees());
    for (CliqueId r = 0; r < space.NumRCliques(); ++r) {
      EXPECT_EQ(CanonicalSCliques(packed, r), CanonicalSCliques(space, r))
          << "r-clique " << r;
    }
    // Sequential and parallel peeling both consume the adapter unchanged
    // and reproduce the unique kappa.
    EXPECT_EQ(PeelDecomposition(packed,
                                {.strategy = PeelStrategy::kSequential})
                  .kappa,
              peel_seq.kappa);
    EXPECT_EQ(PeelDecomposition(packed, {.strategy = PeelStrategy::kParallel,
                                         .threads = threads})
                  .kappa,
              peel_seq.kappa);

    // SND over the compressed arena: bitwise-identical trajectory (tau,
    // sweep count) to the on-the-fly space.
    LocalOptions fly;
    fly.threads = threads;
    fly.materialize = Materialize::kOff;
    const LocalResult snd_fly = SndGeneric(space, fly);
    const LocalResult snd_packed = SndGeneric(packed, fly);
    EXPECT_EQ(snd_packed.tau, snd_fly.tau);
    EXPECT_EQ(snd_packed.iterations, snd_fly.iterations);
    EXPECT_EQ(snd_fly.tau, peel_seq.kappa);

    // AND converges to the same unique kappa.
    AndOptions aopt;
    aopt.local.threads = threads;
    aopt.local.materialize = Materialize::kOff;
    EXPECT_EQ(AndGeneric(packed, aopt).tau, peel_seq.kappa);
  }
}

TEST(CompressedCsrSpace, CoreEquivalence) {
  for (const Graph& g : TestGraphs()) {
    ExpectCompressedEquivalent(CoreSpace(g));
  }
}

TEST(CompressedCsrSpace, TrussEquivalence) {
  for (const Graph& g : TestGraphs()) {
    const EdgeIndex edges(g);
    ExpectCompressedEquivalent(TrussSpace(g, edges));
  }
}

TEST(CompressedCsrSpace, Nucleus34Equivalence) {
  for (const Graph& g : TestGraphs()) {
    const TriangleIndex tris(g);
    ExpectCompressedEquivalent(Nucleus34Space(g, tris));
  }
}

TEST(CompressedCsrSpace, GenericRsEquivalence) {
  // (2,4): arity C(4,2) - 1 = 5 exercises the multi-id group codec.
  const Graph g = testlib::TwoCliquesBridgedGraph(6, 5);
  const KCliqueIndex pairs(g, 2);
  const GenericRsSpace space(g, pairs, 4);
  ExpectCompressedEquivalent(space);
}

TEST(CompressedCsrSpace, CompressesRealArenas) {
  // On a community-structured graph the sorted-id deltas are small, so the
  // byte arena must come in well under the verbatim 4-bytes-per-id form.
  Graph g = GeneratePlantedPartition(4, 24, 0.6, 0.02, 17);
  const EdgeIndex edges(g);
  const TrussSpace space(g, edges);
  const CompressedCsrSpace<TrussSpace> packed(space);
  EXPECT_GT(packed.MemoryBytes(), 0u);
  EXPECT_LT(packed.MemoryBytes(), packed.UncompressedBytes());
}

TEST(CompressedCsrSpace, TryBuildRejectsOverBudgetAndReturnsDegrees) {
  const Graph g = testlib::TwoCliquesBridgedGraph(8, 8);
  const EdgeIndex edges(g);
  const TrussSpace space(g, edges);
  std::vector<Degree> degrees;
  auto packed = CompressedCsrSpace<TrussSpace>::TryBuild(
      space, /*threads=*/2, /*budget_bytes=*/1, &degrees);
  EXPECT_FALSE(packed.has_value());
  // The failed attempt still yields d_3 for the caller's fly fallback.
  EXPECT_EQ(degrees, space.InitialDegrees());
  auto ok = CompressedCsrSpace<TrussSpace>::TryBuild(
      space, 2, std::uint64_t{1} << 30, &degrees);
  ASSERT_TRUE(ok.has_value());
  EXPECT_GT(ok->MemoryBytes(), 0u);
  EXPECT_EQ(ok->InitialDegrees(), space.InitialDegrees());
}

// ---------------------------------------------------------------------------
// Session ladder, memos, drops

// A graph whose truss arenas are big enough that compressed < uncompressed
// strictly, so a budget can be wedged between the two rungs.
Graph LadderGraph() { return GeneratePlantedPartition(3, 20, 0.7, 0.02, 43); }

struct RungSizes {
  std::uint64_t uncompressed;
  std::uint64_t compressed;
};

RungSizes ProbeTrussSizes(const Graph& g) {
  const EdgeIndex edges(g);
  const TrussSpace space(g, edges);
  const CsrSpace<TrussSpace> csr(space);
  const CompressedCsrSpace<TrussSpace> packed(space);
  return {csr.MemoryBytes(), packed.MemoryBytes()};
}

TEST(CompressedCsrSpace, SessionLadderPicksCompressedBetweenRungs) {
  Graph g = LadderGraph();
  const RungSizes sizes = ProbeTrussSizes(g);
  ASSERT_LT(sizes.compressed, sizes.uncompressed);

  NucleusSession session(std::move(g));
  DecomposeOptions opt;
  opt.method = Method::kAnd;
  opt.materialize = Materialize::kAuto;
  opt.use_result_cache = false;
  opt.materialize_budget_bytes = sizes.uncompressed - 1;
  const auto r = session.Decompose(DecompositionKind::kTruss, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(session.stats().compressed_builds, 1);
  EXPECT_EQ(session.stats().truss_arena_builds, 1);
  const SessionStateStats st = session.Stats();
  EXPECT_EQ(st.arena_bytes[1], 0u);
  EXPECT_EQ(st.arena_compressed_bytes[1], sizes.compressed);
  EXPECT_GE(st.TotalBytes(), sizes.compressed);

  // The compressed arena is reused, not rebuilt, on the next call.
  const auto r2 = session.Decompose(DecompositionKind::kTruss, opt);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(session.stats().compressed_builds, 1);
  EXPECT_EQ(r2->kappa, r->kappa);
}

TEST(CompressedCsrSpace, SessionBudgetRetryAfterDegradePicksCompressed) {
  // First request degrades all the way to the fly space (budget below the
  // compressed rung); a later request with a budget that fits only the
  // compressed arena must retry past the uncompressed memo and land on
  // the compressed rung.
  Graph g = LadderGraph();
  const RungSizes sizes = ProbeTrussSizes(g);
  NucleusSession session(std::move(g));
  DecomposeOptions opt;
  opt.method = Method::kAnd;
  opt.materialize = Materialize::kAuto;
  opt.use_result_cache = false;
  opt.materialize_budget_bytes = sizes.compressed - 1;
  ASSERT_TRUE(session.Decompose(DecompositionKind::kTruss, opt).ok());
  EXPECT_EQ(session.stats().truss_arena_builds, 0);
  EXPECT_EQ(session.stats().compressed_builds, 0);

  opt.materialize_budget_bytes = sizes.uncompressed - 1;
  ASSERT_TRUE(session.Decompose(DecompositionKind::kTruss, opt).ok());
  EXPECT_EQ(session.stats().compressed_builds, 1);
  EXPECT_EQ(session.Stats().arena_compressed_bytes[1], sizes.compressed);
}

TEST(CompressedCsrSpace, SessionCompressedModeAndCommitDrop) {
  // materialize=compressed asks for the rung directly; a mutating commit
  // drops the immutable arena (counted), and the next decompose lazily
  // rebuilds it against the patched graph with kappa matching a fresh
  // peel of that graph.
  Graph g = LadderGraph();
  NucleusSession session(std::move(g));
  DecomposeOptions opt;
  opt.method = Method::kAnd;
  opt.materialize = Materialize::kCompressed;
  opt.use_result_cache = false;
  ASSERT_TRUE(session.Decompose(DecompositionKind::kTruss, opt).ok());
  EXPECT_EQ(session.stats().compressed_builds, 1);
  EXPECT_EQ(session.stats().compressed_drops, 0);
  EXPECT_EQ(session.Stats().arena_bytes[1], 0u);
  EXPECT_GT(session.Stats().arena_compressed_bytes[1], 0u);

  auto batch = session.BeginUpdates();
  std::size_t removed = 0;
  const EdgeIndex pre(session.graph());
  for (EdgeId e = 0; e < pre.NumEdges() && removed < 8; ++e) {
    const auto [u, v] = pre.Endpoints(e);
    if (batch.RemoveEdge(u, v)) ++removed;
  }
  ASSERT_GT(removed, 0u);
  ASSERT_TRUE(batch.Commit().ok());
  EXPECT_EQ(session.stats().compressed_drops, 1);
  EXPECT_EQ(session.Stats().arena_compressed_bytes[1], 0u);

  const auto post = session.Decompose(DecompositionKind::kTruss, opt);
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(session.stats().compressed_builds, 2);
  // Bitwise check against the fly representation over the same (stable)
  // session edge ids.
  DecomposeOptions fly = opt;
  fly.materialize = Materialize::kOff;
  const auto ref = session.Decompose(DecompositionKind::kTruss, fly);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(post->kappa, ref->kappa);
}

TEST(CompressedCsrSpace, SessionRepresentationsAgreeOnPatchedGraph) {
  // After churn, every representation must still produce one kappa: fly,
  // uncompressed, compressed — across all three spaces.
  for (const auto kind :
       {DecompositionKind::kCore, DecompositionKind::kTruss,
        DecompositionKind::kNucleus34}) {
    Graph g = GeneratePlantedPartition(3, 14, 0.6, 0.03, 7);
    NucleusSession session(std::move(g));
    auto batch = session.BeginUpdates();
    const EdgeIndex pre(session.graph());
    std::size_t removed = 0;
    for (EdgeId e = 0; e < pre.NumEdges() && removed < 10; e += 3) {
      const auto [u, v] = pre.Endpoints(e);
      if (batch.RemoveEdge(u, v)) ++removed;
    }
    batch.InsertEdge(0, session.graph().NumVertices() - 1);
    ASSERT_TRUE(batch.Commit().ok());

    std::vector<std::vector<Degree>> kappas;
    for (const Materialize mode :
         {Materialize::kOff, Materialize::kOn, Materialize::kCompressed}) {
      DecomposeOptions opt;
      opt.method = Method::kAnd;
      opt.materialize = mode;
      opt.use_result_cache = false;
      auto r = session.Decompose(kind, opt);
      ASSERT_TRUE(r.ok());
      kappas.push_back(r->kappa);
    }
    EXPECT_EQ(kappas[1], kappas[0]);
    EXPECT_EQ(kappas[2], kappas[0]);
  }
}

int ArenaBuilds(const SessionStats& stats, DecompositionKind kind) {
  switch (kind) {
    case DecompositionKind::kCore:
      return stats.core_arena_builds;
    case DecompositionKind::kTruss:
      return stats.truss_arena_builds;
    case DecompositionKind::kNucleus34:
      return stats.nucleus34_arena_builds;
  }
  return -1;
}

// The rung the kind's cell holds: 0 CSR, 1 compressed, 2 none.
int HeldArena(const NucleusSession& session, DecompositionKind kind) {
  const SessionStateStats s = session.Stats();
  const int k = static_cast<int>(kind);
  if (s.arena_bytes[k] > 0) return 0;
  if (s.arena_compressed_bytes[k] > 0) return 1;
  return 2;
}

constexpr DecompositionKind kAllKinds[] = {DecompositionKind::kCore,
                                           DecompositionKind::kTruss,
                                           DecompositionKind::kNucleus34};

TEST(CompressedCsrSpace, SessionHierarchyIdenticalAcrossRepresentations) {
  // Hierarchy sweeps whichever rung the kind's cell holds, and never
  // builds one; the forest must not depend on it. Every kind x mode is
  // compared node for node with a sweep of a fresh on-the-fly space.
  const Graph g = GeneratePlantedPartition(3, 14, 0.6, 0.03, 29);
  for (const DecompositionKind kind : kAllKinds) {
    for (const Materialize mode :
         {Materialize::kOn, Materialize::kCompressed, Materialize::kOff,
          Materialize::kAuto}) {
      SCOPED_TRACE(testing::Message()
                   << "kind " << static_cast<int>(kind) << " mode "
                   << static_cast<int>(mode));
      NucleusSession session(g);
      DecomposeOptions opt;
      opt.method = Method::kAnd;
      opt.materialize = mode;
      const auto r = session.Decompose(kind, opt);
      ASSERT_TRUE(r.ok());
      const SessionStats before = session.stats();
      const auto h = session.Hierarchy(kind, opt);
      ASSERT_TRUE(h.ok());
      const SessionStats after = session.stats();
      EXPECT_EQ(ArenaBuilds(after, kind), ArenaBuilds(before, kind));
      EXPECT_EQ(after.compressed_builds, before.compressed_builds);
      EXPECT_EQ(after.hierarchy_builds, 1);
      const bool core_auto = kind == DecompositionKind::kCore &&
                             mode == Materialize::kAuto;
      const int held = mode == Materialize::kOff || core_auto ? 2
                       : mode == Materialize::kCompressed     ? 1
                                                              : 0;
      EXPECT_EQ(HeldArena(session, kind), held);
      testlib::ExpectHierarchiesEqual(
          **h, testlib::FlyHierarchy(session, kind, r->kappa), "hierarchy");
    }
  }
}

TEST(CompressedCsrSpace, SessionPeelLevelsHierarchyOverCachedArena) {
  // The peel-levels path: AND caches an arena first, then a Hierarchy call
  // peels afresh (result cache off) and feeds its level partition to the
  // sweep over that arena.
  const Graph g = GeneratePlantedPartition(3, 14, 0.6, 0.03, 31);
  for (const DecompositionKind kind : kAllKinds) {
    for (const Materialize mode :
         {Materialize::kOn, Materialize::kCompressed}) {
      SCOPED_TRACE(testing::Message()
                   << "kind " << static_cast<int>(kind) << " mode "
                   << static_cast<int>(mode));
      NucleusSession session(g);
      DecomposeOptions and_opt;
      and_opt.method = Method::kAnd;
      and_opt.materialize = mode;
      const auto r = session.Decompose(kind, and_opt);
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(HeldArena(session, kind),
                mode == Materialize::kOn ? 0 : 1);
      const SessionStats before = session.stats();
      DecomposeOptions peel_opt;
      peel_opt.method = Method::kPeeling;
      peel_opt.use_result_cache = false;
      const auto h = session.Hierarchy(kind, peel_opt);
      ASSERT_TRUE(h.ok());
      const SessionStats after = session.stats();
      EXPECT_EQ(after.decompose_cache_hits, before.decompose_cache_hits);
      EXPECT_EQ(ArenaBuilds(after, kind), ArenaBuilds(before, kind));
      EXPECT_EQ(after.compressed_builds, before.compressed_builds);
      testlib::ExpectHierarchiesEqual(
          **h, testlib::FlyHierarchy(session, kind, r->kappa),
          "peel-levels hierarchy");
    }
  }
}

}  // namespace
}  // namespace nucleus
