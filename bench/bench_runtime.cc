// Experiment E6 — Table 5-style: sequential runtime of the exact methods:
// peeling (Algorithm 1) vs SND vs AND run to convergence, on the paper's
// pure on-the-fly spaces (Section 5), plus the CSR-materialization ablation
// introduced by csr_space.h.
//
// `--json [path]` switches to the machine-readable perf-trajectory mode: on
// a >= 100k-edge generated graph it times AND over the (2,3) and (3,4)
// spaces, on-the-fly vs CSR-materialized end-to-end (arena build included),
// and writes BENCH_runtime.json — the baseline that future perf PRs are
// measured against. NUCLEUS_BENCH_FAST=1 shrinks the graph for CI smoke
// runs.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/clique/compressed_csr_space.h"
#include "src/clique/csr_space.h"
#include "src/clique/intersect.h"
#include "src/common/cancel.h"
#include "src/common/rng.h"
#include "src/clique/spaces.h"
#include "src/common/timer.h"
#include "src/core/session.h"
#include "src/graph/generators.h"
#include "src/local/and.h"
#include "src/local/snd.h"
#include "src/peel/generic_peel.h"
#include "src/peel/hierarchy.h"
#include "src/server/http.h"
#include "src/server/json.h"
#include "src/server/load_harness.h"
#include "src/server/reactor.h"
#include "src/server/server_core.h"

namespace nucleus::bench {
namespace {

template <typename Space>
void Row(const std::string& graph, const std::string& kind,
         const Space& space) {
  // The classic table intentionally measures the paper's on-the-fly
  // algorithms; materialization is ablated separately below.
  LocalOptions snd_opt;
  snd_opt.materialize = Materialize::kOff;
  AndOptions and_opt;
  and_opt.local.materialize = Materialize::kOff;
  AndOptions and_csr;
  and_csr.local.materialize = Materialize::kOn;

  Timer t;
  const PeelResult peel = PeelDecomposition(space);
  const double peel_s = t.Seconds();
  t.Restart();
  const LocalResult snd = SndGeneric(space, snd_opt);
  const double snd_s = t.Seconds();
  t.Restart();
  const LocalResult andr = AndGeneric(space, and_opt);
  const double and_s = t.Seconds();
  t.Restart();
  const LocalResult andm = AndGeneric(space, and_csr);
  const double andm_s = t.Seconds();
  const bool agree = snd.tau == peel.kappa && andr.tau == peel.kappa &&
                     andm.tau == peel.kappa;
  std::printf("%-18s %-7s %9s %9s (%2d it) %9s (%2d it) %9s %8s %6s\n",
              graph.c_str(), kind.c_str(), Fmt(peel_s).c_str(),
              Fmt(snd_s).c_str(), snd.iterations, Fmt(and_s).c_str(),
              andr.iterations, Fmt(andm_s).c_str(),
              Fmt(and_s / std::max(andm_s, 1e-9), 2).c_str(),
              agree ? "ok" : "MISMATCH");
}

void RunTables() {
  Header("E6 / Table 5-style — sequential runtime: peeling vs SND vs AND",
         "seconds; AND-csr materializes the clique space (build included); "
         "exact results cross-checked (last column)");
  std::printf("%-18s %-7s %9s %17s %17s %9s %8s %6s\n", "graph", "kind",
              "peel", "SND", "AND", "AND-csr", "fly/csr", "check");
  for (const auto& d : MediumSuite()) {
    Row(d.name, "core", CoreSpace(d.graph));
  }
  for (const auto& d : MediumSuite()) {
    const EdgeIndex edges(d.graph);
    Row(d.name, "truss", TrussSpace(d.graph, edges));
  }
  for (const auto& d : SmallSuite()) {
    const TriangleIndex tris(d.graph);
    Row(d.name, "(3,4)", Nucleus34Space(d.graph, tris));
  }
  std::printf("\npaper shape check: sequential local algorithms are within "
              "a small factor of peeling; materializing the clique space "
              "(fly/csr) then removes the per-sweep re-enumeration cost.\n");
}

// Times AND end-to-end (inside the engine: CSR build when materialized,
// initial degrees, sweeps to convergence) and appends the on-the-fly /
// materialized record pair.
template <typename Space>
void JsonPair(const std::string& graph_name, const Graph& g,
              const std::string& kind, const Space& space, int threads,
              std::vector<BenchRecord>* records) {
  AndOptions fly;
  fly.local.threads = threads;
  fly.local.materialize = Materialize::kOff;
  AndOptions csr = fly;
  csr.local.materialize = Materialize::kOn;

  Timer t;
  const LocalResult r_fly = AndGeneric(space, fly);
  const double fly_ms = t.Seconds() * 1e3;
  t.Restart();
  const LocalResult r_csr = AndGeneric(space, csr);
  const double csr_ms = t.Seconds() * 1e3;
  const bool ok = r_fly.tau == r_csr.tau;

  BenchRecord base{graph_name, g.NumVertices(), g.NumEdges(), kind, "and",
                   threads,    false,           fly_ms,       r_fly.iterations,
                   0.0,        ok};
  records->push_back(base);
  BenchRecord mat = base;
  mat.materialized = true;
  mat.wall_ms = csr_ms;
  mat.iterations = r_csr.iterations;
  mat.speedup_vs_onthefly = fly_ms / std::max(csr_ms, 1e-6);
  records->push_back(mat);
  std::printf("%-10s %-9s threads=%d  on-the-fly %10.1f ms  csr %10.1f ms  "
              "speedup %.2fx  %s\n",
              graph_name.c_str(), kind.c_str(), threads, fly_ms, csr_ms,
              mat.speedup_vs_onthefly, ok ? "ok" : "MISMATCH");
}

int RunJson(const std::string& path) {
  const bool fast = FastMode();
  // Planted-partition graph: >= 100k edges with dense communities in the
  // full run, so both the (2,3) and (3,4) spaces have real triangle / K4
  // structure to materialize (the acceptance graph of the
  // BENCH_runtime.json trajectory). NUCLEUS_BENCH_FAST shrinks it for CI
  // smoke.
  const Graph g = fast ? GeneratePlantedPartition(8, 40, 0.5, 0.01, 42)
                       : GeneratePlantedPartition(40, 100, 0.5, 0.002, 42);
  std::printf("perf graph: planted n=%zu |E|=%zu (fast=%d)\n",
              g.NumVertices(), g.NumEdges(), fast ? 1 : 0);
  const int threads = 8;
  std::vector<BenchRecord> records;

  {
    const EdgeIndex edges(g);
    const TrussSpace space(g, edges);
    JsonPair("planted-perf", g, "truss", space, threads, &records);
  }
  {
    const TriangleIndex tris(g, threads);
    const Nucleus34Space space(g, tris);
    JsonPair("planted-perf", g, "nucleus34", space, threads, &records);
  }

  // arena_bytes + and_csr_compressed record pair: the memory-lean arena
  // trajectory. arena_bytes records the (3,4) co-member arena residency —
  // wall_ms is the delta+varint encode wall, the speedup field is the
  // uncompressed/compressed byte ratio (CI's bench-smoke asserts >= 1.5x).
  // and_csr_compressed times AND end-to-end over the engine-materialized
  // COMPRESSED arena; its speedup field is vs the on-the-fly run (CI
  // asserts the compressed rung keeps a healthy multiple of the fly
  // time). kappa is cross-checked bitwise across all three
  // representations.
  {
    const TriangleIndex tris(g, threads);
    const Nucleus34Space space(g, tris);

    AndOptions fly;
    fly.local.threads = threads;
    fly.local.materialize = Materialize::kOff;
    Timer t;
    const LocalResult r_fly = AndGeneric(space, fly);
    const double fly_ms = t.Seconds() * 1e3;

    AndOptions packed_opt = fly;
    packed_opt.local.materialize = Materialize::kCompressed;
    t.Restart();
    const LocalResult r_packed = AndGeneric(space, packed_opt);
    const double packed_ms = t.Seconds() * 1e3;

    t.Restart();
    const CompressedCsrSpace<Nucleus34Space> packed(space, threads);
    const double encode_ms = t.Seconds() * 1e3;
    const double ratio = static_cast<double>(packed.UncompressedBytes()) /
                         std::max<double>(packed.MemoryBytes(), 1.0);
    const bool ok = r_packed.tau == r_fly.tau;

    BenchRecord rec_bytes{"planted-perf", g.NumVertices(), g.NumEdges(),
                          "nucleus34",    "arena_bytes",   threads,
                          true,           encode_ms,       0,
                          ratio,          ok};
    records.push_back(rec_bytes);
    BenchRecord rec_packed = rec_bytes;
    rec_packed.method = "and_csr_compressed";
    rec_packed.wall_ms = packed_ms;
    rec_packed.iterations = r_packed.iterations;
    rec_packed.speedup_vs_onthefly = fly_ms / std::max(packed_ms, 1e-6);
    records.push_back(rec_packed);
    std::printf("%-10s %-9s threads=%d  compressed arena %.2fx smaller "
                "(%llu -> %llu bytes, encode %.1f ms)  AND fly %10.1f ms  "
                "compressed %10.1f ms  speedup %.2fx  %s\n",
                "planted-perf", "nucleus34", threads, ratio,
                static_cast<unsigned long long>(packed.UncompressedBytes()),
                static_cast<unsigned long long>(packed.MemoryBytes()),
                encode_ms, fly_ms, packed_ms,
                rec_packed.speedup_vs_onthefly, ok ? "ok" : "MISMATCH");
  }

  // intersect_simd record: the comparable-size merge-intersection kernel
  // (SIMD block merge on x86-64, scalar elsewhere / under
  // -DNUCLEUS_NO_SIMD) vs the scalar linear merge, on adjacency-shaped
  // sorted lists. The speedup field is linear_ms / dispatched_ms; CI's
  // bench-smoke asserts >= 0.7 (no regression even on scalar-only builds,
  // where the ratio sits at ~1). The check flag asserts identical output
  // sums.
  {
    Rng rng(7);
    std::vector<std::vector<VertexId>> lists;
    for (int i = 0; i < 256; ++i) {
      const std::size_t len = 24 + static_cast<std::size_t>(
                                       rng.UniformInt(0, 104));
      std::vector<VertexId> l;
      VertexId v = static_cast<VertexId>(rng.UniformInt(0, 64));
      for (std::size_t k = 0; k < len; ++k) {
        l.push_back(v);
        v += static_cast<VertexId>(1 + rng.UniformInt(0, 6));
      }
      lists.push_back(std::move(l));
    }
    const int reps = fast ? 40 : 400;
    std::uint64_t sum_linear = 0, sum_simd = 0;
    Timer t;
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i + 1 < lists.size(); i += 2) {
        internal::ForEachCommonLinear(
            std::span<const VertexId>(lists[i]),
            std::span<const VertexId>(lists[i + 1]),
            [&](VertexId x) { sum_linear += x; });
      }
    }
    const double linear_ms = t.Seconds() * 1e3;
    t.Restart();
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i + 1 < lists.size(); i += 2) {
        ForEachCommon(lists[i], lists[i + 1],
                      [&](VertexId x) { sum_simd += x; });
      }
    }
    const double simd_ms = t.Seconds() * 1e3;
    BenchRecord rec{"planted-perf",  g.NumVertices(),  g.NumEdges(),
                    "nucleus34",     "intersect_simd", 1,
                    false,           simd_ms,          reps,
                    linear_ms / std::max(simd_ms, 1e-6),
                    sum_linear == sum_simd};
    records.push_back(rec);
    std::printf("%-10s %-9s intersect: linear %8.2f ms  dispatched %8.2f "
                "ms  speedup %.2fx  %s\n",
                "planted-perf", "intersect", linear_ms, simd_ms,
                rec.speedup_vs_onthefly,
                sum_linear == sum_simd ? "ok" : "MISMATCH");
  }

  // peel_sequential vs peel_parallel record pair: the exact-kappa peel
  // path as it stood before the unified engine (sequential bucket-queue
  // peel over the on-the-fly (3,4) space — what every exact reference,
  // Hierarchy() call, and peel-vs-local comparison paid) vs the rebuilt
  // path (level-synchronous parallel peel at 8 threads over the
  // self-materialized CSR arena, arena build included — the engine's
  // kAuto+kOn defaults for a server-grade run). kappa is cross-checked
  // bitwise between the two. CI's bench-smoke asserts >= 1.5x.
  {
    const TriangleIndex tris(g, threads);
    const Nucleus34Space space(g, tris);
    PeelOptions seq;  // strategy kAuto + threads 1 = sequential, on the fly
    Timer t;
    const PeelResult r_seq = PeelDecomposition(space, seq);
    const double seq_ms = t.Seconds() * 1e3;
    PeelOptions par;
    par.strategy = PeelStrategy::kParallel;
    par.threads = threads;
    par.materialize = Materialize::kOn;
    t.Restart();
    const PeelResult r_par = PeelDecomposition(space, par);
    const double par_ms = t.Seconds() * 1e3;
    const bool ok = r_seq.kappa == r_par.kappa &&
                    r_seq.order.size() == r_par.order.size();
    BenchRecord rec_seq{"planted-perf",    g.NumVertices(), g.NumEdges(),
                        "nucleus34",       "peel_sequential", 1,
                        false,             seq_ms,          0,
                        0.0,               ok};
    records.push_back(rec_seq);
    BenchRecord rec_par = rec_seq;
    rec_par.method = "peel_parallel";
    rec_par.threads = threads;
    rec_par.materialized = true;
    rec_par.wall_ms = par_ms;
    rec_par.speedup_vs_onthefly = seq_ms / std::max(par_ms, 1e-6);
    records.push_back(rec_par);
    std::printf("%-10s %-9s peel sequential(fly) %10.1f ms  "
                "parallel(csr, %d threads) %10.1f ms  speedup %.2fx  %s\n",
                "planted-perf", "nucleus34", seq_ms, threads, par_ms,
                rec_par.speedup_vs_onthefly, ok ? "ok" : "MISMATCH");
  }

  // session_reuse record pair: cold first Decompose through a
  // NucleusSession (EdgeIndex + CSR arena + AND sweeps) vs warm repeat of
  // the same request (kappa-cache hit; no index, no arena, no engine) on
  // the truss workload. The warm record's speedup field is the cold/warm
  // ratio; CI's bench-smoke job asserts it stays >= 2x.
  {
    NucleusSession session(g);
    DecomposeOptions opt;
    opt.method = Method::kAnd;
    opt.threads = threads;
    opt.materialize = Materialize::kOn;
    Timer t;
    const auto cold = session.Decompose(DecompositionKind::kTruss, opt);
    const double cold_ms = t.Seconds() * 1e3;
    t.Restart();
    const auto warm = session.Decompose(DecompositionKind::kTruss, opt);
    const double warm_ms = t.Seconds() * 1e3;
    const bool ok = cold.ok() && warm.ok() && cold->kappa == warm->kappa &&
                    warm->served_from_cache && warm->index_seconds == 0 &&
                    warm->arena_seconds == 0;
    BenchRecord rec_cold{"planted-perf", g.NumVertices(), g.NumEdges(),
                         "truss",        "session-cold",  threads,
                         true,           cold_ms,         cold->iterations,
                         0.0,            ok};
    records.push_back(rec_cold);
    BenchRecord rec_warm = rec_cold;
    rec_warm.method = "session-warm";
    rec_warm.wall_ms = warm_ms;
    rec_warm.iterations = 0;
    rec_warm.speedup_vs_onthefly = cold_ms / std::max(warm_ms, 1e-6);
    records.push_back(rec_warm);
    std::printf("%-10s %-9s threads=%d  session cold %8.1f ms  warm "
                "%8.4f ms  reuse speedup %.0fx  %s\n",
                "planted-perf", "truss", threads, cold_ms, warm_ms,
                rec_warm.speedup_vs_onthefly, ok ? "ok" : "MISMATCH");
  }

  // commit_incremental vs commit_rebuild record pair: a small batch
  // (<= 1% of edges, half inserts half removals) committed into a warm
  // session. The incremental arm pays the delta-propagating commit plus
  // the next (2,3) Decompose — a kappa-cache hit, since the commit patched
  // the EdgeIndex/arena in place and re-seeded the cache from the
  // DynamicTrussMaintainer. The rebuild arm simulates the pre-incremental
  // behavior on an identically-mutated session: wholesale invalidation
  // plus the cold (2,3) rebuild. The incremental record's speedup field is
  // rebuild/incremental; CI's bench-smoke asserts it stays >= 2x.
  {
    DecomposeOptions opt;
    opt.method = Method::kAnd;
    opt.threads = threads;
    opt.materialize = Materialize::kOn;

    // The mutation list, derived deterministically from the graph.
    const EdgeIndex probe(g);
    const std::size_t batch_size =
        std::max<std::size_t>(2, g.NumEdges() / 200);  // ~0.5% each way
    std::vector<std::pair<VertexId, VertexId>> removals, insertions;
    const std::size_t stride =
        std::max<std::size_t>(1, probe.NumEdges() / batch_size);
    for (EdgeId e = 0; removals.size() < batch_size &&
                       e < probe.NumEdges();
         e += static_cast<EdgeId>(stride)) {
      removals.push_back(probe.Endpoints(e));
    }
    const VertexId half = static_cast<VertexId>(g.NumVertices() / 2);
    for (VertexId u = 0; insertions.size() < batch_size &&
                         u + half + 1 < g.NumVertices();
         ++u) {
      const VertexId v = u + half + 1;
      if (!g.HasEdge(u, v)) insertions.emplace_back(u, v);
    }
    const auto apply = [&](NucleusSession& s) {
      auto batch = s.BeginUpdates();
      for (const auto& [u, v] : removals) batch.RemoveEdge(u, v);
      for (const auto& [u, v] : insertions) batch.InsertEdge(u, v);
      return batch;
    };

    // Incremental arm.
    NucleusSession inc(g);
    (void)inc.Decompose(DecompositionKind::kTruss, opt);  // warm
    auto inc_batch = apply(inc);
    Timer t;
    const Status commit_status = inc_batch.Commit();
    const auto inc_truss = inc.Decompose(DecompositionKind::kTruss, opt);
    const double incremental_ms = t.Seconds() * 1e3;

    // Rebuild arm: same mutations, then wholesale invalidation.
    NucleusSession reb(g);
    (void)reb.Decompose(DecompositionKind::kTruss, opt);
    auto reb_batch = apply(reb);
    (void)reb_batch.Commit();  // untimed: the arm measures the rebuild
    t.Restart();
    reb.InvalidateDerivedState();
    DecomposeOptions cold = opt;
    cold.use_result_cache = false;
    const auto reb_truss = reb.Decompose(DecompositionKind::kTruss, cold);
    const double rebuild_ms = t.Seconds() * 1e3;

    // Cross-check: both sessions name the same truss numbers per edge
    // (ids differ — incremental ids are patched-stable, rebuilt ids are
    // re-densified — so compare through the endpoint pairs), and the
    // incremental commit did zero index/arena rebuilds.
    bool ok = commit_status.ok() && inc_truss.ok() && reb_truss.ok() &&
              inc_truss->served_from_cache &&
              inc.stats().edge_index_builds == 1 &&
              inc.stats().truss_arena_builds == 1 &&
              inc.stats().truss_kappa_seeds == 1;
    if (ok) {
      const EdgeIndex& inc_edges = inc.Edges();
      const EdgeIndex& reb_edges = reb.Edges();
      for (EdgeId e = 0; ok && e < reb_edges.NumEdges(); ++e) {
        const auto [u, v] = reb_edges.Endpoints(e);
        const EdgeId pe = inc_edges.EdgeIdOf(u, v);
        ok = pe != kInvalidEdge &&
             inc_truss->kappa[pe] == reb_truss->kappa[e];
      }
    }

    BenchRecord rec_inc{"planted-perf",      g.NumVertices(),
                        g.NumEdges(),        "truss",
                        "commit_incremental", threads,
                        true,                incremental_ms,
                        0,                   0.0,
                        ok};
    rec_inc.speedup_vs_onthefly = rebuild_ms / std::max(incremental_ms, 1e-6);
    records.push_back(rec_inc);
    BenchRecord rec_reb = rec_inc;
    rec_reb.method = "commit_rebuild";
    rec_reb.wall_ms = rebuild_ms;
    rec_reb.iterations = reb_truss.ok() ? reb_truss->iterations : 0;
    rec_reb.speedup_vs_onthefly = 0.0;
    records.push_back(rec_reb);
    std::printf("%-10s %-9s threads=%d  commit+decompose incremental "
                "%8.2f ms  rebuild %8.1f ms  speedup %.0fx  (batch %zu+%zu "
                "edges)  %s\n",
                "planted-perf", "truss", threads, incremental_ms, rebuild_ms,
                rec_inc.speedup_vs_onthefly, insertions.size(),
                removals.size(), ok ? "ok" : "MISMATCH");
  }

  // churn_incremental vs churn_rebuild record pair: SUSTAINED small-batch
  // churn on the (3,4) space — 10 commits of 4 edge toggles each, every
  // commit followed by a kappa read and a hierarchy read. The incremental
  // arm runs over one warm session: each commit delta-patches the indices
  // and arena, re-seeds kappa from the DynamicNucleus34Maintainer, and
  // repairs the cached hierarchy in place — the ok flag asserts ZERO full
  // (3,4) rebuilds across the whole run (one triangle-index build, one
  // arena build, one hierarchy build, all from the warm-up; every commit
  // counted as a kappa re-seed + hierarchy repair). The rebuild arm pays
  // wholesale invalidation plus the cold (3,4) decompose + hierarchy after
  // every commit. The incremental record's speedup field is
  // rebuild/incremental; CI's bench-smoke asserts it stays >= 2x.
  {
    DecomposeOptions opt;
    opt.method = Method::kAnd;
    opt.threads = threads;
    opt.materialize = Materialize::kOn;
    const int churn_commits = 10;
    const int ops_per_commit = 2;

    // A fixed toggle pool (strided over the edge set): removed edges get
    // re-inserted on a later commit, so tombstones never accumulate past
    // the compaction threshold and both mutation kinds are exercised.
    const EdgeIndex probe2(g);
    std::vector<std::pair<VertexId, VertexId>> pool;
    const std::size_t pool_stride =
        std::max<std::size_t>(1, probe2.NumEdges() / 24);
    for (EdgeId e = 0; pool.size() < 24 && e < probe2.NumEdges();
         e += static_cast<EdgeId>(pool_stride)) {
      pool.push_back(probe2.Endpoints(e));
    }
    const auto toggle = [&](NucleusSession& s, int commit) {
      auto batch = s.BeginUpdates();
      for (int i = 0; i < ops_per_commit; ++i) {
        const auto& [u, v] =
            pool[(commit * ops_per_commit + i) % pool.size()];
        if (!batch.InsertEdge(u, v)) batch.RemoveEdge(u, v);
      }
      return batch.Commit();
    };

    // Incremental arm: one warm session across all commits.
    NucleusSession inc(g);
    (void)inc.Decompose(DecompositionKind::kNucleus34, opt);  // warm kappa
    (void)inc.Hierarchy(DecompositionKind::kNucleus34, opt);  // + hierarchy
    bool ok = true;
    Timer t;
    for (int c = 0; c < churn_commits; ++c) {
      ok = ok && toggle(inc, c).ok();
      const auto r = inc.Decompose(DecompositionKind::kNucleus34, opt);
      ok = ok && r.ok() && r->served_from_cache;
      ok = ok && inc.Hierarchy(DecompositionKind::kNucleus34, opt).ok();
    }
    const double churn_inc_ms = t.Seconds() * 1e3;
    const SessionStats inc_stats = inc.stats();
    // Zero full (3,4) rebuilds: everything beyond the warm-up was a patch,
    // a re-seed, or a localized repair.
    ok = ok && inc_stats.triangle_index_builds == 1 &&
         inc_stats.nucleus34_arena_builds == 1 &&
         inc_stats.hierarchy_builds == 1 && inc_stats.compactions == 0 &&
         inc_stats.nucleus34_kappa_seeds == churn_commits &&
         inc_stats.hierarchy_repairs == churn_commits;

    // Rebuild arm: identical mutations, wholesale invalidation per commit.
    NucleusSession reb(g);
    (void)reb.Decompose(DecompositionKind::kNucleus34, opt);
    DecomposeOptions cold2 = opt;
    cold2.use_result_cache = false;
    t.Restart();
    for (int c = 0; c < churn_commits; ++c) {
      ok = ok && toggle(reb, c).ok();
      reb.InvalidateDerivedState();
      ok = ok && reb.Decompose(DecompositionKind::kNucleus34, cold2).ok();
      ok = ok && reb.Hierarchy(DecompositionKind::kNucleus34, opt).ok();
    }
    const double churn_reb_ms = t.Seconds() * 1e3;

    // Cross-check the final kappa value-for-value through the triples
    // (incremental ids are patched-stable, rebuilt ids re-densified).
    if (ok) {
      const auto inc_r = inc.Decompose(DecompositionKind::kNucleus34, opt);
      const auto reb_r = reb.Decompose(DecompositionKind::kNucleus34, opt);
      ok = inc_r.ok() && reb_r.ok();
      if (ok) {
        const TriangleIndex& it = inc.Triangles();
        const TriangleIndex& rt = reb.Triangles();
        for (TriangleId tid = 0; ok && tid < rt.NumTriangles(); ++tid) {
          const auto& tri = rt.Vertices(tid);
          const TriangleId pt = it.TriangleIdOf(tri[0], tri[1], tri[2]);
          ok = pt != kInvalidTriangle &&
               inc_r->kappa[pt] == reb_r->kappa[tid];
        }
      }
    }

    BenchRecord rec_cinc{"planted-perf",     g.NumVertices(),
                         g.NumEdges(),       "nucleus34",
                         "churn_incremental", threads,
                         true,               churn_inc_ms,
                         0,                  0.0,
                         ok};
    rec_cinc.speedup_vs_onthefly =
        churn_reb_ms / std::max(churn_inc_ms, 1e-6);
    records.push_back(rec_cinc);
    BenchRecord rec_creb = rec_cinc;
    rec_creb.method = "churn_rebuild";
    rec_creb.wall_ms = churn_reb_ms;
    rec_creb.speedup_vs_onthefly = 0.0;
    records.push_back(rec_creb);
    std::printf("%-10s %-9s threads=%d  churn x%d commits incremental "
                "%8.2f ms  rebuild %8.1f ms  speedup %.0fx  %s\n",
                "planted-perf", "nucleus34", threads, churn_commits,
                churn_inc_ms, churn_reb_ms, rec_cinc.speedup_vs_onthefly,
                ok ? "ok" : "MISMATCH");
  }

  // hierarchy_arena record: the (3,4) hierarchy sweep over the arena the
  // session's AND decomposition cached vs BuildHierarchy over the on-the-
  // fly space, which re-derives every triangle's 4-cliques by three-way
  // adjacency intersection. Both sweep the same cached kappa. wall_ms is
  // the best of three uncached HierarchyFor sweeps (the cached Hierarchy
  // call takes the same path once); the speedup field is fly/arena. The
  // check asserts the cached forest, the HierarchyFor forest and the fly
  // forest are bitwise-equal and that the hierarchy calls built no arena.
  // CI's bench-smoke asserts check == ok and >= 2x.
  {
    NucleusSession session(g);
    DecomposeOptions opt;
    opt.method = Method::kAnd;
    opt.threads = threads;
    const auto kind = DecompositionKind::kNucleus34;
    const auto r = session.Decompose(kind, opt);
    bool ok = r.ok();
    const SessionStats before = session.stats();
    const auto cached = session.Hierarchy(kind, opt);
    ok = ok && cached.ok();
    const auto best_of_3 = [](auto&& run) {
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        Timer t;
        run();
        const double ms = t.Seconds() * 1e3;
        best = rep == 0 ? ms : std::min(best, ms);
      }
      return best;
    };
    StatusOr<NucleusHierarchy> over_arena = Status::Internal("not run");
    const double arena_ms = best_of_3(
        [&] { over_arena = session.HierarchyFor(kind, r->kappa); });
    const Nucleus34Space fly(session.graph(), session.Triangles());
    NucleusHierarchy over_fly;
    const double fly_ms = best_of_3(
        [&] { over_fly = BuildHierarchy(fly, r->kappa, fly.LiveRFlags()); });
    const SessionStats after = session.stats();
    ok = ok && over_arena.ok() && *over_arena == over_fly &&
         **cached == over_fly && session.Stats().arena_bytes[2] > 0 &&
         after.nucleus34_arena_builds == before.nucleus34_arena_builds &&
         after.compressed_builds == before.compressed_builds;
    BenchRecord rec{"planted-perf",    g.NumVertices(), g.NumEdges(),
                    "nucleus34",       "hierarchy_arena", threads,
                    true,              arena_ms,        0,
                    fly_ms / std::max(arena_ms, 1e-6), ok};
    records.push_back(rec);
    std::printf("%-10s %-9s threads=%d  hierarchy over arena %8.2f ms  "
                "fly %8.2f ms  speedup %.1fx  %s\n",
                "planted-perf", "nucleus34", threads, arena_ms, fly_ms,
                rec.speedup_vs_onthefly, ok ? "ok" : "MISMATCH");
  }

  // arena34_build record: the specialized (3,4) CSR arena build (one
  // edge-list merge per triangle, written into the triangle's own range)
  // vs internal::GenericBuildCsrArena over the same space, which counts
  // and fills through the on-the-fly space's per-triangle three-way
  // adjacency intersections and id lookups. wall_ms is the specialized
  // build, best of 3; the speedup field is generic/specialized (best of 3
  // each). The check asserts both arenas hold the same degrees, offsets
  // and, per triangle, the same sorted set of sorted groups. CI's
  // bench-smoke asserts check == ok.
  {
    const TriangleIndex tris(g, threads);
    const Nucleus34Space space(g, tris);
    const auto unlimited = std::numeric_limits<std::uint64_t>::max();
    const auto best_of_3 = [&](auto&& build, internal::CsrArena* arena) {
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        *arena = {};
        Timer t;
        build(arena);
        const double ms = t.Seconds() * 1e3;
        best = rep == 0 ? ms : std::min(best, ms);
      }
      return best;
    };
    internal::CsrArena fast_arena, generic_arena;
    const double fast_ms = best_of_3(
        [&](internal::CsrArena* a) {
          BuildCsrArena(space, threads, unlimited, 3, a);
        },
        &fast_arena);
    const double generic_ms = best_of_3(
        [&](internal::CsrArena* a) {
          internal::GenericBuildCsrArena(space, threads, unlimited, 3, a);
        },
        &generic_arena);
    // Per triangle: sorted list of sorted groups.
    const auto canonical = [](const internal::CsrArena& a, std::size_t t) {
      std::vector<std::array<CliqueId, 3>> groups;
      for (std::uint64_t p = a.offsets[t]; p < a.offsets[t + 1]; p += 3) {
        std::array<CliqueId, 3> grp = {a.co_members[p], a.co_members[p + 1],
                                       a.co_members[p + 2]};
        std::sort(grp.begin(), grp.end());
        groups.push_back(grp);
      }
      std::sort(groups.begin(), groups.end());
      return groups;
    };
    bool ok = fast_arena.degrees == generic_arena.degrees &&
              fast_arena.offsets == generic_arena.offsets &&
              fast_arena.co_members.size() == generic_arena.co_members.size();
    for (std::size_t t = 0; ok && t < tris.NumTriangles(); ++t) {
      ok = canonical(fast_arena, t) == canonical(generic_arena, t);
    }
    BenchRecord rec{"planted-perf", g.NumVertices(), g.NumEdges(),
                    "nucleus34",    "arena34_build", threads,
                    true,           fast_ms,         0,
                    generic_ms / std::max(fast_ms, 1e-6), ok};
    records.push_back(rec);
    std::printf("%-10s %-9s threads=%d  (3,4) arena build specialized "
                "%8.2f ms  generic %8.2f ms  speedup %.1fx  %s\n",
                "planted-perf", "nucleus34", threads, fast_ms, generic_ms,
                rec.speedup_vs_onthefly, ok ? "ok" : "MISMATCH");
  }

  // cancel_latency record: how quickly a COLD (3,4) build at 8 threads
  // unwinds once the caller fires its CancelToken — the responsiveness
  // bound of the resilient execution layer (amortized polling in triangle
  // enumeration, arena build, and the engine sweeps). One uncancelled cold
  // Decompose is timed first; then a worker thread issues the cold
  // Decompose on a fresh session, the main thread lets it sink a quarter
  // of that time into real work, fires the token, and measures fire ->
  // Status-return. A build that finishes before the token fires measures
  // nothing, so it is retried on a fresh session with half the delay, at
  // most three attempts. wall_ms is the latency; CI's bench-smoke asserts
  // < 100 ms. The check flag asserts a run actually reported kCancelled
  // and the session stayed retryable (the unbounded retry succeeds).
  {
    const auto kind = DecompositionKind::kNucleus34;
    DecomposeOptions opt;
    opt.method = Method::kAnd;
    opt.threads = threads;
    opt.materialize = Materialize::kOn;
    double cold_ms = 0.0;
    bool probe_ok = false;
    {
      NucleusSession probe(g);
      Timer t;
      probe_ok = probe.Decompose(kind, opt).ok();
      cold_ms = t.Seconds() * 1e3;
    }
    CancelToken token;
    opt.cancel_token = &token;
    bool ok = false;
    double latency_ms = 0.0;
    double delay_ms = cold_ms / 4;
    for (int attempt = 0; attempt < 3; ++attempt, delay_ms /= 2) {
      token.Reset();
      NucleusSession session(g);
      std::atomic<bool> started{false};
      Status run_status = Status::Ok();
      std::thread worker([&] {
        started.store(true);
        run_status = session.Decompose(kind, opt).status();
      });
      while (!started.load()) std::this_thread::yield();
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
      Timer t;
      token.RequestCancel();
      worker.join();
      latency_ms = t.Seconds() * 1e3;
      if (run_status.ok()) continue;  // finished before the token fired
      ok = probe_ok && run_status.code() == StatusCode::kCancelled;
      if (ok) {
        token.Reset();
        ok = session.Decompose(kind, opt).ok();
      }
      break;
    }
    BenchRecord rec{"planted-perf",   g.NumVertices(), g.NumEdges(),
                    "nucleus34",      "cancel_latency", threads,
                    true,             latency_ms,      0,
                    0.0,              ok};
    records.push_back(rec);
    std::printf("%-10s %-9s threads=%d  cancel -> return latency %8.3f ms  "
                "(cold build %.1f ms)  %s\n",
                "planted-perf", "nucleus34", threads, latency_ms, cold_ms,
                ok ? "ok" : "MISMATCH");
  }

  // server_qps record: warm (2,3) local queries driven through the full
  // in-process serving stack (admission queue at 8 workers, JSON request
  // parse, registry lookup, JSON response assembly) vs the same calls made
  // directly on the session. wall_ms is the per-request mean through the
  // server; the speedup field is direct_ms / server_ms, i.e. the fraction
  // of direct throughput the service layer preserves. CI's bench-smoke
  // asserts >= 0.5 (the HTTP-independent serving overhead costs < 2x on
  // per-request work of realistic size). The check flag cross-checks the
  // served estimates against the direct ones bitwise.
  {
    ServerConfig server_config;
    server_config.workers = threads;
    server_config.queue_capacity = 256;
    ServerCore server(server_config);
    Graph serving_copy = g;
    auto entry = server.registry().Add("bench", std::move(serving_copy));
    bool ok = entry.ok();

    // Warm the (2,3) state on both arms, then time queries only.
    NucleusSession direct(g);
    DecomposeOptions warm_opt;
    warm_opt.method = Method::kAnd;
    warm_opt.threads = threads;
    warm_opt.materialize = Materialize::kOn;
    ok = ok && direct.Decompose(DecompositionKind::kTruss, warm_opt).ok();
    const ServerRequest warm_req{
        "decompose", R"({"graph":"bench","kind":"truss","method":"and"})"};
    ok = ok && server.Handle(warm_req).status.ok();

    // Radius-1 queries: hundreds of ms of real region work per request on
    // the full graph (radius 2 balloons to ~10 s/request there), so the
    // measured ratio reflects serving overhead on realistic work, and the
    // arm stays minutes-not-hours.
    const int requests = fast ? 100 : 40;
    QueryOptions query_opt;
    query_opt.radius = 1;
    const std::size_t num_edges = g.NumEdges();
    auto seed_ids = [&](int i) {
      std::vector<CliqueId> ids(8);
      for (int j = 0; j < 8; ++j) {
        ids[j] = static_cast<CliqueId>((i * 17 + j * 131) % num_edges);
      }
      return ids;
    };

    Timer t;
    for (int i = 0; ok && i < requests; ++i) {
      const auto ids = seed_ids(i);
      ok = direct
               .EstimateQueries(DecompositionKind::kTruss,
                                {ids.data(), ids.size()}, query_opt)
               .ok();
    }
    const double direct_ms = t.Seconds() * 1e3 / requests;

    std::string last_body;
    t.Restart();
    for (int i = 0; ok && i < requests; ++i) {
      const auto ids = seed_ids(i);
      std::string body =
          R"({"graph":"bench","kind":"truss","radius":1,"ids":[)";
      for (int j = 0; j < 8; ++j) {
        if (j) body += ',';
        body += std::to_string(ids[j]);
      }
      body += "]}";
      const ServerResponse resp = server.Handle({"query", body});
      ok = ok && resp.status.ok();
      last_body = resp.body;
    }
    const double server_ms = t.Seconds() * 1e3 / requests;

    // Bitwise cross-check of the last request's served estimates.
    if (ok) {
      const auto ids = seed_ids(requests - 1);
      const auto expected = direct.EstimateQueries(
          DecompositionKind::kTruss, {ids.data(), ids.size()}, query_opt);
      const auto parsed = JsonValue::Parse(last_body);
      ok = expected.ok() && parsed.ok();
      if (ok) {
        const auto& served = parsed->Find("estimates")->AsArray();
        ok = served.size() == expected->estimates.size();
        for (std::size_t j = 0; ok && j < served.size(); ++j) {
          ok = static_cast<Degree>(served[j].AsInt()) ==
               expected->estimates[j];
        }
      }
    }

    BenchRecord rec{"planted-perf", g.NumVertices(), g.NumEdges(),
                    "truss",        "server_qps",    threads,
                    true,           server_ms,       0,
                    0.0,            ok};
    rec.speedup_vs_onthefly = direct_ms / std::max(server_ms, 1e-6);
    records.push_back(rec);
    std::printf("%-10s %-9s workers=%d  warm query direct %8.4f ms/req  "
                "served %8.4f ms/req  (%.0f qps)  throughput ratio %.2fx  "
                "%s\n",
                "planted-perf", "truss", threads, direct_ms, server_ms,
                1e3 / std::max(server_ms, 1e-6), rec.speedup_vs_onthefly,
                ok ? "ok" : "MISMATCH");
    server.Shutdown();
  }

  // server_qps_blocking / server_qps_reactor record pair: served QPS over
  // real sockets at 64 connections of warm reads (GET /api/stats on a
  // loaded graph), one shared 8-worker ServerCore with both transports
  // attached. Each transport is driven at its supported client strategy:
  // the blocking thread-per-connection shell at pipeline depth 1 (its
  // maximum — ServeOne sizes its buffer to one request's Content-Length,
  // so surplus pipelined bytes would be dropped), the reactor at depth 16
  // (incremental parsing keeps every buffered request; depth amortizes
  // the client's syscalls the way real keep-alive fan-in does). wall_ms is
  // the served-rate inverse (ms/request); the reactor record's speedup
  // field is reactor_qps / blocking_qps. CI's bench-smoke asserts >= 2x.
  // The check flag asserts zero non-2xx responses on both arms and that
  // the sampled response bodies are byte-identical across transports.
  {
    ServerConfig server_config;
    server_config.workers = threads;
    server_config.queue_capacity = 256;
    ServerCore server(server_config);
    Graph serving_copy = g;
    bool ok = server.registry().Add("bench", std::move(serving_copy)).ok();

    HttpServer blocking(&server, /*port=*/0);
    ok = ok && blocking.Start().ok();
    ReactorConfig reactor_config;
    ReactorServer reactor(&server, reactor_config);
    const bool have_reactor = ReactorServer::Supported();
    if (have_reactor) ok = ok && reactor.Start().ok();

    LoadHarnessOptions load;
    load.target = "/api/stats?graph=bench";
    load.connections = 64;
    load.requests_per_connection = fast ? 100 : 300;
    load.port = blocking.port();
    load.pipeline_depth = 1;
    auto blocking_run = RunLoadHarness(load);
    load.port = have_reactor ? reactor.port() : blocking.port();
    load.pipeline_depth = have_reactor ? 16 : 1;
    auto reactor_run = RunLoadHarness(load);
    ok = ok && blocking_run.ok() && reactor_run.ok() &&
         blocking_run->errors == 0 && reactor_run->errors == 0 &&
         blocking_run->sample_body == reactor_run->sample_body &&
         !blocking_run->sample_body.empty();

    const double blocking_qps = blocking_run.ok() ? blocking_run->qps : 0;
    const double reactor_qps = reactor_run.ok() ? reactor_run->qps : 0;
    BenchRecord rec_blocking{"planted-perf",        g.NumVertices(),
                             g.NumEdges(),          "serving",
                             "server_qps_blocking", threads,
                             false,                 1e3 / std::max(blocking_qps, 1e-6),
                             0,                     0.0,
                             ok};
    records.push_back(rec_blocking);
    BenchRecord rec_reactor = rec_blocking;
    rec_reactor.method = "server_qps_reactor";
    rec_reactor.wall_ms = 1e3 / std::max(reactor_qps, 1e-6);
    rec_reactor.speedup_vs_onthefly =
        reactor_qps / std::max(blocking_qps, 1e-6);
    records.push_back(rec_reactor);
    std::printf("%-10s %-9s conns=64  blocking %8.0f qps (p99 %6.2f ms)  "
                "reactor %8.0f qps (p99 %6.2f ms)  speedup %.2fx  %s\n",
                "planted-perf", "serving", blocking_qps,
                blocking_run.ok() ? blocking_run->p99_ms : 0, reactor_qps,
                reactor_run.ok() ? reactor_run->p99_ms : 0,
                rec_reactor.speedup_vs_onthefly, ok ? "ok" : "MISMATCH");
    if (have_reactor) reactor.Stop();
    blocking.Stop();
    server.Shutdown();
  }

  // server_concurrency record: warm-read tail latency while the workers
  // grind concurrent cold builds — the isolation claim of the admission
  // classes. One reactor-fronted core (8 workers, build class capped at
  // half, batch execution niced): p99 of 8 connections of warm
  // GET /api/stats reads is measured idle, then again while two flooder
  // threads keep forced-fresh (no_cache) (3,4) decomposes perpetually in
  // flight. wall_ms is the loaded p99; the speedup field is the ratio
  // loaded_p99 / idle_p99 (NOT a speedup — small is good). CI's
  // bench-smoke asserts <= 5x. The check flag asserts zero read errors on
  // both arms and that builds actually overlapped the loaded window.
  {
    ServerConfig server_config;
    server_config.workers = threads;
    server_config.queue_capacity = 256;
    server_config.class_build.max_concurrency = threads / 2;
    // Single-core CI runners share the one CPU between the loops and the
    // builds; SCHED_IDLE batch execution (level 20) makes read wakeups
    // preempt batch work immediately instead of after a timeslice.
    server_config.batch_nice = 20;
    ServerCore server(server_config);
    Graph serving_copy = g;
    bool ok = server.registry().Add("bench", std::move(serving_copy)).ok();

    // Non-Linux fallback: measure through the blocking shell so the
    // record still exists (reads then share the worker pool with builds,
    // which is exactly what the class caps are for).
    ReactorConfig reactor_config;
    ReactorServer reactor(&server, reactor_config);
    HttpServer blocking(&server, /*port=*/0);
    const bool have_reactor = ReactorServer::Supported();
    if (have_reactor) {
      ok = ok && reactor.Start().ok();
    } else {
      ok = ok && blocking.Start().ok();
    }

    // 16 connections x pipeline 4 = 64 standing warm reads: a realistic
    // steady-state fan-in, so the idle baseline reflects read-vs-read
    // queueing rather than a single request on an otherwise silent core
    // (against which any one scheduler timeslice would look like a
    // multiple-x regression).
    LoadHarnessOptions load;
    load.target = "/api/stats?graph=bench";
    load.connections = 16;
    load.pipeline_depth = 4;
    load.requests_per_connection = fast ? 200 : 400;
    load.port = have_reactor ? reactor.port() : blocking.port();
    auto idle_run = RunLoadHarness(load);

    std::atomic<bool> stop_flood{false};
    std::atomic<int> floods_done{0};
    const std::string flood_body =
        R"({"graph":"bench","kind":"nucleus34","method":"and",)"
        R"("threads":1,"no_cache":true})";
    std::vector<std::thread> flooders;
    for (int f = 0; f < 2; ++f) {
      flooders.emplace_back([&] {
        while (!stop_flood.load(std::memory_order_relaxed)) {
          if (server.Handle({"decompose", flood_body}).status.ok()) {
            floods_done.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    // Let the flooders sink into real build work before measuring.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const int floods_before = floods_done.load();
    auto loaded_run = RunLoadHarness(load);
    const bool overlapped =
        server.ActiveRequests(RequestClass::kBuild) > 0 ||
        floods_done.load() > floods_before || floods_before == 0;
    stop_flood.store(true);
    for (auto& t : flooders) t.join();

    ok = ok && idle_run.ok() && loaded_run.ok() && idle_run->errors == 0 &&
         loaded_run->errors == 0 && floods_done.load() > 0 && overlapped;
    const double idle_p99 = idle_run.ok() ? idle_run->p99_ms : 0;
    const double loaded_p99 = loaded_run.ok() ? loaded_run->p99_ms : 0;
    BenchRecord rec{"planted-perf",      g.NumVertices(), g.NumEdges(),
                    "serving",           "server_concurrency", threads,
                    false,               loaded_p99,      0,
                    0.0,                 ok};
    rec.speedup_vs_onthefly = loaded_p99 / std::max(idle_p99, 1e-6);
    records.push_back(rec);
    std::printf("%-10s %-9s conns=16  warm-read p99 idle %6.3f ms  under "
                "%d cold builds %6.3f ms  ratio %.2fx  %s\n",
                "planted-perf", "serving", idle_p99, floods_done.load(),
                loaded_p99, rec.speedup_vs_onthefly, ok ? "ok" : "MISMATCH");
    if (have_reactor) reactor.Stop();
    if (!have_reactor) blocking.Stop();
    server.Shutdown();
  }

  if (!WriteBenchJson(path, "bench_runtime", fast, records)) return 1;
  std::printf("wrote %s (%zu records)\n", path.c_str(), records.size());
  bool all_ok = true;
  for (const auto& r : records) all_ok = all_ok && r.check_ok;
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace nucleus::bench

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-')
                      ? argv[++i]
                      : "BENCH_runtime.json";
    }
  }
  if (!json_path.empty()) return nucleus::bench::RunJson(json_path);
  nucleus::bench::RunTables();
  return 0;
}
