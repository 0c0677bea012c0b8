#include "src/clique/four_cliques.h"

#include <algorithm>
#include <atomic>

#include "src/clique/intersect.h"
#include "src/common/parallel.h"
#include "src/graph/ordering.h"

namespace nucleus {

namespace {

// Enumeration core. For every 4-clique {a,b,c,d}, let v be its
// rank-minimum and w the rank-minimum of the rest: then w, x, y are all in
// out(v), and x, y are in out(w), and the x-y edge is oriented one way.
// Enumerating (v, w, common = out(v) cap out(w), then pairs of common joined
// by an oriented edge) therefore hits each 4-clique exactly once. Calls
// fn(v, w, x, y) — rank-ordered (not id-ordered) vertices — for every
// 4-clique whose rank-minimum lies in [begin, end). `stop` is polled once
// per (v, w) pair, since those work items can be heavy on skewed graphs;
// when it returns true the range is abandoned.
template <typename Fn, typename Stop>
void FourCliquesFrom(const OrientedGraph& oriented, std::size_t begin,
                     std::size_t end, Fn&& fn, Stop&& stop) {
  std::vector<VertexId> common;
  for (std::size_t vi = begin; vi < end; ++vi) {
    const VertexId v = static_cast<VertexId>(vi);
    const auto out_v = oriented.OutNeighbors(v);
    for (VertexId w : out_v) {
      if (stop()) return;
      common.clear();
      ForEachCommon(out_v, oriented.OutNeighbors(w),
                    [&](VertexId x) { common.push_back(x); });
      // common is sorted by vertex id. For each x in common, every y in
      // out(x) cap common closes the clique; orientation of the x-y edge
      // makes each unordered pair appear exactly once.
      const std::span<const VertexId> common_span(common.data(),
                                                  common.size());
      for (VertexId x : common) {
        ForEachCommon(common_span, oriented.OutNeighbors(x),
                      [&](VertexId y) { fn(v, w, x, y); });
      }
    }
  }
}

// Source vertices per dynamically claimed chunk: as for triangles, the
// degree orientation piles most 4-cliques onto few source vertices.
constexpr std::size_t kVertexChunk = 16;

}  // namespace

void ForEachFourClique(
    const Graph& g,
    const std::function<void(VertexId, VertexId, VertexId, VertexId)>& fn) {
  const auto ranks = DegreeOrderRanks(g);
  const OrientedGraph oriented(g, ranks);
  FourCliquesFrom(
      oriented, 0, g.NumVertices(),
      [&](VertexId a, VertexId b, VertexId c, VertexId d) {
        VertexId q[4] = {a, b, c, d};
        std::sort(q, q + 4);
        fn(q[0], q[1], q[2], q[3]);
      },
      [] { return false; });
}

Count CountFourCliques(const Graph& g, int threads, RunControl ctl) {
  const auto ranks = DegreeOrderRanks(g);
  const OrientedGraph oriented(g, ranks);
  const bool can_stop = ctl.CanStop();
  AbortFlag abort;
  std::atomic<Count> total{0};
  ParallelChunks(
      g.NumVertices(), kVertexChunk, threads,
      [&](int, std::size_t, std::size_t begin, std::size_t end) {
        CheckEvery<16> poll;
        Count c = 0;
        FourCliquesFrom(
            oriented, begin, end,
            [&](VertexId, VertexId, VertexId, VertexId) { ++c; },
            [&] { return can_stop && poll.Due() && PollStop(ctl, abort); });
        total.fetch_add(c, std::memory_order_relaxed);
      });
  return total.load();
}

std::vector<Degree> FourCliqueCountsPerTriangle(const Graph& g,
                                                const TriangleIndex& tris,
                                                int threads, RunControl ctl) {
  const bool can_stop = ctl.CanStop();
  AbortFlag abort;
  std::vector<Degree> counts(tris.NumTriangles(), 0);
  ParallelFor(tris.NumTriangles(), threads, [&](std::size_t t) {
    if (can_stop && PollStopAmortized(ctl, abort)) return;
    if (!tris.IsLive(static_cast<TriangleId>(t))) return;  // d_4 = 0
    const auto& tri = tris.Vertices(static_cast<TriangleId>(t));
    std::size_t c = 0;
    ForEachCommon3(g.Neighbors(tri[0]), g.Neighbors(tri[1]),
                   g.Neighbors(tri[2]), [&](VertexId) { ++c; });
    counts[t] = static_cast<Degree>(c);
  });
  return counts;
}

}  // namespace nucleus
