#include "src/clique/triangles.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "src/clique/intersect.h"
#include "src/common/parallel.h"
#include "src/graph/ordering.h"

namespace nucleus {

namespace {

// Branchless ascending sort of a 3-vertex key: min/max compile to
// conditional moves and the XOR identity recovers the middle element, so
// per-lookup cost has no data-dependent branches (the old std::sort did).
inline std::array<VertexId, 3> SortedTriple(VertexId u, VertexId v,
                                            VertexId w) {
  const VertexId lo = std::min(std::min(u, v), w);
  const VertexId hi = std::max(std::max(u, v), w);
  const VertexId mid = u ^ v ^ w ^ lo ^ hi;
  return {lo, mid, hi};
}

// Calls fn(a, b, c) once per triangle whose rank-minimum vertex lies in
// [begin, end), with vertices in rank order (NOT id order).
template <typename Fn>
void TrianglesFrom(const OrientedGraph& oriented, std::size_t begin,
                   std::size_t end, Fn&& fn) {
  for (std::size_t v = begin; v < end; ++v) {
    const auto out_v = oriented.OutNeighbors(static_cast<VertexId>(v));
    for (const VertexId w : out_v) {
      ForEachCommon(out_v, oriented.OutNeighbors(w), [&](VertexId x) {
        fn(static_cast<VertexId>(v), w, x);
      });
    }
  }
}

// Source vertices per dynamically claimed chunk. The degree orientation
// piles most triangles onto few source vertices (on the RMAT graphs the
// first quarter of the id range holds ~80% of them), so one contiguous
// range per thread would leave all but one thread idle.
constexpr std::size_t kVertexChunk = 16;

std::size_t NumChunks(const Graph& g) {
  return (g.NumVertices() + kVertexChunk - 1) / kVertexChunk;
}

// Shared parallel loop: runs body(worker, chunk, begin, end) once per
// kVertexChunk-wide source range (see ParallelChunks), feeding
// TrianglesFrom. A stoppable ctl is polled once per chunk; on stop every
// worker abandons its remaining chunks (output is partial — callers check
// ctl afterwards and discard).
template <typename Body>
void ChunkedTriangles(const Graph& g, int threads, Body&& body,
                      RunControl ctl = {}) {
  const bool can_stop = ctl.CanStop();
  AbortFlag abort;
  ParallelChunks(g.NumVertices(), kVertexChunk, threads,
                 [&](int worker, std::size_t chunk, std::size_t begin,
                     std::size_t end) {
                   if (can_stop && PollStop(ctl, abort)) return;
                   body(worker, chunk, begin, end);
                 });
}

}  // namespace

void ForEachTriangle(
    const Graph& g,
    const std::function<void(VertexId, VertexId, VertexId)>& fn) {
  const auto ranks = DegreeOrderRanks(g);
  const OrientedGraph oriented(g, ranks);
  TrianglesFrom(oriented, 0, g.NumVertices(),
                [&](VertexId a, VertexId b, VertexId c) {
                  const auto t = SortedTriple(a, b, c);
                  fn(t[0], t[1], t[2]);
                });
}

void ForEachTriangleBlocks(
    const Graph& g, int threads,
    const std::function<void(int, VertexId, VertexId, VertexId)>& fn,
    RunControl ctl) {
  const auto ranks = DegreeOrderRanks(g);
  const OrientedGraph oriented(g, ranks);
  ChunkedTriangles(
      g, threads,
      [&](int worker, std::size_t, std::size_t begin, std::size_t end) {
        TrianglesFrom(oriented, begin, end,
                      [&](VertexId a, VertexId b, VertexId c) {
                        const auto t = SortedTriple(a, b, c);
                        fn(worker, t[0], t[1], t[2]);
                      });
      },
      ctl);
}

Count CountTriangles(const Graph& g, int threads, RunControl ctl) {
  const auto ranks = DegreeOrderRanks(g);
  const OrientedGraph oriented(g, ranks);
  std::atomic<Count> total{0};
  ChunkedTriangles(
      g, threads,
      [&](int, std::size_t, std::size_t begin, std::size_t end) {
        Count c = 0;
        TrianglesFrom(oriented, begin, end,
                      [&](VertexId, VertexId, VertexId) { ++c; });
        total.fetch_add(c, std::memory_order_relaxed);
      },
      ctl);
  return total.load();
}

std::vector<Degree> TriangleCountsPerEdge(const Graph& g,
                                          const EdgeIndex& edges,
                                          int threads) {
  std::vector<Degree> counts(edges.NumEdges(), 0);
  ParallelFor(edges.NumEdges(), threads, [&](std::size_t e) {
    if (!edges.IsLive(static_cast<EdgeId>(e))) return;  // tombstone: d_3 = 0
    const auto [u, v] = edges.Endpoints(static_cast<EdgeId>(e));
    counts[e] =
        static_cast<Degree>(CountCommon(g.Neighbors(u), g.Neighbors(v)));
  });
  return counts;
}

TriangleIndex::TriangleIndex(const Graph& g, int threads, RunControl ctl) {
  const auto ranks = DegreeOrderRanks(g);
  const OrientedGraph oriented(g, ranks);
  // Counting pre-pass: exact per-chunk totals, so the triple array is
  // allocated once at its final size and each chunk fills its own slice.
  const std::size_t chunks = NumChunks(g);
  std::vector<std::size_t> chunk_offset(chunks + 1, 0);
  ChunkedTriangles(
      g, threads,
      [&](int, std::size_t chunk, std::size_t begin, std::size_t end) {
        std::size_t c = 0;
        TrianglesFrom(oriented, begin, end,
                      [&](VertexId, VertexId, VertexId) { ++c; });
        chunk_offset[chunk + 1] = c;
      },
      ctl);
  if (ctl.CanStop() && ctl.ShouldStop()) {
    aborted_ = true;
    return;
  }
  for (std::size_t c = 0; c < chunks; ++c) {
    chunk_offset[c + 1] += chunk_offset[c];
  }
  triangles_.resize(chunk_offset[chunks]);
  // Fill pass: chunks are fixed vertex ranges, so each writes exactly its
  // counted slice, whichever worker claims it.
  ChunkedTriangles(
      g, threads,
      [&](int, std::size_t chunk, std::size_t begin, std::size_t end) {
        std::size_t pos = chunk_offset[chunk];
        TrianglesFrom(oriented, begin, end,
                      [&](VertexId a, VertexId b, VertexId c) {
                        triangles_[pos++] = SortedTriple(a, b, c);
                      });
      },
      ctl);
  if (ctl.CanStop() && ctl.ShouldStop()) {
    triangles_.clear();
    aborted_ = true;
    return;
  }
  std::sort(triangles_.begin(), triangles_.end());
  base_triangles_ = triangles_.size();
  num_live_ = triangles_.size();
}

TriangleId TriangleIndex::BaseIdOf(
    const std::array<VertexId, 3>& key) const {
  const auto end =
      triangles_.begin() + static_cast<std::ptrdiff_t>(base_triangles_);
  const auto it = std::lower_bound(triangles_.begin(), end, key);
  if (it == end || *it != key) return kInvalidTriangle;
  return static_cast<TriangleId>(it - triangles_.begin());
}

TriangleId TriangleIndex::TriangleIdOf(VertexId u, VertexId v,
                                       VertexId w) const {
  const std::array<VertexId, 3> key = SortedTriple(u, v, w);
  const TriangleId base = BaseIdOf(key);
  if (base != kInvalidTriangle) {
    return IsLive(base) ? base : kInvalidTriangle;
  }
  if (!overlay_.empty()) {
    const auto it = overlay_.find(key);
    if (it != overlay_.end() && IsLive(it->second)) return it->second;
  }
  return kInvalidTriangle;
}

std::vector<TriangleId> TriangleIndex::ApplyDelta(
    std::span<const std::array<VertexId, 3>> dead,
    std::span<const std::array<VertexId, 3>> born) {
  if (dead_.empty()) dead_.assign(triangles_.size(), 0);
  for (const auto& key : dead) {
    TriangleId id = BaseIdOf(key);
    if (id == kInvalidTriangle) {
      const auto it = overlay_.find(key);
      assert(it != overlay_.end() && "dead triangle has no id");
      id = it->second;
    }
    assert(dead_[id] == 0 && "dead triangle already tombstoned");
    dead_[id] = 1;
    --num_live_;
  }
  std::vector<TriangleId> ids;
  ids.reserve(born.size());
  for (const auto& key : born) {
    TriangleId id = BaseIdOf(key);
    if (id == kInvalidTriangle) {
      const auto it = overlay_.find(key);
      if (it != overlay_.end()) {
        id = it->second;  // revive a patched-in triple's tombstone
      } else {
        id = static_cast<TriangleId>(triangles_.size());
        triangles_.push_back(key);
        dead_.push_back(1);  // flipped live below
        overlay_.emplace(key, id);
      }
    }
    assert(dead_[id] == 1 && "born triangle already live");
    dead_[id] = 0;
    ++num_live_;
    ids.push_back(id);
  }
  return ids;
}

void TriangleIndex::ForEachTriangleOfEdge(
    const Graph& g, VertexId u, VertexId v,
    const std::function<void(TriangleId, VertexId)>& fn) const {
  ForEachCommon(g.Neighbors(u), g.Neighbors(v), [&](VertexId w) {
    const TriangleId t = TriangleIdOf(u, v, w);
    fn(t, w);
  });
}

EdgeTriangleCsr::EdgeTriangleCsr(const EdgeIndex& edges,
                                 const TriangleIndex& tris, int threads,
                                 RunControl ctl) {
  const std::size_t m = edges.NumEdges();
  const std::size_t nt = tris.NumTriangles();
  num_edges_ = m;
  const bool can_stop = ctl.CanStop();
  AbortFlag abort;
  // Pass 1: per-edge triangle counts (relaxed atomic increments; each
  // triangle touches its three edges). Tombstoned triangles of a patched
  // index contribute nothing.
  std::vector<Degree> counts(m, 0);
  ParallelFor(nt, threads, [&](std::size_t ti) {
    if (can_stop && PollStopAmortized(ctl, abort)) return;
    if (!tris.IsLive(static_cast<TriangleId>(ti))) return;
    const auto& v = tris.Vertices(static_cast<TriangleId>(ti));
    const EdgeId ids[3] = {edges.EdgeIdOf(v[0], v[1]),
                           edges.EdgeIdOf(v[0], v[2]),
                           edges.EdgeIdOf(v[1], v[2])};
    for (EdgeId e : ids) {
      std::atomic_ref<Degree>(counts[e]).fetch_add(
          1, std::memory_order_relaxed);
    }
  });
  if (can_stop && ctl.ShouldStop()) {
    aborted_ = true;
    return;
  }
  offsets_.assign(m + 1, 0);
  for (std::size_t e = 0; e < m; ++e) {
    offsets_[e + 1] = offsets_[e] + counts[e];
  }
  entries_.resize(offsets_[m]);
  // Pass 2: scatter through per-edge atomic cursors.
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  ParallelFor(nt, threads, [&](std::size_t ti) {
    if (can_stop && PollStopAmortized(ctl, abort)) return;
    if (!tris.IsLive(static_cast<TriangleId>(ti))) return;
    const auto& v = tris.Vertices(static_cast<TriangleId>(ti));
    const EdgeId ids[3] = {edges.EdgeIdOf(v[0], v[1]),
                           edges.EdgeIdOf(v[0], v[2]),
                           edges.EdgeIdOf(v[1], v[2])};
    const VertexId opposite[3] = {v[2], v[1], v[0]};
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t pos =
          std::atomic_ref<std::uint64_t>(cursor[ids[i]])
              .fetch_add(1, std::memory_order_relaxed);
      entries_[pos] = {static_cast<TriangleId>(ti), opposite[i]};
    }
  });
  if (can_stop && ctl.ShouldStop()) {
    offsets_.clear();
    entries_.clear();
    aborted_ = true;
    return;
  }
  // Deterministic ascending-id order within each edge regardless of thread
  // interleaving.
  ParallelFor(m, threads, [&](std::size_t e) {
    std::sort(entries_.begin() + static_cast<std::ptrdiff_t>(offsets_[e]),
              entries_.begin() + static_cast<std::ptrdiff_t>(offsets_[e + 1]));
  });
}

void EdgeTriangleCsr::EnsureCounts() {
  if (!counts_.empty()) return;
  counts_.resize(num_edges_);
  for (std::size_t e = 0; e + 1 < offsets_.size(); ++e) {
    counts_[e] = static_cast<Degree>(offsets_[e + 1] - offsets_[e]);
  }
}

void EdgeTriangleCsr::ApplyDelta(std::span<const TrianglePatch> dead,
                                 std::span<const TrianglePatch> born,
                                 std::span<const EdgeId> dead_edges,
                                 std::size_t num_edge_ids) {
  num_edges_ = std::max(num_edges_, num_edge_ids);
  EnsureCounts();
  counts_.resize(num_edges_, 0);
  const std::size_t base_m = offsets_.size() - 1;
  // Removes the (t, *) entry from edge e's list: sentineled in place in
  // the pristine region, swap-erased from the overlay.
  const auto remove_entry = [&](EdgeId e, TriangleId t) {
    if (e < base_m) {
      for (std::uint64_t p = offsets_[e]; p < offsets_[e + 1]; ++p) {
        if (entries_[p].first == t) {
          entries_[p] = {kInvalidTriangle, 0};
          --counts_[e];
          return;
        }
      }
    }
    const auto it = overlay_.find(e);
    if (it != overlay_.end()) {
      auto& list = it->second;
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i].first == t) {
          list[i] = list.back();
          list.pop_back();
          --counts_[e];
          return;
        }
      }
    }
    assert(false && "dead triangle entry not found in edge list");
  };
  for (const auto& tp : dead) {
    for (int i = 0; i < 3; ++i) {
      // Member ids are resolved by the caller BEFORE tombstoning, so
      // edges removed in the same commit still carry valid ids here
      // (their whole lists are additionally cleared via dead_edges
      // below); the guard only skips ids a caller could not resolve.
      if (tp.edges[i] == kInvalidEdge) continue;
      remove_entry(tp.edges[i], tp.id);
    }
  }
  for (EdgeId e : dead_edges) {
    if (e < base_m) {
      for (std::uint64_t p = offsets_[e]; p < offsets_[e + 1]; ++p) {
        entries_[p] = {kInvalidTriangle, 0};
      }
    }
    overlay_.erase(e);
    counts_[e] = 0;
  }
  for (const auto& tp : born) {
    for (int i = 0; i < 3; ++i) {
      assert(tp.edges[i] != kInvalidEdge);
      overlay_[tp.edges[i]].emplace_back(tp.id, tp.opposite[i]);
      ++counts_[tp.edges[i]];
    }
  }
}

}  // namespace nucleus
