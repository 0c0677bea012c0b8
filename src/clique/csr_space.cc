#include "src/clique/csr_space.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <numeric>
#include <tuple>
#include <utility>

#include "src/clique/intersect.h"
#include "src/clique/triangles.h"

namespace nucleus {

namespace {

// Computes arena offsets from per-r-clique s-clique counts and sizes the
// co-member array.
void PrepareArena(const std::vector<Degree>& counts, int arity,
                  internal::CsrArena* arena) {
  const std::size_t n = counts.size();
  arena->offsets.assign(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    arena->offsets[r + 1] =
        arena->offsets[r] + static_cast<std::uint64_t>(counts[r]) * arity;
  }
  arena->co_members.resize(arena->offsets[n]);
}

}  // namespace

int CoMemberArity(const GenericRsSpace& space) {
  // C(s, r) - 1 co-members per s-clique.
  const int r = space.enumerator().r();
  const int s = space.enumerator().s();
  std::uint64_t c = 1;
  for (int i = 1; i <= r; ++i) {
    c = c * static_cast<std::uint64_t>(s - r + i) / i;
  }
  return static_cast<int>(c) - 1;
}

bool BuildCsrArena(const CoreSpace& space, int threads,
                   std::uint64_t budget_bytes, int arity,
                   internal::CsrArena* arena, RunControl ctl) {
  return internal::GenericBuildCsrArena(space, threads, budget_bytes, arity,
                                        arena, ctl);
}

bool BuildCsrArena(const GenericRsSpace& space, int threads,
                   std::uint64_t budget_bytes, int arity,
                   internal::CsrArena* arena, RunControl ctl) {
  return internal::GenericBuildCsrArena(space, threads, budget_bytes, arity,
                                        arena, ctl);
}

// (2,3): one blocked oriented triangle enumeration records each triangle's
// three edge ids (3 binary searches per triangle, total — the on-the-fly
// space pays 2 per triangle *per edge per sweep* on top of the adjacency
// intersections). Counting and scattering then run over the compact triple
// buffers.
bool BuildCsrArena(const TrussSpace& space, int threads,
                   std::uint64_t budget_bytes, int arity,
                   internal::CsrArena* arena, RunControl ctl) {
  const Graph& g = space.graph();
  const EdgeIndex& edges = space.edges();
  const std::size_t m = edges.NumEdges();
  const int t = threads <= 1 ? 1 : threads;

  // Budgeted builds must decide BEFORE any O(#triangles) allocation (the
  // triple buffer below is ~half the arena). The O(m) wedge bound
  // (#triangles <= sum_e min(deg u, deg v) / 3) settles the common
  // comfortably-fits case for free; only graphs near the budget pay an
  // exact count-only pre-pass. Rejection still fulfills the degrees
  // contract via the standard per-edge intersections.
  if (budget_bytes != std::numeric_limits<std::uint64_t>::max()) {
    std::uint64_t wedge_bound = 0;
    for (std::size_t e = 0; e < m; ++e) {
      const auto [u, v] = edges.Endpoints(static_cast<EdgeId>(e));
      wedge_bound += std::min(g.GetDegree(u), g.GetDegree(v));
    }
    if (internal::CsrArenaBytes(m, wedge_bound, arity) > budget_bytes) {
      const Count total = CountTriangles(g, t, ctl);
      if (ctl.CanStop() && ctl.ShouldStop()) return false;
      if (internal::CsrArenaBytes(m, 3 * total, arity) > budget_bytes) {
        arena->degrees = space.InitialDegrees(t);
        return false;
      }
    }
  }

  std::vector<std::vector<std::array<EdgeId, 3>>> parts(t);
  ForEachTriangleBlocks(
      g, t,
      [&](int block, VertexId u, VertexId v, VertexId w) {
        parts[block].push_back({edges.EdgeIdOf(u, v), edges.EdgeIdOf(u, w),
                                edges.EdgeIdOf(v, w)});
      },
      ctl);
  if (ctl.CanStop() && ctl.ShouldStop()) return false;

  arena->degrees.assign(m, 0);
  // One block per worker: static schedule, not the chunked dynamic default
  // (whose 256-wide grabs would hand all t blocks to one thread).
  ParallelFor(
      static_cast<std::size_t>(t), t,
      [&](std::size_t b) {
        for (const auto& tri : parts[b]) {
          for (EdgeId e : tri) {
            std::atomic_ref<Degree>(arena->degrees[e])
                .fetch_add(1, std::memory_order_relaxed);
          }
        }
      },
      Schedule::kStatic);

  PrepareArena(arena->degrees, arity, arena);
  std::vector<std::uint64_t> cursor(arena->offsets.begin(),
                                    arena->offsets.end() - 1);
  ParallelFor(
      static_cast<std::size_t>(t), t,
      [&](std::size_t b) {
        for (const auto& tri : parts[b]) {
          for (int i = 0; i < 3; ++i) {
            const std::uint64_t pos =
                std::atomic_ref<std::uint64_t>(cursor[tri[i]])
                    .fetch_add(2, std::memory_order_relaxed);
            arena->co_members[pos] = tri[(i + 1) % 3];
            arena->co_members[pos + 1] = tri[(i + 2) % 3];
          }
        }
      },
      Schedule::kStatic);
  return true;
}

// (3,4): triangle-centric. Every live triangle is listed on its three
// edges as (opposite vertex, id), each list sorted by opposite vertex. The
// 4-cliques of triangle abc are the x common to any two of its lists (abx
// and acx already span all six edges of abcx, so bcx is live too), and the
// lists carry the co-member ids, so no id is looked up. Pass 1 counts d_4
// exactly by intersecting the two shortest lists, so the budget is decided
// before any O(#K4) allocation. Pass 2 merges them again, walks the third
// list for its ids and writes straight into the triangle's own range.
// Groups come in ForEachSClique's order, so the arena is the same at every
// thread count.
bool BuildCsrArena(const Nucleus34Space& space, int threads,
                   std::uint64_t budget_bytes, int arity,
                   internal::CsrArena* arena, RunControl ctl) {
  assert(arity == 3);
  const Graph& g = space.graph();
  const TriangleIndex& tris = space.triangles();
  const std::size_t nt = tris.NumTriangles();
  const bool can_stop = ctl.CanStop();
  AbortFlag abort;
  const auto skip = [&](std::size_t t) {
    return (can_stop && PollStopAmortized(ctl, abort)) ||
           !tris.IsLive(static_cast<TriangleId>(t));
  };

  // Edge u < v is keyed by v's slot in u's CSR row. A triangle's edges
  // (v0,v1), (v0,v2), (v1,v2) are its co-member positions 0, 1, 2.
  const auto slot_of = [&](VertexId u, VertexId v) {
    const auto adj = g.Neighbors(u);
    const auto it = std::lower_bound(adj.begin(), adj.end(), v);
    assert(it != adj.end() && *it == v);
    return g.Offsets()[u] + static_cast<std::size_t>(it - adj.begin());
  };
  std::vector<std::array<std::size_t, 3>> tri_slots(nt);
  ParallelFor(nt, threads, [&](std::size_t t) {
    if (skip(t)) return;
    const auto& v = tris.Vertices(static_cast<TriangleId>(t));
    tri_slots[t] = {slot_of(v[0], v[1]), slot_of(v[0], v[2]),
                    slot_of(v[1], v[2])};
  });
  if (can_stop && ctl.ShouldStop()) return false;
  // Filled in id order; sorting also places ids patched in past the
  // pristine range. Then split: opposite vertices are what gets merged.
  std::vector<std::uint64_t> list_offset(g.Offsets().back() + 1, 0);
  for (std::size_t t = 0; t < nt; ++t) {
    if (!tris.IsLive(static_cast<TriangleId>(t))) continue;
    for (std::size_t s : tri_slots[t]) ++list_offset[s + 1];
  }
  std::partial_sum(list_offset.begin(), list_offset.end(),
                   list_offset.begin());
  std::vector<VertexId> opposite(list_offset.back());
  std::vector<TriangleId> ids(list_offset.back());
  {
    std::vector<std::pair<VertexId, TriangleId>> entries(ids.size());
    std::vector<std::uint64_t> cursor(list_offset);
    for (std::size_t t = 0; t < nt; ++t) {
      if (!tris.IsLive(static_cast<TriangleId>(t))) continue;
      const auto& v = tris.Vertices(static_cast<TriangleId>(t));
      for (int i = 0; i < 3; ++i) {
        entries[cursor[tri_slots[t][i]]++] = {v[2 - i],
                                              static_cast<TriangleId>(t)};
      }
    }
    ParallelFor(list_offset.size() - 1, threads, [&](std::size_t s) {
      std::sort(entries.begin() + list_offset[s],
                entries.begin() + list_offset[s + 1]);
      for (std::uint64_t i = list_offset[s]; i < list_offset[s + 1]; ++i) {
        std::tie(opposite[i], ids[i]) = entries[i];
      }
    });
  }

  // Merges t's two shortest lists: each common opposite vertex x is a
  // 4-clique, whose third co-member sits at x in the longest list. Writes
  // the groups to `out` when given; returns their number.
  const auto merge = [&](std::size_t t, CliqueId* out) -> Degree {
    const auto& s = tri_slots[t];
    const auto len = [&](int i) {
      return list_offset[s[i] + 1] - list_offset[s[i]];
    };
    std::array<int, 3> pos = {0, 1, 2};
    std::sort(pos.begin(), pos.end(),
              [&](int x, int y) { return len(x) < len(y); });
    std::uint64_t p[3], e[3];
    for (int i = 0; i < 3; ++i) {
      p[i] = list_offset[s[pos[i]]];
      e[i] = list_offset[s[pos[i]] + 1];
    }
    if (out == nullptr) {
      return static_cast<Degree>(
          CountCommon({opposite.data() + p[0], opposite.data() + e[0]},
                      {opposite.data() + p[1], opposite.data() + e[1]}));
    }
    while (p[0] < e[0] && p[1] < e[1]) {
      const VertexId x = opposite[p[0]], y = opposite[p[1]];
      if (x != y) {
        ++p[x < y ? 0 : 1];
        continue;
      }
      while (p[2] < e[2] && opposite[p[2]] < x) ++p[2];
      assert(p[2] < e[2] && opposite[p[2]] == x);
      for (int i = 0; i < 3; ++i) out[pos[i]] = ids[p[i]++];
      out += 3;
    }
    return 0;
  };
  arena->degrees.assign(nt, 0);
  ParallelFor(nt, threads, [&](std::size_t t) {
    if (!skip(t)) arena->degrees[t] = merge(t, nullptr);
  });
  if (can_stop && ctl.ShouldStop()) return false;
  const std::uint64_t total_s = std::accumulate(
      arena->degrees.begin(), arena->degrees.end(), std::uint64_t{0});
  if (internal::CsrArenaBytes(nt, total_s, arity) > budget_bytes) {
    return false;
  }

  PrepareArena(arena->degrees, arity, arena);
  ParallelFor(nt, threads, [&](std::size_t t) {
    if (!skip(t)) merge(t, arena->co_members.data() + arena->offsets[t]);
  });
  return !(can_stop && ctl.ShouldStop());
}

}  // namespace nucleus
