// 4-clique enumeration and per-triangle K4 counts (the s-cliques of the
// (3,4) decomposition).
#ifndef NUCLEUS_CLIQUE_FOUR_CLIQUES_H_
#define NUCLEUS_CLIQUE_FOUR_CLIQUES_H_

#include <functional>
#include <vector>

#include "src/clique/triangles.h"
#include "src/common/cancel.h"
#include "src/common/types.h"
#include "src/graph/graph.h"

namespace nucleus {

/// Calls fn(a, b, c, d) with a < b < c < d exactly once per 4-clique.
void ForEachFourClique(
    const Graph& g,
    const std::function<void(VertexId, VertexId, VertexId, VertexId)>& fn);

/// Total 4-clique count (Table 3 statistic). `threads` parallelizes over
/// dynamically claimed vertex chunks. A stopped run undercounts; the
/// caller checks ctl.
Count CountFourCliques(const Graph& g, int threads = 1, RunControl ctl = {});

/// Per-triangle 4-clique counts indexed by TriangleIndex ids; this is d_4,
/// the initial tau of the (3,4) decomposition. A triangle's 4-cliques are
/// the common neighbors of its three vertices, so counts parallelize over
/// triangles. A stopped run leaves partial counts; the caller checks ctl.
std::vector<Degree> FourCliqueCountsPerTriangle(const Graph& g,
                                                const TriangleIndex& tris,
                                                int threads = 1,
                                                RunControl ctl = {});

}  // namespace nucleus

#endif  // NUCLEUS_CLIQUE_FOUR_CLIQUES_H_
