#include "src/peel/hierarchy.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/clique/compressed_csr_space.h"
#include "src/clique/csr_space.h"
#include "src/peel/hierarchy_impl.h"

namespace nucleus {

std::size_t NucleusHierarchy::Depth() const {
  if (nodes.empty()) return 0;
  std::size_t best = 0;
  // Iterative DFS with explicit depth stack.
  std::vector<std::pair<int, std::size_t>> stack;
  for (int r : roots) stack.emplace_back(r, 1);
  while (!stack.empty()) {
    auto [id, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    for (int c : nodes[id].children) stack.emplace_back(c, d + 1);
  }
  return best;
}

// Every overload for the three on-the-fly spaces and for both arena rungs
// over each: the session builds and repairs hierarchies over whichever
// representation its ladder already holds (clique/representation.h).
#define NUCLEUS_INSTANTIATE_HIERARCHY(Space)                               \
  template NucleusHierarchy BuildHierarchy<Space>(                        \
      const Space&, const std::vector<Degree>&,                           \
      std::span<const std::uint8_t>, RunControl);                         \
  template NucleusHierarchy BuildHierarchy<Space>(                        \
      const Space&, const PeelResult&, RunControl);                       \
  template NucleusHierarchy RepairHierarchy<Space>(                       \
      const Space&, const NucleusHierarchy&, const std::vector<Degree>&,  \
      std::span<const std::uint8_t>, Degree, RunControl);
#define NUCLEUS_INSTANTIATE_HIERARCHY_RUNGS(Space) \
  NUCLEUS_INSTANTIATE_HIERARCHY(Space)             \
  NUCLEUS_INSTANTIATE_HIERARCHY(CsrSpace<Space>)   \
  NUCLEUS_INSTANTIATE_HIERARCHY(CompressedCsrSpace<Space>)

NUCLEUS_INSTANTIATE_HIERARCHY_RUNGS(CoreSpace)
NUCLEUS_INSTANTIATE_HIERARCHY_RUNGS(TrussSpace)
NUCLEUS_INSTANTIATE_HIERARCHY_RUNGS(Nucleus34Space)

#undef NUCLEUS_INSTANTIATE_HIERARCHY_RUNGS
#undef NUCLEUS_INSTANTIATE_HIERARCHY

NucleusHierarchy BuildCoreHierarchy(const Graph& g,
                                    const std::vector<Degree>& kappa) {
  return BuildHierarchy(CoreSpace(g), kappa);
}

NucleusHierarchy BuildTrussHierarchy(const Graph& g, const EdgeIndex& edges,
                                     const std::vector<Degree>& kappa) {
  // A patched index keeps tombstoned ids in the id space; exclude them so
  // removed edges do not surface as phantom singleton nuclei.
  const TrussSpace space(g, edges);
  return BuildHierarchy(space, kappa, space.LiveRFlags());
}

NucleusHierarchy BuildNucleus34Hierarchy(const Graph& g,
                                         const TriangleIndex& tris,
                                         const std::vector<Degree>& kappa) {
  const Nucleus34Space space(g, tris);
  return BuildHierarchy(space, kappa, space.LiveRFlags());
}

}  // namespace nucleus
