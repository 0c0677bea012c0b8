#include "tests/testlib/hierarchy_check.h"

#include <gtest/gtest.h>

#include "src/clique/spaces.h"

namespace nucleus {
namespace testlib {

void ExpectHierarchiesEqual(const NucleusHierarchy& got,
                            const NucleusHierarchy& want,
                            const std::string& what) {
  ASSERT_EQ(got.nodes.size(), want.nodes.size()) << what;
  for (std::size_t i = 0; i < want.nodes.size(); ++i) {
    const auto& gn = got.nodes[i];
    const auto& wn = want.nodes[i];
    ASSERT_EQ(gn.k, wn.k) << what << " node " << i;
    ASSERT_EQ(gn.parent, wn.parent) << what << " node " << i;
    ASSERT_EQ(gn.children, wn.children) << what << " node " << i;
    ASSERT_EQ(gn.new_members, wn.new_members) << what << " node " << i;
    ASSERT_EQ(gn.size, wn.size) << what << " node " << i;
  }
  EXPECT_EQ(got.roots, want.roots) << what;
  EXPECT_EQ(got.node_of_clique, want.node_of_clique) << what;
}

NucleusHierarchy FlyHierarchy(NucleusSession& session, DecompositionKind kind,
                              const std::vector<Degree>& kappa) {
  const auto build = [&](const auto& space) {
    return BuildHierarchy(space, kappa, space.LiveRFlags());
  };
  switch (kind) {
    case DecompositionKind::kCore:
      return build(CoreSpace(session.graph()));
    case DecompositionKind::kTruss:
      return build(TrussSpace(session.graph(), session.Edges()));
    case DecompositionKind::kNucleus34:
      return build(Nucleus34Space(session.graph(), session.Triangles()));
  }
  return {};
}

}  // namespace testlib
}  // namespace nucleus
