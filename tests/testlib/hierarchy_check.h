// Hierarchy checks shared by the suites that certify a nucleus forest
// against a reference: node-for-node bitwise equality, and the on-the-fly
// reference every session hierarchy must equal, whichever representation
// (CSR arena, compressed arena, base space) it was swept or repaired over.
#ifndef NUCLEUS_TESTS_TESTLIB_HIERARCHY_CHECK_H_
#define NUCLEUS_TESTS_TESTLIB_HIERARCHY_CHECK_H_

#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/core/session.h"
#include "src/peel/hierarchy.h"

namespace nucleus {
namespace testlib {

/// Asserts the two forests are bitwise-equal: every node's k, parent,
/// children, new_members and size, then roots and node_of_clique.
void ExpectHierarchiesEqual(const NucleusHierarchy& got,
                            const NucleusHierarchy& want,
                            const std::string& what);

/// BuildHierarchy over a fresh on-the-fly space of `kind` on the session's
/// current graph and (possibly patched) indexes, excluding the ids the
/// space reports dead. Reads no arena, so a bad arena patch cannot leak
/// into the reference.
NucleusHierarchy FlyHierarchy(NucleusSession& session, DecompositionKind kind,
                              const std::vector<Degree>& kappa);

}  // namespace testlib
}  // namespace nucleus

#endif  // NUCLEUS_TESTS_TESTLIB_HIERARCHY_CHECK_H_
