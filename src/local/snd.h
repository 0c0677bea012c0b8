// SND — Synchronous Nucleus Decomposition (Algorithm 2 of the paper).
// Iteratively applies the update operator U (Definition 6): every r-clique
// simultaneously replaces its tau with the h-index of the rho values of its
// s-cliques, where rho(S, R) = min over co-members R' of tau_prev(R').
// tau_0 = S-degrees; the sequence is non-increasing and converges to the
// kappa indices (Theorems 1-3).
#ifndef NUCLEUS_LOCAL_SND_H_
#define NUCLEUS_LOCAL_SND_H_

#include <cstdint>
#include <vector>

#include "src/clique/spaces.h"
#include "src/common/parallel.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/local/options.h"
#include "src/local/trace.h"

namespace nucleus {

/// Options of the local algorithms: the shared Options knobs plus the
/// SND/AND-specific preserve-check ablation switch.
struct LocalOptions : Options {
  /// Section 4.4 heuristic: skip the h-index computation when tau is
  /// provably preserved (>= tau values of at least tau). Never changes
  /// results, only speed. Exposed for the ablation bench.
  bool use_preserve_check = true;
};

/// Result of an SND/AND run.
struct LocalResult {
  /// Final tau indices; equal to kappa when converged.
  std::vector<Degree> tau;
  /// Number of sweeps in which at least one tau changed.
  int iterations = 0;
  /// True when a full sweep produced no updates (fixed point reached).
  bool converged = false;
  /// Total tau updates across all sweeps.
  std::size_t total_updates = 0;
  /// Ok for a completed (or iteration-capped) run. kCancelled /
  /// kDeadlineExceeded when the run was stopped via Options::cancel_token
  /// or Options::deadline_ms: tau is then partial and must be discarded.
  Status status = Status::Ok();
};

/// Generic SND over any clique space.
template <typename Space>
LocalResult SndGeneric(const Space& space, const LocalOptions& options);

/// k-core instance ((1,2)): tau over vertices.
LocalResult SndCore(const Graph& g, const LocalOptions& options = {});

/// k-truss instance ((2,3)): tau over edge ids.
LocalResult SndTruss(const Graph& g, const EdgeIndex& edges,
                     const LocalOptions& options = {});

/// (3,4) instance: tau over triangle ids.
LocalResult SndNucleus34(const Graph& g, const TriangleIndex& tris,
                         const LocalOptions& options = {});

}  // namespace nucleus

#endif  // NUCLEUS_LOCAL_SND_H_
