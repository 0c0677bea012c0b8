// SndGeneric template definition. Include this (not snd.h) when
// instantiating SND for a clique space beyond the three canonical ones
// (see core/generic_rs.cc). Regular users include snd.h.
#ifndef NUCLEUS_LOCAL_SND_IMPL_H_
#define NUCLEUS_LOCAL_SND_IMPL_H_

#include <algorithm>
#include <atomic>
#include <utility>

#include "src/clique/representation.h"
#include "src/common/h_index.h"
#include "src/local/snd.h"

namespace nucleus {

namespace internal {

/// The sweep loop proper, with tau_0 handed in (it is a by-product of both
/// the on-the-fly decision path and the CSR build, so it is never computed
/// twice).
template <typename Space>
LocalResult SndSweeps(const Space& space, const LocalOptions& options,
                      std::vector<Degree> initial, RunControl ctl = {}) {
  const std::size_t n = space.NumRCliques();
  const bool can_stop = ctl.CanStop();
  AbortFlag abort;
  LocalResult result;
  result.tau = std::move(initial);
  std::vector<Degree> tau_prev(n);

  if (options.trace != nullptr) {
    options.trace->Clear();
    if (options.trace->record_snapshots) {
      options.trace->snapshots.push_back(result.tau);  // tau_0
    }
  }

  for (int iter = 0;
       options.max_iterations == 0 || iter < options.max_iterations; ++iter) {
    tau_prev = result.tau;
    std::atomic<std::size_t> updates{0};
    ParallelFor(
        n, options.threads,
        [&](std::size_t r) {
          if (can_stop && PollStopAmortized(ctl, abort)) return;
          const Degree old_tau = tau_prev[r];
          if (old_tau == 0) return;  // 0 is a fixed point
          static thread_local HIndexScratch scratch;
          auto& rhos = scratch.values();
          rhos.clear();
          Degree at_least_old = 0;  // rho values >= old_tau, for preserve
          space.ForEachSClique(static_cast<CliqueId>(r),
                               [&](std::span<const CliqueId> co) {
                                 Degree rho = tau_prev[co[0]];
                                 for (std::size_t i = 1; i < co.size(); ++i) {
                                   rho = std::min(rho, tau_prev[co[i]]);
                                 }
                                 if (rho >= old_tau) ++at_least_old;
                                 rhos.push_back(rho);
                               });
          if (options.use_preserve_check && at_least_old >= old_tau) {
            // H >= old_tau, and monotonicity gives H <= old_tau: preserved.
            return;
          }
          const Degree new_tau = scratch.Compute();
          if (new_tau != old_tau) {
            result.tau[r] = new_tau;
            updates.fetch_add(1, std::memory_order_relaxed);
          }
        },
        options.schedule);
    if (can_stop && (abort.Raised() || ctl.ShouldStop())) {
      result.status = ctl.StopStatus();
      return result;  // tau is partial; caller must discard.
    }

    const std::size_t u = updates.load();
    if (options.trace != nullptr) {
      options.trace->updates_per_iteration.push_back(u);
      if (options.trace->record_snapshots) {
        options.trace->snapshots.push_back(result.tau);
      }
    }
    if (u == 0) {
      result.converged = true;
      break;
    }
    result.total_updates += u;
    ++result.iterations;
  }
  return result;
}

}  // namespace internal

template <typename Space>
LocalResult SndGeneric(const Space& space, const LocalOptions& options) {
  const RunControl ctl = options.MakeControl();
  return VisitRepresentation(
      space,
      LadderPolicy{options.materialize, options.materialize_budget_bytes},
      options.threads, ctl, [&](const auto& s, std::vector<Degree> initial) {
        return internal::SndSweeps(s, options, std::move(initial), ctl);
      });
}

}  // namespace nucleus

#endif  // NUCLEUS_LOCAL_SND_IMPL_H_
