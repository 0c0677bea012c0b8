// The materialization ladder: the one place that decides how a run
// enumerates a clique space's s-cliques. The engines (peeling, SND, AND)
// are defined over the abstract space and their kappa does not depend on
// the representation, so the choice is pure time/memory policy. The rungs,
// in the order kAuto tries them:
//
//   uncompressed CSR arena (csr_space.h)
//     -> delta-compressed arena (compressed_csr_space.h)
//       -> on the fly (the base space itself; the paper's Section 5)
//
// Materialize names the rungs a run may use: kAuto all three, degrading
// when an arena exceeds the byte budget; kOn the CSR arena with no budget;
// kCompressed the compressed arena, budget-gated; kOff the fly rung only.
// Under kAuto, CoreSpace and peeling stay on the fly: a CoreSpace's
// co-members are its adjacency list, already one contiguous scan, and a
// peel enumerates each r-clique's s-cliques once, so an arena built for a
// single peel never pays for itself.
//
// A rung that fails on budget leaves its counted d_s behind for the fly
// rung, so the counting pass never runs twice. A stop (cancel or the
// overall deadline) during a build fails the run and keeps nothing
// partial. A deadline-bound run grants the whole materialization half the
// remaining time; when only that share runs out, the run degrades straight
// to the fly rung — a slower sweep beats a failed request when the arena
// was merely an optimization.
//
// Two entry points share all of this. The engines call VisitRepresentation,
// which climbs the ladder with a throwaway LadderState. The session calls
// ResolveRepresentation with the LadderState it keeps per kind, so built
// arenas, failed-budget memos and the fly d_s survive across calls (its
// commits patch or drop them), and then runs the engine through VisitRung.
//
// The session's hierarchy build and repair read the ladder but never climb
// it: they enumerate s-cliques from whatever rung is already held
// (HeldRung: the CSR arena, else the compressed one, else the base space)
// and never build an arena. The forest does not depend on the rung (see
// peel/hierarchy_impl.h), so an arena a decomposition paid for also makes
// its hierarchy a contiguous scan instead of re-derived intersections.
#ifndef NUCLEUS_CLIQUE_REPRESENTATION_H_
#define NUCLEUS_CLIQUE_REPRESENTATION_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/clique/compressed_csr_space.h"
#include "src/clique/csr_space.h"
#include "src/clique/spaces.h"
#include "src/common/cancel.h"
#include "src/common/fault_injection.h"
#include "src/common/status.h"
#include "src/common/timer.h"
#include "src/common/types.h"

namespace nucleus {

/// Which rungs of the ladder a run may use (Options::materialize,
/// PeelOptions::materialize).
enum class Materialize {
  kAuto,        // CSR -> compressed -> fly, budget-gated (default)
  kOn,          // always the CSR arena, ignoring the budget
  kOff,         // always on the fly (paper Section 5 behavior)
  kCompressed,  // the compressed arena, budget-gated, else on the fly
};

/// The representations, in the order kAuto tries them.
enum class Rung { kCsr, kCompressed, kFly };

/// The engine a space is resolved for; only kAuto tells them apart.
enum class LadderConsumer { kLocal, kPeel };

/// The materialization policy of one run.
struct LadderPolicy {
  Materialize mode = Materialize::kAuto;
  std::uint64_t budget_bytes = std::uint64_t{512} << 20;
  LadderConsumer consumer = LadderConsumer::kLocal;
};

/// What the ladder built for one base space and what it learned on the
/// way. At most one arena is held: the uncompressed one wins.
template <typename Space>
struct LadderState {
  std::optional<CsrSpace<Space>> csr;
  std::optional<CompressedCsrSpace<Space>> compressed;
  // Largest budgets a build failed under, per rung, so hopeless builds are
  // not retried; separate memos keep a failed CSR build from blocking the
  // compressed rung.
  std::uint64_t failed_csr = 0;
  std::uint64_t failed_compressed = 0;
  // d_s for the fly rung: a failed build's by-product, else counted once.
  std::vector<Degree> fly_degrees;
};

/// What one ResolveRepresentation call built, for the caller's counters.
struct LadderBuild {
  Rung built = Rung::kFly;  // kFly: nothing was built
  bool degraded = false;    // the build's half-deadline share ran out
  double seconds = 0.0;     // wall time of the build that succeeded
};

namespace internal {

/// A space that already is an arena runs as given.
template <typename T>
struct IsMaterialized : std::false_type {};
template <typename S>
struct IsMaterialized<CsrSpace<S>> : std::true_type {};
template <typename S>
struct IsMaterialized<CompressedCsrSpace<S>> : std::true_type {};

/// The first rung `policy` tries for a base space of type Space (kFly:
/// the policy never builds).
template <typename Space>
Rung FirstRung(const LadderPolicy& policy) {
  switch (policy.mode) {
    case Materialize::kOn:
      return Rung::kCsr;
    case Materialize::kCompressed:
      return Rung::kCompressed;
    case Materialize::kOff:
      return Rung::kFly;
    case Materialize::kAuto:
      break;
  }
  const bool stays_fly = std::is_same_v<Space, CoreSpace> ||
                         policy.consumer == LadderConsumer::kPeel;
  return stays_fly ? Rung::kFly : Rung::kCsr;
}

}  // namespace internal

/// The rung an arena already in `state` serves: it serves every mode but
/// kOff, the uncompressed arena first. kFly when nothing is held (or the
/// mode is kOff). Never builds: this is all the hierarchy build and repair
/// consult.
template <typename Space>
Rung HeldRung(const LadderState<Space>& state, Materialize mode) {
  if (mode == Materialize::kOff) return Rung::kFly;
  if (state.csr) return Rung::kCsr;
  if (state.compressed) return Rung::kCompressed;
  return Rung::kFly;
}

/// Picks the rung a run over `base` uses, building into *state what it
/// needs. The held rung (HeldRung) wins; otherwise the policy's rungs are
/// tried in order (a rung whose memo says it failed under at least this
/// budget is skipped), and the fly rung gets its d_s.
/// Returns the stop status when ctl stopped, or the injected failure of
/// the `arena_build` / `compressed_arena_build` fault points; *build
/// reports what was built either way.
template <typename Space>
StatusOr<Rung> ResolveRepresentation(const Space& base,
                                     const LadderPolicy& policy,
                                     int threads, RunControl ctl,
                                     LadderState<Space>* state,
                                     LadderBuild* build) {
  static_assert(!internal::IsMaterialized<Space>::value,
                "a materialized space runs as given");
  Rung rung = HeldRung(*state, policy.mode);
  const Rung first = internal::FirstRung<Space>(policy);
  if (rung == Rung::kFly && first != Rung::kFly) {
    const std::uint64_t budget = policy.mode == Materialize::kOn
                                     ? std::numeric_limits<std::uint64_t>::max()
                                     : policy.budget_bytes;
    RunControl build_ctl = ctl;
    if (ctl.CanStop() && !ctl.deadline().IsInfinite()) {
      build_ctl = ctl.WithDeadline(Deadline::After(
          std::max<std::int64_t>(1, ctl.deadline().RemainingMs() / 2)));
    }
    // A build that failed without a stop either ran out of its deadline
    // share (degrade to the fly rung) or exceeded the budget (memoize it,
    // and keep its counted d_s for the fly rung). Nothing partial is kept.
    std::vector<Degree> degrees;
    const auto note_failure = [&](std::uint64_t* memo) {
      if (build_ctl.CanStop() && build_ctl.ShouldStop()) {
        build->degraded = true;
        return;
      }
      *memo = budget;
      if (state->fly_degrees.empty()) state->fly_degrees = std::move(degrees);
    };
    if (first == Rung::kCsr && budget > state->failed_csr) {
      NUCLEUS_FAULT_POINT("arena_build");
      const Timer t;
      state->csr = CsrSpace<Space>::TryBuild(base, threads, budget,
                                             &degrees, build_ctl);
      if (state->csr) {
        build->seconds = t.Seconds();
        state->failed_csr = 0;
        rung = Rung::kCsr;
      } else if (ctl.CanStop() && ctl.ShouldStop()) {
        return ctl.StopStatus();
      } else {
        note_failure(&state->failed_csr);
      }
    }
    if (rung == Rung::kFly && !build->degraded &&
        policy.mode != Materialize::kOn &&
        budget > state->failed_compressed) {
      NUCLEUS_FAULT_POINT("compressed_arena_build");
      const Timer t;
      state->compressed = CompressedCsrSpace<Space>::TryBuild(
          base, threads, budget, &degrees, build_ctl);
      if (state->compressed) {
        build->seconds = t.Seconds();
        state->failed_compressed = 0;
        rung = Rung::kCompressed;
      } else if (ctl.CanStop() && ctl.ShouldStop()) {
        return ctl.StopStatus();
      } else {
        note_failure(&state->failed_compressed);
      }
    }
    build->built = rung;
  }
  if (rung == Rung::kFly && state->fly_degrees.empty()) {
    state->fly_degrees = base.InitialDegrees(threads);
  }
  if (ctl.CanStop() && ctl.ShouldStop()) return ctl.StopStatus();
  return rung;
}

/// The d_s of the representation `rung` names (a copy: the state keeps
/// its own).
template <typename Space>
std::vector<Degree> RungDegrees(Rung rung, const LadderState<Space>& state) {
  switch (rung) {
    case Rung::kCsr:
      return state.csr->InitialDegrees();
    case Rung::kCompressed:
      return state.compressed->InitialDegrees();
    case Rung::kFly:
      break;
  }
  return state.fly_degrees;
}

/// Calls fn on the representation `rung` names: an arena in `state`, or
/// `base` itself for the fly rung.
template <typename Space, typename Fn>
decltype(auto) VisitRung(Rung rung, const Space& base,
                         const LadderState<Space>& state, Fn&& fn) {
  switch (rung) {
    case Rung::kCsr:
      return fn(*state.csr);
    case Rung::kCompressed:
      return fn(*state.compressed);
    case Rung::kFly:
      break;
  }
  return fn(base);
}

/// The engines' entry point: runs fn(representation, d_s) on the rung the
/// ladder picks for `space` (an arena passed in runs as given) and returns
/// its result. A run that stopped or hit an injected fault returns a
/// Result holding only the status: no partial payload escapes.
template <typename Space, typename Fn>
auto VisitRepresentation(const Space& space, const LadderPolicy& policy,
                         int threads, RunControl ctl, Fn&& fn) {
  using Result = std::invoke_result_t<Fn&, const Space&, std::vector<Degree>>;
  const auto status_only = [](Status status) {
    Result r;
    r.status = std::move(status);
    return r;
  };
  Result result;
  if constexpr (internal::IsMaterialized<Space>::value) {
    result = fn(space, space.InitialDegrees(threads));
  } else {
    LadderState<Space> state;
    LadderBuild build;
    const StatusOr<Rung> rung =
        ResolveRepresentation(space, policy, threads, ctl, &state, &build);
    if (!rung.ok()) return status_only(rung.status());
    std::vector<Degree> degrees = *rung == Rung::kFly
                                      ? std::move(state.fly_degrees)
                                      : RungDegrees(*rung, state);
    result = VisitRung(*rung, space, state, [&](const auto& s) {
      return fn(s, std::move(degrees));
    });
  }
  if (!result.status.ok()) return status_only(std::move(result.status));
  return result;
}

}  // namespace nucleus

#endif  // NUCLEUS_CLIQUE_REPRESENTATION_H_
