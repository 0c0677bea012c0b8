// Materialized clique-space adapter. The on-the-fly spaces (spaces.h,
// generic_space.h) re-derive s-clique membership from adjacency
// intersections on every sweep of every SND/AND iteration — the paper's
// Section 5 design. CsrSpace<Space> trades memory for that compute: one
// parallel build pass enumerates every s-clique once and stores all
// co-member lists in a flat CSR arena (offsets[] + co_members[], fixed
// arity = C(s,r)-1 ids per s-clique), so each subsequent sweep is a
// contiguous, branch-light scan. The adapter models the same
// NumRCliques/InitialDegrees/ForEachSClique concept, so every generic
// engine (peeling, SND, AND, degree levels, hierarchy) consumes it
// unchanged. Whether a run builds one is decided in one place, the
// materialization ladder (representation.h).
#ifndef NUCLEUS_CLIQUE_CSR_SPACE_H_
#define NUCLEUS_CLIQUE_CSR_SPACE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/clique/generic_space.h"
#include "src/clique/spaces.h"
#include "src/common/cancel.h"
#include "src/common/parallel.h"
#include "src/common/types.h"

namespace nucleus {

/// Co-member arity of a space: every s-clique of an r-clique is reported as
/// C(s,r) - 1 co-member ids.
inline int CoMemberArity(const CoreSpace&) { return 1; }
inline int CoMemberArity(const TrussSpace&) { return 2; }
inline int CoMemberArity(const Nucleus34Space&) { return 3; }
int CoMemberArity(const GenericRsSpace& space);

namespace internal {

/// The flat storage built by the space-specific builders: degrees (d_s per
/// r-clique, a build by-product), offsets in co-member units, and the
/// co-member arena (arity consecutive ids per s-clique).
struct CsrArena {
  std::vector<Degree> degrees;
  std::vector<std::uint64_t> offsets;
  std::vector<CliqueId> co_members;
};

/// Estimated resident bytes of the arena for n r-cliques whose s-clique
/// count sums to total_s.
inline std::uint64_t CsrArenaBytes(std::size_t n, std::uint64_t total_s,
                                   int arity) {
  return total_s * static_cast<std::uint64_t>(arity) * sizeof(CliqueId) +
         (n + 1) * sizeof(std::uint64_t);
}

/// Generic two-pass builder over any space: counts via InitialDegrees, then
/// re-enumerates per r-clique into the arena. Returns false (leaving the
/// counted degrees in arena->degrees) when the arena would exceed
/// budget_bytes. The canonical spaces have cheaper specialized overloads in
/// csr_space.cc that avoid its per-member adjacency intersections and id
/// lookups.
template <typename Space>
bool GenericBuildCsrArena(const Space& space, int threads,
                          std::uint64_t budget_bytes, int arity,
                          CsrArena* arena, RunControl ctl = {}) {
  const std::size_t n = space.NumRCliques();
  arena->degrees = space.InitialDegrees(threads);
  if (ctl.CanStop() && ctl.ShouldStop()) return false;
  std::uint64_t total_s = 0;
  for (Degree d : arena->degrees) total_s += d;
  if (CsrArenaBytes(n, total_s, arity) > budget_bytes) return false;
  arena->offsets.assign(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    arena->offsets[r + 1] =
        arena->offsets[r] +
        static_cast<std::uint64_t>(arena->degrees[r]) * arity;
  }
  arena->co_members.resize(arena->offsets[n]);
  const bool can_stop = ctl.CanStop();
  AbortFlag abort;
  ParallelFor(n, threads, [&](std::size_t r) {
    if (can_stop && PollStopAmortized(ctl, abort)) return;
    std::uint64_t pos = arena->offsets[r];
    space.ForEachSClique(static_cast<CliqueId>(r),
                         [&](std::span<const CliqueId> co) {
                           assert(static_cast<int>(co.size()) == arity);
                           for (CliqueId c : co) arena->co_members[pos++] = c;
                         });
  });
  if (can_stop && ctl.ShouldStop()) return false;
  return true;
}

}  // namespace internal

// Specialized arena builders (csr_space.cc), which also yield the initial
// degrees for free. The truss builder enumerates triangles globally once
// (oriented enumeration) and scatters each into its three edges' ranges.
// The (3,4) builder lists every triangle on its three edges and finds a
// triangle's 4-cliques by merging its edges' lists, which carry the
// co-member triangle ids: no id lookups, and each triangle writes only its
// own range, so the arena is identical at every thread count. All return
// false without building either when the arena would exceed budget_bytes
// (degrees contract honored) or when `ctl` stopped the build (degrees
// possibly partial — callers check ctl before trusting anything).
bool BuildCsrArena(const CoreSpace& space, int threads,
                   std::uint64_t budget_bytes, int arity,
                   internal::CsrArena* arena, RunControl ctl = {});
bool BuildCsrArena(const TrussSpace& space, int threads,
                   std::uint64_t budget_bytes, int arity,
                   internal::CsrArena* arena, RunControl ctl = {});
bool BuildCsrArena(const Nucleus34Space& space, int threads,
                   std::uint64_t budget_bytes, int arity,
                   internal::CsrArena* arena, RunControl ctl = {});
bool BuildCsrArena(const GenericRsSpace& space, int threads,
                   std::uint64_t budget_bytes, int arity,
                   internal::CsrArena* arena, RunControl ctl = {});

/// Fallback for user-defined spaces modeling the clique-space concept.
template <typename Space>
bool BuildCsrArena(const Space& space, int threads,
                   std::uint64_t budget_bytes, int arity,
                   internal::CsrArena* arena, RunControl ctl = {}) {
  return internal::GenericBuildCsrArena(space, threads, budget_bytes, arity,
                                        arena, ctl);
}

/// Arity for unknown spaces: probe the first non-empty r-clique. Spaces
/// with a known (r,s) should provide a CoMemberArity overload instead.
template <typename Space>
int CoMemberArity(const Space& space) {
  int arity = 1;
  for (std::size_t r = 0; r < space.NumRCliques(); ++r) {
    bool found = false;
    space.ForEachSClique(static_cast<CliqueId>(r),
                         [&](std::span<const CliqueId> co) {
                           arity = static_cast<int>(co.size());
                           found = true;
                         });
    if (found) return arity;
  }
  return arity;
}

template <typename Space>
class CsrSpace {
 public:
  /// Builds the arena unconditionally (no memory budget).
  explicit CsrSpace(const Space& base, int threads = 1) : base_(&base) {
    arity_ = CoMemberArity(base);
    internal::CsrArena arena;
    const bool ok =
        BuildCsrArena(base, threads,
                      std::numeric_limits<std::uint64_t>::max(), arity_,
                      &arena);
    assert(ok);
    (void)ok;
    Adopt(std::move(arena));
  }

  /// Budget-checked build. Returns std::nullopt when the arena would exceed
  /// budget_bytes; the s-clique counts computed during the attempt (== the
  /// space's InitialDegrees) are left in *degrees_out so the caller can
  /// reuse them instead of re-counting.
  ///
  /// A stoppable `ctl` also makes the build abandonable: on stop the
  /// result is std::nullopt with NO degrees contract (the partial counts
  /// are dropped) — callers distinguish the two nullopt cases by checking
  /// ctl.ShouldStop().
  static std::optional<CsrSpace> TryBuild(const Space& base, int threads,
                                          std::uint64_t budget_bytes,
                                          std::vector<Degree>* degrees_out,
                                          RunControl ctl = {}) {
    CsrSpace space(&base, CoMemberArity(base));
    internal::CsrArena arena;
    if (!BuildCsrArena(base, threads, budget_bytes, space.arity_, &arena,
                       ctl)) {
      if (ctl.CanStop() && ctl.ShouldStop()) return std::nullopt;
      if (degrees_out != nullptr) *degrees_out = std::move(arena.degrees);
      return std::nullopt;
    }
    space.Adopt(std::move(arena));
    return space;
  }

  std::size_t NumRCliques() const { return degrees_.size(); }

  /// d_s per r-clique — cached from the build, so this is free.
  std::vector<Degree> InitialDegrees(int /*threads*/ = 1) const {
    return degrees_;
  }

  /// Single-id liveness, delegated to the wrapped space (O(1)). Ids past
  /// the base's range — possible mid-patch only — default to live.
  bool IsLiveR(CliqueId r) const {
    if constexpr (requires { base_->IsLiveR(r); }) {
      return static_cast<std::size_t>(r) >= base_->NumRCliques() ||
             base_->IsLiveR(r);
    } else {
      return true;
    }
  }

  /// Liveness of the id range, delegated to the wrapped space (the session
  /// re-seats the base space on every commit, so its index liveness is
  /// current even when the arena was patched in place). Ids past the
  /// base's range — possible mid-patch only — default to live.
  std::vector<std::uint8_t> LiveRFlags() const {
    if constexpr (requires { base_->LiveRFlags(); }) {
      std::vector<std::uint8_t> live = base_->LiveRFlags();
      if (!live.empty() && live.size() < NumRCliques()) {
        live.resize(NumRCliques(), 1);
      }
      return live;
    } else {
      return {};
    }
  }

  /// Contiguous scan over the materialized co-member arena: one span of
  /// arity() ids per s-clique, no intersections, no id lookups. Once the
  /// arena has been patched, sentineled (dead) groups are skipped and
  /// patched-in groups are reported after the pristine ones.
  template <typename Fn>
  void ForEachSClique(CliqueId r, Fn&& fn) const {
    const CliqueId* base = co_members_.data();
    if (!patched_) {  // hot path: no sentinel checks, no overlay probe
      const std::uint64_t end = offsets_[r + 1];
      for (std::uint64_t p = offsets_[r]; p < end;
           p += static_cast<std::uint64_t>(arity_)) {
        fn(std::span<const CliqueId>(base + p,
                                     static_cast<std::size_t>(arity_)));
      }
      return;
    }
    if (static_cast<std::size_t>(r) + 1 < offsets_.size()) {
      const std::uint64_t end = offsets_[r + 1];
      for (std::uint64_t p = offsets_[r]; p < end;
           p += static_cast<std::uint64_t>(arity_)) {
        if (base[p] == kInvalidClique) continue;  // dead s-clique
        fn(std::span<const CliqueId>(base + p,
                                     static_cast<std::size_t>(arity_)));
      }
    }
    const auto it = overlay_.find(r);
    if (it != overlay_.end()) {
      const CliqueId* extra = it->second.data();
      for (std::size_t p = 0; p < it->second.size();
           p += static_cast<std::size_t>(arity_)) {
        fn(std::span<const CliqueId>(extra + p,
                                     static_cast<std::size_t>(arity_)));
      }
    }
  }

  /// Ids per s-clique (C(s,r) - 1).
  int arity() const { return arity_; }

  /// Applies a committed mutation in place instead of rebuilding the
  /// arena. Each s-clique is given as its full member list (arity() + 1
  /// r-clique ids, any order): for every live member r the co-member
  /// group of a `dead_s` clique is sentineled (pristine region) or erased
  /// (overlay), and a `born_s` clique's group is written into a free
  /// sentinel slot of r's pristine range when one exists, else appended
  /// to r's overlay. `dead_r` lists r-cliques that no longer exist (their
  /// whole lists are cleared; members of dead_s cliques that appear here
  /// are skipped); `num_r_cliques_now` grows the id space for patched-in
  /// r-cliques. Live per-r degrees (InitialDegrees) are maintained.
  void ApplyPatch(std::span<const std::vector<CliqueId>> dead_s,
                  std::span<const std::vector<CliqueId>> born_s,
                  std::span<const CliqueId> dead_r,
                  std::size_t num_r_cliques_now) {
    patched_ = true;
    if (num_r_cliques_now > degrees_.size()) {
      degrees_.resize(num_r_cliques_now, 0);
    }
    const std::size_t base_n = offsets_.size() - 1;
    const std::size_t arity = static_cast<std::size_t>(arity_);
    const std::unordered_set<CliqueId> dead_r_set(dead_r.begin(),
                                                  dead_r.end());
    for (CliqueId r : dead_r) {
      if (r < base_n) {
        for (std::uint64_t p = offsets_[r]; p < offsets_[r + 1]; ++p) {
          co_members_[p] = kInvalidClique;
        }
      }
      overlay_.erase(r);
      degrees_[r] = 0;
    }
    // Sorted co-member group of `members` minus r (groups are compared as
    // sets: build order and patch order may disagree on element order).
    std::vector<CliqueId> key, probe;
    const auto co_key = [&](const std::vector<CliqueId>& members,
                            CliqueId r, std::vector<CliqueId>* out) {
      out->clear();
      for (CliqueId c : members) {
        if (c != r) out->push_back(c);
      }
      std::sort(out->begin(), out->end());
    };
    for (const auto& members : dead_s) {
      for (CliqueId r : members) {
        if (dead_r_set.count(r) != 0) continue;  // list cleared wholesale
        co_key(members, r, &key);
        bool found = false;
        if (r < base_n) {
          for (std::uint64_t p = offsets_[r];
               !found && p < offsets_[r + 1]; p += arity) {
            if (co_members_[p] == kInvalidClique) continue;
            probe.assign(co_members_.begin() + static_cast<std::ptrdiff_t>(p),
                         co_members_.begin() +
                             static_cast<std::ptrdiff_t>(p + arity));
            std::sort(probe.begin(), probe.end());
            if (probe == key) {
              for (std::size_t i = 0; i < arity; ++i) {
                co_members_[p + i] = kInvalidClique;
              }
              found = true;
            }
          }
        }
        if (!found) {
          const auto it = overlay_.find(r);
          if (it != overlay_.end()) {
            auto& list = it->second;
            for (std::size_t p = 0; !found && p < list.size(); p += arity) {
              probe.assign(list.begin() + static_cast<std::ptrdiff_t>(p),
                           list.begin() +
                               static_cast<std::ptrdiff_t>(p + arity));
              std::sort(probe.begin(), probe.end());
              if (probe == key) {
                // Swap-erase the whole group block.
                std::copy(list.end() - static_cast<std::ptrdiff_t>(arity),
                          list.end(),
                          list.begin() + static_cast<std::ptrdiff_t>(p));
                list.resize(list.size() - arity);
                found = true;
              }
            }
          }
        }
        assert(found && "dead s-clique group not found in arena");
        (void)found;
        assert(degrees_[r] > 0);
        --degrees_[r];
      }
    }
    for (const auto& members : born_s) {
      for (CliqueId r : members) {
        // Reuse a sentinel slot of r's pristine range when one exists so
        // churn of the same region does not grow the overlay.
        bool placed = false;
        if (r < base_n) {
          for (std::uint64_t p = offsets_[r];
               !placed && p < offsets_[r + 1]; p += arity) {
            if (co_members_[p] != kInvalidClique) continue;
            std::size_t i = 0;
            for (CliqueId c : members) {
              if (c != r) co_members_[p + i++] = c;
            }
            placed = true;
          }
        }
        if (!placed) {
          auto& list = overlay_[r];
          for (CliqueId c : members) {
            if (c != r) list.push_back(c);
          }
        }
        ++degrees_[r];
      }
    }
  }

  /// Resident bytes of the materialized arena (including patch overlays).
  std::uint64_t MemoryBytes() const {
    std::uint64_t overlay_ids = 0;
    for (const auto& [r, list] : overlay_) overlay_ids += list.size();
    return internal::CsrArenaBytes(degrees_.size(),
                                   co_members_.size() /
                                       static_cast<std::uint64_t>(arity_),
                                   arity_) +
           overlay_ids * sizeof(CliqueId);
  }

  /// The wrapped on-the-fly space.
  const Space& base() const { return *base_; }

 private:
  CsrSpace(const Space* base, int arity) : base_(base), arity_(arity) {}

  void Adopt(internal::CsrArena arena) {
    degrees_ = std::move(arena.degrees);
    offsets_ = std::move(arena.offsets);
    co_members_ = std::move(arena.co_members);
  }

  const Space* base_;
  int arity_ = 1;
  std::vector<Degree> degrees_;  // live s-clique count per r-clique
  std::vector<std::uint64_t> offsets_;
  std::vector<CliqueId> co_members_;
  // Patch state (ApplyPatch): sentineled groups live in co_members_;
  // groups with no free slot spill here, keyed by r-clique id.
  bool patched_ = false;
  std::unordered_map<CliqueId, std::vector<CliqueId>> overlay_;
};

}  // namespace nucleus

#endif  // NUCLEUS_CLIQUE_CSR_SPACE_H_
