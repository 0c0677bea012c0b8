// Unified peel engine: the exact (Algorithm 1) peeling decomposition over
// any (r,s) clique space, behind one API with two interchangeable
// strategies:
//
//  - kSequential — the classic bucket-queue peel (Batagelj-Zaversnik):
//    extract one minimum-degree r-clique at a time, clamped-decrement the
//    co-members of its surviving s-cliques. O(n + total s-clique size),
//    strictly single-threaded.
//
//  - kParallel — level-synchronous frontier peel (ParK/PKC style): find the
//    current minimum level, claim the WHOLE frontier of r-cliques at that
//    level, process them in one parallel round (atomic clamped decrements
//    over an AtomicDegreeArray), and cascade sub-rounds until the level is
//    exhausted. Every frontier round runs on the persistent thread pool via
//    ParallelForWorker. kappa is bitwise-identical to the sequential
//    strategy (it is unique, Theorems 1-3; peel_engine_test asserts the
//    equality property across spaces, threads, and materialization).
//
// Both strategies are liveness-aware: a space whose id range contains
// tombstoned ids (patched post-commit indices expose LiveRFlags()) gets
// those ids pinned at kappa = 0 and excluded from the extraction order and
// the level partition, so hierarchies built on top never see phantom
// members.
//
// Besides kappa, the engine reports the LEVEL PARTITION of the peel —
// `order` (live r-cliques in non-decreasing kappa order) segmented into
// equal-kappa runs — which is exactly the structure hierarchy construction
// consumes (BuildHierarchy(space, PeelResult) skips the re-bucketing pass).
//
// Correctness of the parallel rounds: when several members of one s-clique
// are peeled in the same round, the s-clique must decrement each surviving
// co-member EXACTLY once (sequentially, the first extracted member destroys
// it; the clamp makes the decrements aimed at the other same-level members
// no-ops). The round rule reproduces that: an s-clique is skipped if any
// member was claimed in an earlier round (already destroyed), and among the
// members claimed in the current round only the minimum id performs the
// decrements, targeting only still-unclaimed members.
#ifndef NUCLEUS_PEEL_PEEL_ENGINE_H_
#define NUCLEUS_PEEL_PEEL_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/clique/representation.h"
#include "src/clique/spaces.h"
#include "src/common/atomic_frontier.h"
#include "src/common/bucket_queue.h"
#include "src/common/cancel.h"
#include "src/common/parallel.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace nucleus {

/// Which peel implementation runs. Both produce identical kappa and level
/// partitions; they differ only in wall-clock shape.
enum class PeelStrategy {
  kAuto,        // kParallel when threads > 1, else kSequential
  kSequential,  // bucket-queue peel, one extraction at a time
  kParallel,    // level-synchronous frontier peel on the thread pool
};

/// Execution knobs of a peel run. Default reproduces the paper's sequential
/// on-the-fly peel.
struct PeelOptions {
  PeelStrategy strategy = PeelStrategy::kAuto;
  /// Worker threads for the parallel strategy (and a materializing build).
  /// <= 1 runs every round inline.
  int threads = 1;
  /// Materialization ladder policy (representation.h); kAuto keeps a peel
  /// on the fly, kOn / kCompressed build an arena first.
  Materialize materialize = Materialize::kOff;
  std::uint64_t materialize_budget_bytes = std::uint64_t{512} << 20;
  /// Wall-clock budget for the whole run (ms; 0 = unbounded) and optional
  /// cancellation source — same contract as Options (local/options.h).
  /// A stopped run reports PeelResult::status and its payload must be
  /// discarded.
  std::int64_t deadline_ms = 0;
  const CancelToken* cancel_token = nullptr;

  RunControl MakeControl() const {
    return MakeRunControl(cancel_token, deadline_ms);
  }
};

/// One equal-kappa segment of PeelResult::order: the r-cliques whose kappa
/// is `k` occupy order[begin, end). Levels are emitted in strictly
/// increasing k.
struct PeelLevel {
  Degree k = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Output of a peeling run.
struct PeelResult {
  /// kappa[r] = the kappa_s index of r-clique r (Definition 4). Indexed by
  /// the space's id range; tombstoned (dead) ids are pinned at 0.
  std::vector<Degree> kappa;
  /// Live r-cliques in peel (non-decreasing kappa) order. On a pristine
  /// (tombstone-free) space this covers every id and is a certified
  /// best-case processing order for AND (Theorem 4; AndOrder::kGiven
  /// requires exactly that full permutation — a patched space's order
  /// omits dead ids and cannot be fed to kGiven). For the parallel
  /// strategy each level's segment is sorted ascending by id, so the
  /// result is deterministic regardless of thread interleaving.
  std::vector<CliqueId> order;
  /// Partition of `order` into equal-kappa runs — the level structure that
  /// hierarchy construction consumes directly.
  std::vector<PeelLevel> levels;
  /// OK for a completed run; kCancelled / kDeadlineExceeded when the run
  /// was stopped mid-peel, in which case kappa/order/levels are partial
  /// garbage and the caller must discard the whole result.
  Status status;
};

namespace internal {

/// Liveness flags of a space's r-clique id range: empty means every id is
/// live. Spaces over patched (tombstoned) indices expose LiveRFlags();
/// anything else — including user-defined spaces — is fully live.
template <typename Space>
std::vector<std::uint8_t> SpaceLiveFlags(const Space& space) {
  if constexpr (requires { space.LiveRFlags(); }) {
    return space.LiveRFlags();
  } else {
    return {};
  }
}

/// Sequential strategy: the bucket-queue peel. Consumes the initial
/// degrees destructively (they seed the queue).
template <typename Space>
PeelResult PeelSequentialImpl(const Space& space, std::vector<Degree> ds,
                              const std::vector<std::uint8_t>& live,
                              RunControl ctl = {}) {
  const std::size_t n = ds.size();
  BucketQueue queue(ds);
  PeelResult result;
  result.kappa.assign(n, 0);
  result.order.reserve(n);
  const bool all_live = live.empty();
  const bool can_stop = ctl.CanStop();
  CheckEvery<256> poll;
  while (!queue.Empty()) {
    if (can_stop && poll.Due() && ctl.ShouldStop()) {
      result.status = ctl.StopStatus();
      return result;
    }
    const CliqueId r = queue.ExtractMin();
    // Tombstoned ids of a patched index sit at degree 0; their kappa is
    // pinned at 0 and they never appear in the order or level partition.
    if (!all_live && !live[r]) continue;
    const Degree k = queue.Key(r);
    result.kappa[r] = k;
    if (result.levels.empty() || result.levels.back().k != k) {
      result.levels.push_back(
          PeelLevel{k, result.order.size(), result.order.size()});
    }
    result.order.push_back(r);
    result.levels.back().end = result.order.size();
    space.ForEachSClique(r, [&](std::span<const CliqueId> co) {
      // Skip s-cliques already destroyed by an earlier extraction.
      for (CliqueId c : co) {
        if (queue.Extracted(c)) return;
      }
      for (CliqueId c : co) {
        queue.DecrementKeyClamped(c, k);
      }
    });
  }
  return result;
}

/// Parallel strategy: level-synchronous frontier peel. See the file
/// comment for the exactly-once decrement rule.
template <typename Space>
PeelResult PeelParallelImpl(const Space& space, std::vector<Degree> ds,
                            const std::vector<std::uint8_t>& live,
                            int threads, RunControl ctl = {}) {
  const std::size_t n = ds.size();
  PeelResult result;
  result.kappa.assign(n, 0);
  if (n == 0) return result;
  result.order.reserve(n);

  // Stop machinery: workers poll amortized inside rounds and raise the
  // shared flag; the round barrier turns it into a Status. All of it is
  // skipped (can_stop false) when no deadline/token was supplied.
  const bool can_stop = ctl.CanStop();
  AbortFlag abort;
  std::vector<CheckEvery<64>> polls(
      static_cast<std::size_t>(std::max(threads, 1)));

  AtomicDegreeArray deg(ds);
  // round_of[r]: the frontier round that claimed r. kAliveRound = not yet
  // claimed. Tombstoned ids are pre-claimed at round 0 (before any real
  // round) so they are never collected; real rounds start at 1. Written
  // only between parallel rounds (claim phase) — the dispatch barrier
  // makes it read-only during processing.
  constexpr std::uint32_t kAliveRound =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> round_of(n, kAliveRound);
  std::size_t remaining = n;
  if (!live.empty()) {
    for (std::size_t r = 0; r < n; ++r) {
      if (!live[r]) {
        round_of[r] = 0;
        --remaining;
      }
    }
  }

  const int workers = std::max(threads, 1);
  FrontierBuffers next(workers);
  std::vector<CliqueId> frontier;
  Degree level = 0;
  std::uint32_t round = 1;

  // The still-alive ids, compacted as levels drain them, so per-level
  // scans shrink with the peel instead of re-walking [0, n). One fused
  // pass per level finds the minimum alive degree AND collects its
  // frontier; small remainders scan inline, large ones scan blocked on
  // the pool with per-worker scratch.
  std::vector<CliqueId> alive_ids;
  alive_ids.reserve(remaining);
  for (std::size_t r = 0; r < n; ++r) {
    if (round_of[r] == kAliveRound) {
      alive_ids.push_back(static_cast<CliqueId>(r));
    }
  }
  struct ScanScratch {
    std::vector<CliqueId> survivors;
    std::vector<CliqueId> candidates;
    Degree min = std::numeric_limits<Degree>::max();
  };
  std::vector<ScanScratch> scan(static_cast<std::size_t>(workers));
  std::vector<CliqueId> alive_next;
  constexpr std::size_t kParallelScanThreshold = 1u << 15;

  while (remaining > 0) {
    // Next level = minimum degree over the still-alive ids. Every alive
    // degree exceeds the previous level (its frontier cascade drained all
    // ids at or below it, and the clamp stops decrements from undershooting
    // it), so levels strictly increase.
    Degree min_deg = std::numeric_limits<Degree>::max();
    frontier.clear();
    if (threads <= 1 || alive_ids.size() < kParallelScanThreshold) {
      std::size_t w = 0;
      for (const CliqueId r : alive_ids) {
        if (round_of[r] != kAliveRound) continue;  // claimed: drop
        alive_ids[w++] = r;
        const Degree d = deg.Load(r);
        if (d < min_deg) {
          min_deg = d;
          frontier.clear();
          frontier.push_back(r);
        } else if (d == min_deg) {
          frontier.push_back(r);
        }
      }
      alive_ids.resize(w);
    } else {
      // Reset every scratch slot BEFORE dispatching: ParallelBlocks may
      // run on fewer workers than `workers` (notably worker 0 only, when
      // nested inside another parallel region), and the merge below folds
      // every slot — a stale or default-constructed min would fabricate
      // an empty frontier and spin the level loop forever.
      for (auto& s : scan) {
        s.survivors.clear();
        s.candidates.clear();
        s.min = std::numeric_limits<Degree>::max();
      }
      ParallelBlocks(alive_ids.size(), threads,
                     [&](int w, std::size_t begin, std::size_t end) {
                       auto& s = scan[static_cast<std::size_t>(w)];
                       for (std::size_t i = begin; i < end; ++i) {
                         const CliqueId r = alive_ids[i];
                         if (round_of[r] != kAliveRound) continue;
                         s.survivors.push_back(r);
                         const Degree d = deg.Load(r);
                         if (d < s.min) {
                           s.min = d;
                           s.candidates.clear();
                           s.candidates.push_back(r);
                         } else if (d == s.min) {
                           s.candidates.push_back(r);
                         }
                       }
                     });
      alive_next.clear();
      for (const auto& s : scan) {
        min_deg = std::min(min_deg, s.min);
        alive_next.insert(alive_next.end(), s.survivors.begin(),
                          s.survivors.end());
      }
      for (const auto& s : scan) {
        if (s.min == min_deg) {
          frontier.insert(frontier.end(), s.candidates.begin(),
                          s.candidates.end());
        }
      }
      std::swap(alive_ids, alive_next);
    }
    level = std::max(level, min_deg);
    const std::size_t level_begin = result.order.size();

    while (!frontier.empty()) {
      // Claim phase (between dispatches): freeze kappa and stamp the round
      // so the processing phase reads a consistent membership snapshot.
      for (CliqueId r : frontier) {
        round_of[r] = round;
        result.kappa[r] = level;
      }

      // Processing phase: destroy each frontier member's s-cliques once.
      // Cascade tails are usually a handful of items; dispatching the pool
      // for them costs more than the work, so small rounds run inline
      // (kInlineFrontier) and only bulk rounds fan out.
      const auto process = [&](int w, std::size_t idx) {
        if (can_stop) {
          if (abort.Raised()) return;
          if (polls[static_cast<std::size_t>(w)].Due() && ctl.ShouldStop()) {
            abort.Raise();
            return;
          }
        }
        const CliqueId r = frontier[idx];
        space.ForEachSClique(r, [&](std::span<const CliqueId> co) {
          // Destroyed in an earlier round, or another same-round member
          // with a smaller id owns this s-clique.
          for (CliqueId c : co) {
            const std::uint32_t rc = round_of[c];
            if (rc < round) return;
            if (rc == round && c < r) return;
          }
          for (CliqueId c : co) {
            if (round_of[c] != kAliveRound) continue;  // clamp no-op
            if (deg.DecrementClamped(c, level)) {
              next.Push(w, c);  // unique: the floor+1 -> floor CAS
            }
          }
        });
      };
      constexpr std::size_t kInlineFrontier = 512;
      if (frontier.size() <= kInlineFrontier) {
        for (std::size_t idx = 0; idx < frontier.size(); ++idx) {
          process(0, idx);
        }
      } else {
        ParallelForWorker(frontier.size(), threads, process, /*chunk=*/16);
      }

      // A raised abort flag means items were skipped and the degree state
      // is inconsistent — discard everything and report why.
      if (can_stop && (abort.Raised() || ctl.ShouldStop())) {
        result.status = ctl.StopStatus();
        return result;
      }

      remaining -= frontier.size();
      result.order.insert(result.order.end(), frontier.begin(),
                          frontier.end());
      frontier.clear();
      next.Drain(&frontier);
      ++round;
    }

    // Close the level: sort its segment so the output is deterministic
    // regardless of which worker claimed which id.
    std::sort(result.order.begin() + static_cast<std::ptrdiff_t>(level_begin),
              result.order.end());
    result.levels.push_back(
        PeelLevel{level, level_begin, result.order.size()});
  }
  return result;
}

/// Strategy dispatch over a concrete (possibly materialized) space, starting
/// from its d_s (`ds`, consumed; must equal space.InitialDegrees()).
template <typename Space>
PeelResult PeelDispatch(const Space& space, const PeelOptions& options,
                        std::vector<Degree> ds, RunControl ctl = {}) {
  const std::vector<std::uint8_t> live = SpaceLiveFlags(space);
  const bool parallel =
      options.strategy == PeelStrategy::kParallel ||
      (options.strategy == PeelStrategy::kAuto && options.threads > 1);
  return parallel ? PeelParallelImpl(space, std::move(ds), live,
                                     options.threads, ctl)
                  : PeelSequentialImpl(space, std::move(ds), live, ctl);
}

}  // namespace internal

/// Runs the exact peeling decomposition (Algorithm 1) over a clique space
/// with the selected strategy, on the representation the materialization
/// ladder picks for options.materialize (representation.h).
template <typename Space>
PeelResult PeelDecomposition(const Space& space,
                             const PeelOptions& options) {
  const RunControl ctl = options.MakeControl();
  return VisitRepresentation(
      space,
      LadderPolicy{options.materialize, options.materialize_budget_bytes,
                   LadderConsumer::kPeel},
      options.threads, ctl, [&](const auto& s, std::vector<Degree> ds) {
        return internal::PeelDispatch(s, options, std::move(ds), ctl);
      });
}

/// Back-compat form: the paper's sequential on-the-fly peel.
template <typename Space>
PeelResult PeelDecomposition(const Space& space) {
  return PeelDecomposition(space, PeelOptions{});
}

}  // namespace nucleus

#endif  // NUCLEUS_PEEL_PEEL_ENGINE_H_
