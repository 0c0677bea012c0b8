// Minimal shared-memory parallel runtime. The paper parallelizes the
// per-r-clique loops with OpenMP and argues (Section 4.4) for *dynamic*
// scheduling because the notification mechanism makes per-item work highly
// skewed. We reproduce those semantics on top of a persistent ThreadPool
// (thread_pool.h): the pool's workers are spawned once and reused across
// every sweep of every iteration, and the loop body is a template parameter,
// so per-item dispatch is a direct call — no std::function, no per-call
// thread spawn.
#ifndef NUCLEUS_COMMON_PARALLEL_H_
#define NUCLEUS_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <type_traits>

#include "src/common/thread_pool.h"

namespace nucleus {

/// Scheduling policy for ParallelFor, mirroring OpenMP's static/dynamic.
enum class Schedule {
  kStatic,   // contiguous ranges, one per thread
  kDynamic,  // atomic chunk grabbing (default in all paper algorithms)
};

/// ParallelFor with the worker index exposed: runs body(worker, i) for i in
/// [0, n) under dynamic chunk-grabbing scheduling. The worker index is in
/// [0, min(threads, n)) and stable for the whole region, so the body can own
/// per-worker scratch (e.g. frontier append buffers) without locks. Inline
/// (worker 0 only) when threads <= 1 or inside another parallel region.
template <typename Body>
void ParallelForWorker(std::size_t n, int threads, Body&& body,
                       std::size_t chunk = 256) {
  if (n == 0) return;
  const std::size_t t =
      threads <= 1 ? 1 : std::min<std::size_t>(static_cast<std::size_t>(threads), n);
  if (t <= 1 || ThreadPool::InWorker()) {
    for (std::size_t i = 0; i < n; ++i) body(0, i);
    return;
  }
  using B = std::remove_reference_t<Body>;
  struct Ctx {
    std::atomic<std::size_t> next{0};
    std::size_t n;
    std::size_t chunk;
    B* body;
  } ctx;
  ctx.n = n;
  ctx.chunk = chunk == 0 ? 1 : chunk;
  ctx.body = &body;
  ThreadPool::Get().Dispatch(
      static_cast<int>(t),
      [](void* p, int worker) {
        auto* c = static_cast<Ctx*>(p);
        for (;;) {
          const std::size_t begin =
              c->next.fetch_add(c->chunk, std::memory_order_relaxed);
          if (begin >= c->n) return;
          const std::size_t end = std::min(begin + c->chunk, c->n);
          for (std::size_t i = begin; i < end; ++i) (*c->body)(worker, i);
        }
      },
      &ctx);
}

/// Runs body(i) for i in [0, n) on `threads` workers drawn from the
/// persistent pool (the caller participates as worker 0). If threads <= 1,
/// or when called from inside another parallel region, the loop runs
/// inline. `chunk` is the dynamic grab size; the dynamic schedule is
/// ParallelForWorker with the worker index dropped.
template <typename Body>
void ParallelFor(std::size_t n, int threads, Body&& body,
                 Schedule schedule = Schedule::kDynamic,
                 std::size_t chunk = 256) {
  if (n == 0) return;
  if (schedule == Schedule::kDynamic) {
    ParallelForWorker(n, threads,
                      [&body](int /*worker*/, std::size_t i) { body(i); },
                      chunk);
    return;
  }
  const std::size_t t =
      threads <= 1 ? 1 : std::min<std::size_t>(static_cast<std::size_t>(threads), n);
  if (t <= 1 || ThreadPool::InWorker()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  using B = std::remove_reference_t<Body>;
  struct Ctx {
    std::size_t n;
    std::size_t per;
    B* body;
  } ctx{n, (n + t - 1) / t, &body};
  ThreadPool::Get().Dispatch(
      static_cast<int>(t),
      [](void* p, int worker) {
        auto* c = static_cast<Ctx*>(p);
        const std::size_t begin =
            std::min(static_cast<std::size_t>(worker) * c->per, c->n);
        const std::size_t end = std::min(begin + c->per, c->n);
        for (std::size_t i = begin; i < end; ++i) (*c->body)(i);
      },
      &ctx);
}

/// Runs body(worker, chunk, begin, end) over [0, n) cut into fixed
/// `width`-wide chunks that workers claim dynamically: chunk c always
/// covers [c * width, min(n, (c + 1) * width)), whatever the thread count,
/// so per-chunk results are deterministic. For skewed per-item work, where
/// ParallelBlocks' one contiguous block per thread leaves threads idle.
/// The worker index is as in ParallelForWorker.
template <typename Body>
void ParallelChunks(std::size_t n, std::size_t width, int threads,
                    Body&& body) {
  const std::size_t w = width == 0 ? 1 : width;
  ParallelForWorker(
      (n + w - 1) / w, threads,
      [&body, n, w](int worker, std::size_t c) {
        body(worker, c, c * w, std::min(n, c * w + w));
      },
      /*chunk=*/1);
}

/// Runs body(thread_index, begin, end) over a blocked partition of [0, n)
/// into min(threads, n) contiguous blocks. Useful when the body wants
/// thread-local scratch state indexed by thread_index.
template <typename Body>
void ParallelBlocks(std::size_t n, int threads, Body&& body) {
  if (n == 0) return;
  const std::size_t t =
      threads <= 1 ? 1 : std::min<std::size_t>(static_cast<std::size_t>(threads), n);
  if (t <= 1 || ThreadPool::InWorker()) {
    body(0, std::size_t{0}, n);
    return;
  }
  using B = std::remove_reference_t<Body>;
  struct Ctx {
    std::size_t n;
    std::size_t per;
    B* body;
  } ctx{n, (n + t - 1) / t, &body};
  ThreadPool::Get().Dispatch(
      static_cast<int>(t),
      [](void* p, int worker) {
        auto* c = static_cast<Ctx*>(p);
        const std::size_t begin =
            std::min(static_cast<std::size_t>(worker) * c->per, c->n);
        const std::size_t end = std::min(begin + c->per, c->n);
        (*c->body)(worker, begin, end);
      },
      &ctx);
}

}  // namespace nucleus

#endif  // NUCLEUS_COMMON_PARALLEL_H_
