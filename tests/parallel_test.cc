#include "src/common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace nucleus {
namespace {

TEST(ParallelFor, CoversAllIndicesSequential) {
  std::vector<int> hits(100, 0);
  ParallelFor(hits.size(), 1, [&](std::size_t i) { hits[i]++; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParallelFor, CoversAllIndicesDynamic) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(
      hits.size(), 4, [&](std::size_t i) { hits[i].fetch_add(1); },
      Schedule::kDynamic, 7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, CoversAllIndicesStatic) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(
      hits.size(), 4, [&](std::size_t i) { hits[i].fetch_add(1); },
      Schedule::kStatic);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRange) {
  bool called = false;
  ParallelFor(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(hits.size(), 16, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SumReduction) {
  std::atomic<long long> sum{0};
  const std::size_t n = 10000;
  ParallelFor(n, 8, [&](std::size_t i) {
    sum.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ParallelBlocks, PartitionIsDisjointAndComplete) {
  std::vector<std::atomic<int>> hits(997);  // prime: uneven blocks
  ParallelBlocks(hits.size(), 4,
                 [&](int /*t*/, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) {
                     hits[i].fetch_add(1);
                   }
                 });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelBlocks, ThreadIndicesDistinct) {
  std::vector<std::atomic<int>> seen(4);
  for (auto& s : seen) s = 0;
  ParallelBlocks(4000, 4, [&](int t, std::size_t, std::size_t) {
    seen[t].fetch_add(1);
  });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ParallelChunks, FixedChunksCoverRangeOnce) {
  const std::size_t n = 997;  // prime: short last chunk
  const std::size_t width = 16;
  std::vector<std::atomic<int>> hits(n);
  std::vector<std::atomic<int>> chunk_calls((n + width - 1) / width);
  std::atomic<bool> bad{false};
  ParallelChunks(n, width, 4,
                 [&](int worker, std::size_t c, std::size_t begin,
                     std::size_t end) {
                   if (worker < 0 || worker >= 4 || begin != c * width ||
                       end != std::min(n, begin + width)) {
                     bad.store(true);
                   }
                   chunk_calls[c].fetch_add(1);
                   for (std::size_t i = begin; i < end; ++i) {
                     hits[i].fetch_add(1);
                   }
                 });
  EXPECT_FALSE(bad.load());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  for (const auto& c : chunk_calls) EXPECT_EQ(c.load(), 1);
  bool called = false;
  ParallelChunks(0, width, 4,
                 [&](int, std::size_t, std::size_t, std::size_t) {
                   called = true;
                 });
  EXPECT_FALSE(called);
}

TEST(HardwareThreads, AtLeastOne) {
  EXPECT_GE(HardwareThreads(), 1);
}

}  // namespace
}  // namespace nucleus
