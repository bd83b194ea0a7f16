/** @file Unit tests for support utilities. */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "support/concurrent_cache.h"
#include "support/json.h"
#include "support/thread_pool.h"
#include "support/utils.h"

namespace scalehls {
namespace {

TEST(Support, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv(1, 5), 1);
    EXPECT_EQ(ceilDiv(0, 5), 0);
}

TEST(Support, FloorDivNegative)
{
    EXPECT_EQ(floorDiv(7, 2), 3);
    EXPECT_EQ(floorDiv(-7, 2), -4);
    EXPECT_EQ(floorDiv(-6, 2), -3);
    EXPECT_EQ(floorDiv(6, -2), -3);
}

TEST(Support, EuclidMod)
{
    EXPECT_EQ(euclidMod(7, 3), 1);
    EXPECT_EQ(euclidMod(-7, 3), 2);
    EXPECT_EQ(euclidMod(-6, 3), 0);
}

TEST(Support, Divisors)
{
    EXPECT_EQ(divisorsOf(12), (std::vector<int64_t>{1, 2, 3, 4, 6, 12}));
    EXPECT_EQ(divisorsOf(1), (std::vector<int64_t>{1}));
    EXPECT_EQ(divisorsOf(16),
              (std::vector<int64_t>{1, 2, 4, 8, 16}));
    EXPECT_TRUE(divisorsOf(0).empty());
}

TEST(Support, NextPow2)
{
    EXPECT_EQ(nextPow2(1), 1);
    EXPECT_EQ(nextPow2(3), 4);
    EXPECT_EQ(nextPow2(16), 16);
    EXPECT_EQ(nextPow2(17), 32);
}

TEST(Support, IsPow2)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(64));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(12));
}

TEST(Support, Join)
{
    EXPECT_EQ(join(std::vector<int>{1, 2, 3}, ", "), "1, 2, 3");
    EXPECT_EQ(join(std::vector<int>{}, ","), "");
}

TEST(Support, FatalThrows)
{
    EXPECT_THROW(fatal("boom"), FatalError);
}

/** Property: for any n, all divisors divide n and include 1 and n. */
class DivisorProperty : public ::testing::TestWithParam<int64_t>
{};

TEST_P(DivisorProperty, DivisorsDivide)
{
    int64_t n = GetParam();
    auto divs = divisorsOf(n);
    ASSERT_FALSE(divs.empty());
    EXPECT_EQ(divs.front(), 1);
    EXPECT_EQ(divs.back(), n);
    for (int64_t d : divs)
        EXPECT_EQ(n % d, 0) << "divisor " << d << " of " << n;
    EXPECT_TRUE(std::is_sorted(divs.begin(), divs.end()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, DivisorProperty,
                         ::testing::Values(1, 2, 7, 12, 36, 97, 128, 360,
                                           4096));

TEST(ThreadPool, ParallelForCoversEveryIndex)
{
    for (unsigned threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.size(), threads);
        std::vector<std::atomic<int>> hits(257);
        pool.parallelFor(hits.size(),
                         [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    ThreadPool pool(4);
    std::atomic<size_t> completed{0};
    EXPECT_THROW(pool.parallelFor(64,
                                  [&](size_t i) {
                                      if (i == 13)
                                          throw std::runtime_error("boom");
                                      completed.fetch_add(1);
                                  }),
                 std::runtime_error);
    // Every non-throwing iteration still ran (no early abandonment).
    EXPECT_EQ(completed.load(), 63u);
}

TEST(ThreadPool, NestedParallelForOnOnePool)
{
    // Whole-model DSE nests: each kernel is an outer iteration, and its
    // batches run an inner parallelFor on the same pool.
    ThreadPool pool(4);
    constexpr size_t kOuter = 7;
    constexpr size_t kInner = 8;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    pool.parallelFor(kOuter, [&](size_t o) {
        pool.parallelFor(kInner, [&](size_t i) {
            hits[o * kInner + i].fetch_add(1);
        });
    });
    for (size_t k = 0; k < hits.size(); ++k)
        EXPECT_EQ(hits[k].load(), 1)
            << "outer " << k / kInner << " inner " << k % kInner;

    // An inner iteration's exception reaches the outer caller.
    EXPECT_THROW(pool.parallelFor(kOuter,
                                  [&](size_t o) {
                                      pool.parallelFor(kInner, [&](size_t i) {
                                          if (o == 5 && i == 3)
                                              throw std::runtime_error(
                                                  "inner");
                                      });
                                  }),
                 std::runtime_error);

    // The pool stays usable afterwards, nested or not.
    std::atomic<size_t> ran{0};
    pool.parallelFor(kOuter, [&](size_t) {
        pool.parallelFor(kInner, [&](size_t) { ran.fetch_add(1); });
    });
    EXPECT_EQ(ran.load(), kOuter * kInner);
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(ran.load(), kOuter * kInner + 1);
}

TEST(ThreadPool, SubmitAndWaitIdle)
{
    ThreadPool pool(3);
    std::atomic<int> sum{0};
    for (int i = 1; i <= 100; ++i)
        pool.submit([&sum, i] { sum.fetch_add(i); });
    pool.waitIdle();
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, SubmitExceptionRethrownAtWaitIdle)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(pool.waitIdle(), std::runtime_error);
    // The pool stays usable and the error does not resurface.
    std::atomic<int> ran{0};
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ConcurrentCache, FirstWriterWinsUnderContention)
{
    ConcurrentCache<std::vector<int>, int, OrdinalVectorHash> cache;
    ThreadPool pool(4);
    std::atomic<int> inserted{0};
    pool.parallelFor(64, [&](size_t i) {
        std::vector<int> key{static_cast<int>(i % 8)};
        if (cache.insert(key, static_cast<int>(i)))
            inserted.fetch_add(1);
    });
    EXPECT_EQ(inserted.load(), 8);
    EXPECT_EQ(cache.size(), 8u);
    for (int k = 0; k < 8; ++k) {
        auto hit = cache.lookup({k});
        ASSERT_TRUE(hit.has_value());
        // The stored value is one of the candidates for that key.
        EXPECT_EQ(*hit % 8, k);
    }
    EXPECT_FALSE(cache.lookup({99}).has_value());
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ConcurrentCache, StatsCountHitsAndMisses)
{
    ConcurrentCache<std::vector<int>, int, OrdinalVectorHash> cache;
    EXPECT_EQ(cache.lookups(), 0u);
    EXPECT_EQ(cache.hitRate(), 0.0);

    EXPECT_FALSE(cache.lookup({1}).has_value()); // Miss.
    cache.insert({1}, 7);
    EXPECT_TRUE(cache.lookup({1}).has_value());  // Hit.
    EXPECT_FALSE(cache.lookup({2}).has_value()); // Miss.

    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.lookups(), 3u);
    EXPECT_NEAR(cache.hitRate(), 1.0 / 3.0, 1e-12);

    // clear() resets the counters with the contents.
    cache.clear();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.lookups(), 0u);
}

TEST(ConcurrentCache, MaxEntriesEvictsLruPerShard)
{
    // One entry per shard (cap 16 over 16 shards): a second insert into
    // any shard evicts that shard's least-recently-used entry (none of
    // these is ever looked up, so LRU degenerates to insertion order).
    // Content-keyed users just recompute evicted values, so only memory
    // changes.
    ConcurrentCache<std::vector<int>, int, OrdinalVectorHash> cache;
    cache.setMaxEntries(16);
    for (int k = 0; k < 256; ++k)
        cache.insert({k}, k);
    EXPECT_LE(cache.size(), 16u);
    EXPECT_EQ(cache.evictions(), 256u - cache.size());
    CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, cache.size());
    EXPECT_EQ(stats.evictions, cache.evictions());

    // Surviving entries are the NEWEST of each shard (nothing was hit,
    // so LRU evicts the oldest): re-inserting an evicted key succeeds
    // (it is gone), and every key that is present still returns its
    // original value.
    size_t present = 0;
    for (int k = 0; k < 256; ++k) {
        if (auto hit = cache.lookup({k})) {
            EXPECT_EQ(*hit, k);
            ++present;
        }
    }
    EXPECT_EQ(present, cache.size());

    // Duplicate inserts do not grow the recency list or evict.
    cache.clear();
    EXPECT_EQ(cache.evictions(), 0u);
    for (int i = 0; i < 100; ++i)
        cache.insert({1}, 1);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.evictions(), 0u);
}

TEST(ConcurrentCache, EvictionOrderIsLruInformedByHitCounts)
{
    // Single shard for a deterministic eviction order. Key 1 is
    // inserted first AND hit before 2 and 3 even exist, so it is the
    // least recently used entry when 4 forces an eviction — pure
    // LRU/FIFO would take it. Its unspent hit count buys a reprieve
    // instead, and the scan falls through to 2, the oldest NEVER-hit
    // entry.
    ConcurrentCache<std::vector<int>, int, OrdinalVectorHash, 1> cache;
    cache.setMaxEntries(3);
    cache.insert({1}, 1);
    EXPECT_TRUE(cache.lookup({1}).has_value()); // 1 earns its reprieve.
    cache.insert({2}, 2);
    cache.insert({3}, 3);
    cache.insert({4}, 4); // Forces the first eviction.

    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_FALSE(cache.lookup({2}).has_value())
        << "2 (never hit) must be the victim, not the hit entry 1";
    // These hits also refresh recency in the order 1, 3, 4.
    EXPECT_TRUE(cache.lookup({1}).has_value());
    EXPECT_TRUE(cache.lookup({3}).has_value());
    EXPECT_TRUE(cache.lookup({4}).has_value());

    // Every surviving entry now holds one unspent hit, so the next scan
    // rotates through all of them, SPENDING the hit counts, and then
    // evicts the least recently used entry — 1 — exactly once per
    // insert. A hit count is a one-shot reprieve, not immortality.
    cache.insert({5}, 5);
    EXPECT_EQ(cache.evictions(), 2u);
    EXPECT_FALSE(cache.lookup({1}).has_value())
        << "spent hit counts no longer shield the LRU entry";
    EXPECT_TRUE(cache.lookup({3}).has_value());
    EXPECT_TRUE(cache.lookup({4}).has_value());
    // The freshly inserted key never evicts itself, even when every
    // other entry held a reprieve-worthy hit count.
    EXPECT_TRUE(cache.lookup({5}).has_value());
}

TEST(ConcurrentCache, LateBoundNeverEvictsPreBoundEntries)
{
    // Entries inserted while unbounded are not recency-tracked; bounding
    // afterwards must only govern NEW inserts — old entries survive,
    // and a fresh insert must not evict itself trying to get the
    // (untracked-inflated) map under cap.
    ConcurrentCache<std::vector<int>, int, OrdinalVectorHash> cache;
    for (int k = 0; k < 256; ++k)
        cache.insert({k}, k);
    cache.setMaxEntries(16);
    for (int k = 256; k < 320; ++k) {
        cache.insert({k}, k);
        EXPECT_TRUE(cache.lookup({k}).has_value()) << k;
    }
    for (int k = 0; k < 256; ++k)
        EXPECT_TRUE(cache.lookup({k}).has_value()) << k;
}

TEST(ConcurrentCache, UnboundedByDefault)
{
    ConcurrentCache<std::vector<int>, int, OrdinalVectorHash> cache;
    for (int k = 0; k < 1000; ++k)
        cache.insert({k}, k);
    EXPECT_EQ(cache.size(), 1000u);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.stats().maskedHits, 0u);
}

TEST(ConcurrentCache, StatsConsistentUnderContention)
{
    ConcurrentCache<std::vector<int>, int, OrdinalVectorHash> cache;
    for (int k = 0; k < 4; ++k)
        cache.insert({k}, k);
    ThreadPool pool(4);
    pool.parallelFor(64, [&](size_t i) {
        cache.lookup({static_cast<int>(i % 8)});
    });
    // Keys 0..3 hit (32 lookups), 4..7 miss (32 lookups).
    EXPECT_EQ(cache.hits(), 32u);
    EXPECT_EQ(cache.misses(), 32u);
    EXPECT_EQ(cache.lookups(), 64u);
}

TEST(Json, NestingDeeperThanTheBoundIsRejected)
{
    auto nested = [](size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_TRUE(parseJson(nested(kMaxJsonDepth)).has_value());
    EXPECT_FALSE(parseJson(nested(kMaxJsonDepth + 1)).has_value());
    // Deep enough to overflow the stack of an unbounded recursive parser.
    EXPECT_FALSE(parseJson(nested(200000)).has_value());
    std::string objects;
    for (int i = 0; i < 200000; ++i)
        objects += "{\"a\":";
    EXPECT_FALSE(parseJson(objects + "1").has_value());
}

} // namespace
} // namespace scalehls
