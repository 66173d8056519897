/**
 * @file
 * parallelFor over the process-wide pool: deterministic fan-out/join,
 * inline mode, nesting, the jobs bound and exception propagation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace pcap {
namespace {

/** Counts bodies in flight and keeps the largest count seen. */
class InFlight
{
  public:
    /** Enter, stay long enough for others to overlap, leave. */
    void visit()
    {
        const int now = ++inFlight_;
        int seen = peak_.load();
        while (now > seen && !peak_.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        --inFlight_;
    }

    int peak() const { return peak_.load(); }

  private:
    std::atomic<int> inFlight_{0};
    std::atomic<int> peak_{0};
};

TEST(ThreadPool, InlineModeStartsNoWorkers)
{
    // A fresh process, so no earlier test has grown the pool.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            const std::thread::id caller = std::this_thread::get_id();
            bool elsewhere = false;
            parallelFor(1, 100, [&](std::size_t) {
                elsewhere |= std::this_thread::get_id() != caller;
            });
            parallelFor(8, 1, [&](std::size_t) {
                elsewhere |= std::this_thread::get_id() != caller;
            });
            std::exit(!elsewhere && threadPoolStats().workers == 0 ? 0
                                                                   : 1);
        },
        testing::ExitedWithCode(0), "");
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        std::vector<std::atomic<int>> counts(1000);
        parallelFor(jobs, counts.size(),
                    [&](std::size_t i) { ++counts[i]; });
        for (const auto &count : counts)
            EXPECT_EQ(count.load(), 1);
    }
}

TEST(ThreadPool, ParallelForResultsMatchSerialLoop)
{
    const std::size_t n = 257;
    std::vector<int> serial(n), parallel(n);
    for (std::size_t i = 0; i < n; ++i)
        serial[i] = static_cast<int>(i * i % 97);

    parallelFor(4, n, [&](std::size_t i) {
        parallel[i] = static_cast<int>(i * i % 97);
    });
    EXPECT_EQ(serial, parallel);
}

TEST(ThreadPool, ParallelForRethrowsBodyException)
{
    EXPECT_THROW(parallelFor(2, 8,
                             [](std::size_t i) {
                                 if (i == 5)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ThreadPool, ParallelForEmptyAndSingle)
{
    int calls = 0;
    parallelFor(4, 0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(4, 1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ManyMoreTasksThanWorkers)
{
    std::atomic<long> sum{0};
    parallelFor(3, 10000, [&](std::size_t i) {
        sum += static_cast<long>(i);
    });
    EXPECT_EQ(sum.load(), 10000L * 9999 / 2);
}

TEST(ThreadPool, NestedCallsFinishWithinTheJobsBound)
{
    // Grow the pool past the bound first: the outermost call's jobs,
    // not the pool size, must cap the threads.
    parallelFor(8, 64, [](std::size_t) {});

    const std::size_t outer = 4, middle = 4, inner = 6;
    std::vector<std::atomic<int>> counts(outer * middle * inner);
    InFlight leaves;
    parallelFor(4, outer, [&](std::size_t a) {
        parallelFor(4, middle, [&](std::size_t b) {
            parallelFor(4, inner, [&](std::size_t c) {
                leaves.visit();
                ++counts[(a * middle + b) * inner + c];
            });
        });
    });
    for (const auto &count : counts)
        EXPECT_EQ(count.load(), 1);
    EXPECT_LE(leaves.peak(), 4);
}

TEST(ThreadPool, InnerExceptionReachesOutermostCaller)
{
    EXPECT_THROW(parallelFor(4, 8,
                             [](std::size_t a) {
                                 parallelFor(4, 8, [a](std::size_t b) {
                                     if (a == 3 && b == 3)
                                         throw std::runtime_error(
                                             "inner");
                                 });
                             }),
                 std::runtime_error);

    // The pool stays usable.
    std::vector<std::atomic<int>> counts(1000);
    parallelFor(4, counts.size(), [&](std::size_t i) { ++counts[i]; });
    for (const auto &count : counts)
        EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, SmallerJobsAfterLargerStayBounded)
{
    parallelFor(8, 64, [](std::size_t) {});
    InFlight bodies;
    parallelFor(2, 64, [&](std::size_t) { bodies.visit(); });
    EXPECT_LE(bodies.peak(), 2);
}

} // namespace
} // namespace pcap
