/**
 * @file
 * One process-wide worker pool behind a deterministic fan-out/join,
 * parallelFor(), for the parallel experiment engine.
 *
 * parallelFor(jobs, n, body) runs body(i) for every i in [0, n) and
 * returns once all calls finished. Indices come from one shared
 * atomic counter and every body writes only to the slots it owns, so
 * results are positionally deterministic however the OS schedules the
 * threads. jobs <= 1 or n <= 1 runs inline and starts no thread,
 * which keeps single-core runs and unit tests free of scheduling
 * noise.
 *
 * Otherwise the call enqueues at most min(jobs, n) - 1 helper lanes
 * on a pool that starts lazily, grows to the largest jobs - 1 asked
 * for and is never joined, then claims indices itself like any
 * helper. A nested call therefore always finishes, even when every
 * worker is busy. Once its own claims run out, the caller waits only
 * for helpers that already claimed an index, and meanwhile runs the
 * queued lanes of calls nested inside its own. The jobs of the
 * outermost call that reaches the pool bound the threads working on
 * it and on every call nested inside it.
 */

#ifndef PCAP_UTIL_THREAD_POOL_HPP
#define PCAP_UTIL_THREAD_POOL_HPP

#include <cstddef>
#include <cstdint>
#include <functional>

namespace pcap {

/**
 * Run body(i) for every i in [0, n) on at most @p jobs threads and
 * join. The body must confine its writes to index-owned state; under
 * that contract the result is identical to the serial loop
 * `for (i = 0; i < n; ++i) body(i)`. The first exception thrown by a
 * body stops further claims and is rethrown here once no thread runs
 * a body of this call any more.
 */
void parallelFor(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)> &body);

/** A sensible default job count for this machine. */
unsigned hardwareJobs();

/**
 * Process-wide pool accounting, exported by bench_all as the
 * pcap_thread_pool_* wall metrics. A task is one helper lane: a
 * thread claiming indices of one parallelFor call until none remain.
 */
struct ThreadPoolStats {
    std::uint64_t tasksSubmitted = 0; ///< lanes enqueued
    std::uint64_t tasksExecuted = 0;  ///< lanes run to completion
    /** Summed wall time of the outermost lane on each thread, so a
     * lane run while waiting inside another is not counted twice. */
    std::uint64_t taskNanos = 0;
    std::uint64_t peakQueueDepth = 0; ///< max queued lanes
    std::uint64_t workers = 0;        ///< threads the pool started
};

/** Snapshot of the process-wide pool counters. */
ThreadPoolStats threadPoolStats();

/**
 * Optional process-wide observation hook around each lane: begin()
 * runs on the executing thread just before a lane, end(token) right
 * after with begin's return value. Plain function pointers (not
 * std::function) so installing and invoking stay lock-free; util
 * cannot depend on obs, so the tracer installs itself through this
 * seam (obs::installThreadPoolTraceHook).
 */
struct ThreadPoolTaskHook {
    void *(*begin)() = nullptr;
    void (*end)(void *token) = nullptr;
};

/** Install @p hook for every subsequently run lane; a
 * default-constructed hook uninstalls. Not synchronized with running
 * lanes — install before calling parallelFor. */
void setThreadPoolTaskHook(ThreadPoolTaskHook hook);

} // namespace pcap

#endif // PCAP_UTIL_THREAD_POOL_HPP
