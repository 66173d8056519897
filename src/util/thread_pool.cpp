#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace pcap {

namespace {

std::atomic<std::uint64_t> gTasksSubmitted{0};
std::atomic<std::uint64_t> gTasksExecuted{0};
std::atomic<std::uint64_t> gTaskNanos{0};
std::atomic<std::uint64_t> gPeakQueueDepth{0};
std::atomic<std::uint64_t> gWorkers{0};

// The two halves of the installed hook, stored as separate atomics
// so readers never need a lock. Torn reads across the pair are
// benign: each half is checked for null before use, and the
// contract is to install the hook before any parallel work.
std::atomic<void *(*)()> gHookBegin{nullptr};
std::atomic<void (*)(void *)> gHookEnd{nullptr};

/**
 * The shared state of one parallelFor call on the pool. It lives on
 * the caller's stack; the caller returns only once no queued lane
 * and no running helper refers to it.
 */
struct Group
{
    Group(const std::function<void(std::size_t)> &body, std::size_t n,
          unsigned jobs, Group *parent)
        : body(body), n(n), jobs(jobs), parent(parent),
          root(parent ? parent->root : this)
    {
    }

    /** True when bodies of @p ancestor made this call, at any depth. */
    bool nestedIn(const Group &ancestor) const
    {
        for (const Group *g = parent; g; g = g->parent)
            if (g == &ancestor)
                return true;
        return false;
    }

    const std::function<void(std::size_t)> &body;
    const std::size_t n;
    const unsigned jobs;
    Group *const parent; ///< call whose body made this one, or null
    Group *const root;   ///< outermost call; its jobs bound the tree
    std::atomic<std::size_t> next{0}; ///< next unclaimed index

    // Guarded by the pool mutex.
    std::size_t helpers = 0;  ///< threads running a lane of this call
    unsigned threads = 1;     ///< root only: threads in its tree
    std::exception_ptr error; ///< first exception a body threw
};

/** The call whose body this thread runs, or null at top level. */
thread_local Group *tCurrent = nullptr;
/** Lanes open on this thread's stack, for outermost-only timing. */
thread_local unsigned tLaneDepth = 0;

class Pool
{
  public:
    /** parallelFor with jobs >= 2 and n >= 2. */
    void run(unsigned jobs, std::size_t n,
             const std::function<void(std::size_t)> &body)
    {
        Group group(body, n, jobs, tCurrent);
        const std::size_t lanes = std::min<std::size_t>(jobs, n) - 1;
        std::unique_lock<std::mutex> lock(mutex_);
        while (workers_.size() + 1 < jobs) {
            workers_.emplace_back([this] { work(); });
            gWorkers.fetch_add(1, std::memory_order_relaxed);
        }
        queue_.insert(queue_.end(), lanes, &group);
        gTasksSubmitted.fetch_add(lanes, std::memory_order_relaxed);
        if (queue_.size() > gPeakQueueDepth.load())
            gPeakQueueDepth.store(queue_.size());
        lock.unlock();
        changed_.notify_all();

        claimAll(group);

        // Every index is claimed: retract the lanes nobody started,
        // then wait for the helpers still running a body, helping
        // with the calls nested inside this one meanwhile.
        lock.lock();
        queue_.erase(std::remove(queue_.begin(), queue_.end(), &group),
                     queue_.end());
        for (;;) {
            Group *nested = nullptr;
            changed_.wait(lock, [&] {
                return group.helpers == 0 ||
                       (nested = take(&group)) != nullptr;
            });
            if (!nested)
                break;
            runLane(lock, *nested);
        }
        if (group.error)
            std::rethrow_exception(group.error);
    }

  private:
    /** A worker: run lanes whose tree has a thread to spare. */
    void work()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            Group *group = nullptr;
            changed_.wait(lock, [&] {
                return (group = take(nullptr)) != nullptr;
            });
            Group &root = *group->root;
            runLane(lock, *group);
            --root.threads;
        }
    }

    /**
     * Dequeue the first lane a worker may start (@p waiter null: its
     * tree is under its jobs bound) or @p waiter may help with (a
     * call nested inside waiter's), and count its helper. Lanes of
     * calls with every index claimed leave the queue. Needs the
     * mutex.
     */
    Group *take(const Group *waiter)
    {
        for (auto it = queue_.begin(); it != queue_.end();) {
            Group &group = **it;
            if (group.next.load() >= group.n) {
                it = queue_.erase(it);
            } else if (waiter ? group.nestedIn(*waiter)
                              : group.root->threads < group.root->jobs) {
                queue_.erase(it);
                if (!waiter)
                    ++group.root->threads;
                ++group.helpers;
                return &group;
            } else {
                ++it;
            }
        }
        return nullptr;
    }

    /** Run one lane of @p group, whose helper take() counted; called
     * and returns with @p lock held. */
    void runLane(std::unique_lock<std::mutex> &lock, Group &group)
    {
        lock.unlock();
        void *token = nullptr;
        if (auto *begin = gHookBegin.load(std::memory_order_acquire))
            token = begin();
        const bool outermost = tLaneDepth++ == 0;
        const auto start = std::chrono::steady_clock::now();
        claimAll(group);
        const auto elapsed = std::chrono::steady_clock::now() - start;
        --tLaneDepth;
        if (outermost)
            gTaskNanos.fetch_add(
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        elapsed)
                        .count()),
                std::memory_order_relaxed);
        gTasksExecuted.fetch_add(1, std::memory_order_relaxed);
        if (auto *end = gHookEnd.load(std::memory_order_acquire))
            end(token);
        lock.lock();
        --group.helpers;
        changed_.notify_all();
    }

    /** Claim and run indices of @p group until none remain. A
     * throwing body records the call's first error and ends every
     * further claim. */
    void claimAll(Group &group)
    {
        Group *const outer = tCurrent;
        tCurrent = &group;
        try {
            for (std::size_t i = group.next++; i < group.n;
                 i = group.next++)
                group.body(i);
        } catch (...) {
            group.next = group.n;
            std::lock_guard<std::mutex> lock(mutex_);
            if (!group.error)
                group.error = std::current_exception();
        }
        tCurrent = outer;
    }

    std::mutex mutex_;
    std::condition_variable changed_; ///< queue or a helper count moved
    std::deque<Group *> queue_;       ///< one entry per unstarted lane
    std::vector<std::thread> workers_;
};

} // namespace

void
parallelFor(unsigned jobs, std::size_t n,
            const std::function<void(std::size_t)> &body)
{
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    // Leaked on purpose: its workers are never joined, so exit does
    // not wait for them.
    static Pool *const pool = new Pool;
    pool->run(jobs, n, body);
}

unsigned
hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPoolStats
threadPoolStats()
{
    ThreadPoolStats stats;
    stats.tasksSubmitted = gTasksSubmitted.load(std::memory_order_relaxed);
    stats.tasksExecuted = gTasksExecuted.load(std::memory_order_relaxed);
    stats.taskNanos = gTaskNanos.load(std::memory_order_relaxed);
    stats.peakQueueDepth = gPeakQueueDepth.load(std::memory_order_relaxed);
    stats.workers = gWorkers.load(std::memory_order_relaxed);
    return stats;
}

void
setThreadPoolTaskHook(ThreadPoolTaskHook hook)
{
    gHookBegin.store(hook.begin, std::memory_order_release);
    gHookEnd.store(hook.end, std::memory_order_release);
}

} // namespace pcap
