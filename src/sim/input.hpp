/**
 * @file
 * Simulator input: one execution of one application after the
 * file-cache filter — the disk access stream, the process lifetimes
 * (from the traced fork/exit events) and the pdflush pseudo-process.
 *
 * An ExecutionInput is a plain aggregate, immutable once built: the
 * replay kernel walks the access array in place and merges the
 * process starts and exits into it, so an input carries no derived
 * indexes and can be shared across threads as soon as it exists.
 */

#ifndef PCAP_SIM_INPUT_HPP
#define PCAP_SIM_INPUT_HPP

#include <string>
#include <vector>

#include "cache/file_cache.hpp"
#include "trace/event.hpp"
#include "trace/trace.hpp"
#include "util/types.hpp"

namespace pcap::sim {

/** Lifetime of one process within an execution. */
struct ProcessSpan
{
    Pid pid = 0;
    TimeUs start = 0;
    TimeUs end = 0;

    bool operator==(const ProcessSpan &other) const = default;
};

/**
 * Everything the simulator needs about one execution: the post-cache
 * disk access stream in (time, pid) order — the order every replay
 * feeds it — the process spans, one per pid (fromTrace lists them
 * in pid order), including the flush daemon, which lives for the
 * whole execution, and trace metadata.
 */
struct ExecutionInput
{
    std::string app;
    int execution = 0;
    std::vector<trace::DiskAccess> accesses;
    std::vector<ProcessSpan> processes;
    TimeUs endTime = 0;
    std::uint64_t tracedIos = 0;    ///< pre-cache I/O count (Table 1)
    cache::CacheStats cacheStats;

    /**
     * Build from a validated trace into @p out: filter through a cold
     * file cache and extract the process spans, refilling @p out's
     * vectors in place so their capacity is reused. panic()s on an
     * invalid trace — workload models must produce structurally
     * valid ones.
     */
    static void fromTrace(const trace::Trace &trace,
                          const cache::CacheParams &params,
                          ExecutionInput &out);

    /** fromTrace into a new input. */
    static ExecutionInput fromTrace(const trace::Trace &trace,
                                    const cache::CacheParams &params);

    /** Span of one process, found by binary search, so the spans
     * must be in pid order; panics when the pid is unknown. */
    const ProcessSpan &spanOf(Pid pid) const;

    /**
     * Idle periods longer than @p breakeven on the merged stream,
     * including the trailing period to endTime — Table 1's "Global"
     * idle-period count for this execution.
     */
    std::uint64_t countGlobalOpportunities(TimeUs breakeven) const;

    /**
     * Sum over all predicting processes — the application's and the
     * flush daemon — of their idle periods longer than
     * @p breakeven, including each process's trailing period to its
     * exit: Table 1's "Local" count. The flush daemon counts
     * because it runs a local predictor like any process; this also
     * preserves Table 1's local >= global invariant, since the
     * daemon's accesses split global periods.
     */
    std::uint64_t countLocalOpportunities(TimeUs breakeven) const;

    bool operator==(const ExecutionInput &other) const = default;
};

} // namespace pcap::sim

#endif // PCAP_SIM_INPUT_HPP
