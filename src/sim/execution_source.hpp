/**
 * @file
 * Streamed executions of one host: each input is generated on
 * demand and discarded after its replay, so memory stays bounded no
 * matter how many executions a host streams.
 */

#ifndef PCAP_SIM_EXECUTION_SOURCE_HPP
#define PCAP_SIM_EXECUTION_SOURCE_HPP

#include <cstddef>

#include "cache/file_cache.hpp"
#include "sim/input.hpp"
#include "workload/host_profile.hpp"

namespace pcap::sim {

/**
 * Streams one host's workload: each next() generates the next
 * planned trace (workload::HostWorkloadStream), filters it through a
 * cold file cache and refills the single internal slot. The trace's
 * event storage and the slot's access and process vectors are
 * reused from one execution to the next, and across hosts through
 * restart(), so they reallocate only when an execution outgrows
 * every earlier one. Peak memory is one trace plus one
 * ExecutionInput, the largest streamed, regardless of how many
 * executions a profile schedules.
 */
class HostExecutionSource
{
  public:
    HostExecutionSource(workload::HostProfile profile,
                        cache::CacheParams cacheParams);

    /**
     * The next execution, or null when the stream is exhausted. The
     * pointer stays valid only until the following next() call: the
     * slot is refilled in place.
     */
    const ExecutionInput *next();

    /**
     * Stream another host's workload from its first execution,
     * keeping the buffers: a caller that runs hosts one after
     * another (a fleet shard) reuses one source for all of them.
     */
    void restart(workload::HostProfile profile);

    /** The host being streamed. */
    const workload::HostProfile &profile() const
    {
        return stream_.profile();
    }

    /** Executions generated so far. */
    std::size_t produced() const { return stream_.produced(); }

    /** Executions the profile schedules in total. */
    std::size_t planned() const { return stream_.planned(); }

  private:
    workload::HostWorkloadStream stream_;
    cache::CacheParams cacheParams_;
    trace::Trace trace_; ///< the last trace, kept for its storage
    ExecutionInput slot_;
};

} // namespace pcap::sim

#endif // PCAP_SIM_EXECUTION_SOURCE_HPP
