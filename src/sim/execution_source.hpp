/**
 * @file
 * Pull-based execution streaming: the kernel's input abstraction.
 *
 * Historically every replay materialized its full input vector —
 * generate all traces, filter them all, then run. That caps fleet
 * size at whatever fits in memory. An ExecutionSource inverts the
 * flow: the kernel *pulls* one ExecutionInput at a time, and the
 * source decides whether that input already exists (MaterializedSource
 * wraps a vector — the six-app reference path, byte-identical by
 * construction) or is generated on demand and discarded after the
 * replay (HostExecutionSource — memory stays bounded no matter how
 * many executions a host streams).
 */

#ifndef PCAP_SIM_EXECUTION_SOURCE_HPP
#define PCAP_SIM_EXECUTION_SOURCE_HPP

#include <cstddef>
#include <vector>

#include "cache/file_cache.hpp"
#include "sim/input.hpp"
#include "workload/host_profile.hpp"

namespace pcap::sim {

/**
 * A stream of executions for the kernel to replay, in order.
 *
 * Contract: next() returns the next execution, or null when the
 * stream is exhausted. The returned pointer stays valid only until
 * the following next() call — streaming sources reuse one internal
 * slot (generate-replay-discard), so callers must finish with an
 * input before pulling the next.
 */
class ExecutionSource
{
  public:
    virtual ~ExecutionSource() = default;

    virtual const ExecutionInput *next() = 0;
};

/**
 * The materialized path as a trivial source: walks an existing
 * vector without copying. The kernel's vector overload goes through
 * this, so streaming and materialized replays share one loop.
 */
class MaterializedSource final : public ExecutionSource
{
  public:
    explicit MaterializedSource(
        const std::vector<ExecutionInput> &inputs)
        : inputs_(&inputs)
    {
    }

    const ExecutionInput *next() override
    {
        if (index_ == inputs_->size())
            return nullptr;
        return &(*inputs_)[index_++];
    }

  private:
    const std::vector<ExecutionInput> *inputs_;
    std::size_t index_ = 0;
};

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
class HostExecutionSource final : public ExecutionSource
{
  public:
    HostExecutionSource(workload::HostProfile profile,
                        cache::CacheParams cacheParams);

    const ExecutionInput *next() override;

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
