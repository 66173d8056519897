#include "sim/execution_source.hpp"

#include <utility>

namespace pcap::sim {

HostExecutionSource::HostExecutionSource(
    workload::HostProfile profile, cache::CacheParams cacheParams)
    : stream_(std::move(profile)), cacheParams_(cacheParams)
{
}

const ExecutionInput *
HostExecutionSource::next()
{
    // The previous trace's events become the next one's storage.
    std::optional<trace::Trace> trace =
        stream_.next(trace_.releaseEvents());
    if (!trace)
        return nullptr;
    // fromTrace runs the cache filter and extracts the process
    // spans — the experiment engine's per-trace step, so a pure
    // single-app profile streams bit-equal inputs.
    ExecutionInput::fromTrace(*trace, cacheParams_, slot_);
    trace_ = std::move(*trace);
    return &slot_;
}

void
HostExecutionSource::restart(workload::HostProfile profile)
{
    stream_ = workload::HostWorkloadStream(std::move(profile));
}

} // namespace pcap::sim
