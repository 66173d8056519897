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
    std::optional<trace::Trace> trace = stream_.next();
    if (!trace)
        return nullptr;
    // fromTrace runs the cache filter and extracts the process
    // spans — identical to the materialized pipeline's per-trace
    // step, so a pure single-app profile streams bit-equal inputs.
    slot_ = ExecutionInput::fromTrace(*trace, cacheParams_);
    return &slot_;
}

} // namespace pcap::sim
