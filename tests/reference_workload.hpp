/**
 * @file
 * The reference inputs the engine and the fleet stream are checked
 * against: every execution of an app generated up front and filtered
 * one trace at a time, serially and with no instruments.
 */

#ifndef PCAP_TESTS_REFERENCE_WORKLOAD_HPP
#define PCAP_TESTS_REFERENCE_WORKLOAD_HPP

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/input.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "workload/app_model.hpp"

namespace pcap::sim {

/**
 * Every execution of @p app from @p seed, with the per-execution
 * RNGs forked sequentially from the app RNG. @p maxExecutions caps
 * the paper's execution count when positive.
 */
inline std::vector<trace::Trace>
generateTraces(std::uint64_t seed, const std::string &app,
               int maxExecutions)
{
    const auto model = workload::makeApp(app);
    if (!model)
        fatal("generateTraces: unknown application '" + app + "'");
    int executions = model->info().executions;
    if (maxExecutions > 0)
        executions = std::min(executions, maxExecutions);
    Rng appRng(seed ^ hashString(app));
    std::vector<trace::Trace> traces;
    for (int execution = 0; execution < executions; ++execution)
        traces.push_back(model->generate(
            execution,
            appRng.fork(static_cast<std::uint64_t>(execution))));
    return traces;
}

/** Each of @p traces filtered through a cold file cache with
 * @p params. */
inline std::vector<ExecutionInput>
inputsFromTraces(const std::vector<trace::Trace> &traces,
                 const cache::CacheParams &params)
{
    std::vector<ExecutionInput> inputs;
    for (const trace::Trace &trace : traces)
        inputs.push_back(ExecutionInput::fromTrace(trace, params));
    return inputs;
}

} // namespace pcap::sim

#endif // PCAP_TESTS_REFERENCE_WORKLOAD_HPP
