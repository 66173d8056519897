#include "sim/trace_store.hpp"

#include <algorithm>
#include <sstream>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "workload/app_model.hpp"

namespace pcap::sim {

std::vector<trace::Trace>
generateTraces(std::uint64_t seed, const std::string &app,
               int maxExecutions, unsigned jobs,
               const obs::ScopedMetrics &scope)
{
    const auto model = workload::makeApp(app);
    if (!model)
        fatal("TraceStore: unknown application '" + app + "'");

    int executions = model->info().executions;
    if (maxExecutions > 0)
        executions = std::min(executions, maxExecutions);

    // Fork the per-execution RNGs sequentially before the parallel
    // expansion — trace content must not depend on worker count.
    std::vector<Rng> rngs;
    rngs.reserve(executions);
    Rng app_rng(seed ^ hashString(app));
    for (int execution = 0; execution < executions; ++execution)
        rngs.push_back(
            app_rng.fork(static_cast<std::uint64_t>(execution)));

    std::vector<trace::Trace> traces(executions);
    pcap::parallelFor(jobs, static_cast<std::size_t>(executions),
                      [&](std::size_t i) {
                          traces[i] = model->generate(
                              static_cast<int>(i), rngs[i]);
                          workload::recordTraceMetrics(traces[i],
                                                       scope);
                      });
    return traces;
}

std::vector<ExecutionInput>
inputsFromTraces(const std::vector<trace::Trace> &traces,
                 const cache::CacheParams &params, unsigned jobs)
{
    std::vector<ExecutionInput> result(traces.size());
    pcap::parallelFor(jobs, traces.size(), [&](std::size_t i) {
        result[i] = ExecutionInput::fromTrace(traces[i], params);
    });
    return result;
}

const std::vector<trace::Trace> &
TraceStore::traces(std::uint64_t seed, const std::string &app,
                   int maxExecutions, unsigned jobs,
                   const obs::ScopedMetrics &scope)
{
    std::ostringstream key;
    key << seed << '\x1f' << app << '\x1f' << maxExecutions;

    Memo *memo;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        memo = &memos_[key.str()];
    }
    std::call_once(memo->once, [&] {
        memo->value =
            generateTraces(seed, app, maxExecutions, jobs, scope);
        generated_.fetch_add(1, std::memory_order_relaxed);
    });
    return memo->value;
}

} // namespace pcap::sim
