#include "sim/input.hpp"

#include <map>
#include <unordered_map>

#include "util/logging.hpp"

namespace pcap::sim {

ExecutionInput
ExecutionInput::fromTrace(const trace::Trace &trace,
                          const cache::CacheParams &params)
{
    const std::string problem = trace.validate();
    if (!problem.empty()) {
        panic("ExecutionInput: invalid trace for " + trace.app() +
              " execution " +
              std::to_string(trace.execution()) + ": " + problem);
    }

    ExecutionInput input;
    input.app = trace.app();
    input.execution = trace.execution();
    input.endTime = trace.endTime();
    input.tracedIos = trace.ioCount();
    input.accesses =
        cache::filterTrace(trace, params, &input.cacheStats);

    // Extract process spans from the fork/exit events. The initial
    // process is the pid of the first event.
    std::map<Pid, ProcessSpan> spans;
    bool first = true;
    for (const auto &event : trace.events()) {
        if (first) {
            spans[event.pid] =
                ProcessSpan{event.pid, event.time, event.time};
            first = false;
        }
        switch (event.type) {
          case trace::EventType::Fork: {
            const Pid child = static_cast<Pid>(event.fd);
            spans[child] = ProcessSpan{child, event.time, event.time};
            break;
          }
          case trace::EventType::Exit:
            spans[event.pid].end = event.time;
            break;
          default:
            break;
        }
    }

    // The flush daemon lives for the whole execution.
    spans[kFlushDaemonPid] =
        ProcessSpan{kFlushDaemonPid, 0, input.endTime};

    for (const auto &[pid, span] : spans)
        input.processes.push_back(span);
    return input;
}

const ProcessSpan &
ExecutionInput::spanOf(Pid pid) const
{
    for (const auto &span : processes) {
        if (span.pid == pid)
            return span;
    }
    panic("ExecutionInput: unknown pid " + std::to_string(pid));
}

std::uint64_t
ExecutionInput::countGlobalOpportunities(TimeUs breakeven) const
{
    std::uint64_t count = 0;
    TimeUs prev = -1;
    for (const auto &access : accesses) {
        if (prev >= 0 && access.time - prev > breakeven)
            ++count;
        prev = access.time;
    }
    if (prev >= 0 && endTime - prev > breakeven)
        ++count;
    return count;
}

std::uint64_t
ExecutionInput::countLocalOpportunities(TimeUs breakeven) const
{
    // Last access time of each span pid, -1 before its first access.
    std::unordered_map<Pid, TimeUs> prev;
    for (const auto &span : processes)
        prev.emplace(span.pid, -1);

    std::uint64_t count = 0;
    for (const auto &access : accesses) {
        const auto it = prev.find(access.pid);
        if (it == prev.end())
            continue;
        if (it->second >= 0 && access.time - it->second > breakeven)
            ++count;
        it->second = access.time;
    }
    for (const auto &span : processes) {
        const TimeUs last = prev.at(span.pid);
        if (last >= 0 && span.end - last > breakeven)
            ++count;
    }
    return count;
}

} // namespace pcap::sim
