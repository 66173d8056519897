#include "sim/input.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace pcap::sim {

namespace {

bool
byPid(const ProcessSpan &a, const ProcessSpan &b)
{
    return a.pid < b.pid;
}

/** @p pid's index in the pid-sorted @p spans, or spans.size(). */
std::size_t
indexOf(const std::vector<ProcessSpan> &spans, Pid pid)
{
    const auto it = std::lower_bound(spans.begin(), spans.end(),
                                     ProcessSpan{pid, 0, 0}, byPid);
    return it != spans.end() && it->pid == pid
               ? static_cast<std::size_t>(it - spans.begin())
               : spans.size();
}

} // namespace

void
ExecutionInput::fromTrace(const trace::Trace &trace,
                          const cache::CacheParams &params,
                          ExecutionInput &out)
{
    const std::string problem = trace.validate();
    if (!problem.empty()) {
        panic("ExecutionInput: invalid trace for " + trace.app() +
              " execution " +
              std::to_string(trace.execution()) + ": " + problem);
    }

    out.app = trace.app();
    out.execution = trace.execution();
    out.endTime = trace.endTime();
    out.tracedIos = trace.ioCount();
    cache::filterTrace(trace, params, out.accesses, &out.cacheStats);

    // Process spans in pid order. The initial process is the pid of
    // the first event and every other one starts at its fork; a
    // valid trace introduces each pid once and exits it at most
    // once.
    std::vector<ProcessSpan> &spans = out.processes;
    spans.clear();
    const std::vector<trace::TraceEvent> &events = trace.events();
    if (!events.empty()) {
        const trace::TraceEvent &front = events.front();
        spans.push_back({front.pid, front.time, front.time});
    }
    for (const auto &event : events) {
        if (event.type == trace::EventType::Fork) {
            const Pid child = static_cast<Pid>(event.fd);
            spans.push_back({child, event.time, event.time});
        }
    }
    std::sort(spans.begin(), spans.end(), byPid);
    const auto find = [&](Pid pid) {
        return std::lower_bound(spans.begin(), spans.end(),
                                ProcessSpan{pid, 0, 0}, byPid);
    };
    for (const auto &event : events) {
        if (event.type == trace::EventType::Exit)
            find(event.pid)->end = event.time;
    }

    // The flush daemon lives for the whole execution, even where a
    // traced process used its pid.
    const ProcessSpan daemon{kFlushDaemonPid, 0, out.endTime};
    const auto at = find(kFlushDaemonPid);
    if (at != spans.end() && at->pid == kFlushDaemonPid)
        *at = daemon;
    else
        spans.insert(at, daemon);
}

ExecutionInput
ExecutionInput::fromTrace(const trace::Trace &trace,
                          const cache::CacheParams &params)
{
    ExecutionInput input;
    fromTrace(trace, params, input);
    return input;
}

const ProcessSpan &
ExecutionInput::spanOf(Pid pid) const
{
    const std::size_t i = indexOf(processes, pid);
    if (i == processes.size())
        panic("ExecutionInput: unknown pid " + std::to_string(pid));
    return processes[i];
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
    // The spans in pid order (fromTrace's; a hand-built input may
    // differ) and each one's last access time, -1 before the first.
    std::vector<ProcessSpan> spans = processes;
    std::sort(spans.begin(), spans.end(), byPid);
    std::vector<TimeUs> last(spans.size(), -1);

    std::uint64_t count = 0;
    for (const auto &access : accesses) {
        const std::size_t i = indexOf(spans, access.pid);
        if (i == spans.size())
            continue;
        if (last[i] >= 0 && access.time - last[i] > breakeven)
            ++count;
        last[i] = access.time;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (last[i] >= 0 && spans[i].end - last[i] > breakeven)
            ++count;
    }
    return count;
}

} // namespace pcap::sim
