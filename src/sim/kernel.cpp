#include "sim/kernel.hpp"

#include <algorithm>
#include <tuple>

namespace pcap::sim {

void
RunResult::merge(const RunResult &other)
{
    accuracy.merge(other.accuracy);
    energy.merge(other.energy);
    shutdowns += other.shutdowns;
    spinUps += other.spinUps;
    ignoredShutdowns += other.ignoredShutdowns;
    totalSpinUpDelay += other.totalSpinUpDelay;
}

void
IdleSink::emit(Pid pid, TimeUs gap_start, TimeUs gap_end,
               TimeUs shutdown_at, pred::DecisionSource source,
               IdleOutcome outcome)
{
    IdlePeriodRecord record;
    record.pid = pid;
    record.start = gap_start;
    record.end = gap_end;
    record.shutdownAt = shutdown_at;
    record.source = source;
    record.outcome = outcome;
    observer_.onIdlePeriod(record);
}

// -- PolicyDriver defaults -------------------------------------

void
PolicyDriver::processStart(Pid pid, TimeUs time)
{
    (void)pid;
    (void)time;
}

void
PolicyDriver::processExit(Pid pid, TimeUs time, IdleSink &sink)
{
    (void)pid;
    (void)time;
    (void)sink;
}

pred::ShutdownDecision
PolicyDriver::standingDecision() const
{
    return {kTimeNever, pred::DecisionSource::None};
}

bool
PolicyDriver::parkLowPower() const
{
    return false;
}

void
PolicyDriver::endExecution(const ExecutionInput &input,
                           IdleSink &sink)
{
    (void)input;
    (void)sink;
}

// -- SimulationKernel ------------------------------------------

namespace {

/** A process start or exit, ordered for replay: by time, starts
 * before exits, then by pid. */
struct ProcessEvent
{
    TimeUs time = 0;
    bool exit = false;
    Pid pid = 0;

    bool operator<(const ProcessEvent &other) const
    {
        return std::tie(time, exit, pid) <
               std::tie(other.time, other.exit, other.pid);
    }

    /** Whether this event replays before an access at @p at: at
     * equal times starts precede the access and exits follow it. */
    bool precedes(TimeUs at) const
    {
        return time < at || (time == at && !exit);
    }
};

std::vector<ProcessEvent>
processEvents(const ExecutionInput &input)
{
    std::vector<ProcessEvent> events;
    events.reserve(2 * input.processes.size());
    for (const ProcessSpan &span : input.processes) {
        events.push_back({span.start, false, span.pid});
        events.push_back({span.end, true, span.pid});
    }
    std::sort(events.begin(), events.end());
    return events;
}

} // namespace

RunResult
SimulationKernel::runExecution(const ExecutionInput &input,
                               PolicyDriver &driver)
{
    // The template parameter hoists every observer dispatch out of
    // the replay loop: against the shared NullObserver the whole
    // execution runs with instrumentation compiled out.
    if (&observer_ == &nullObserver())
        return replay<false>(input, driver);
    return replay<true>(input, driver);
}

template <bool Instrumented>
RunResult
SimulationKernel::replay(const ExecutionInput &input,
                         PolicyDriver &driver)
{
    driver.beginExecution(input);
    if constexpr (Instrumented)
        observer_.onExecutionBegin(input);

    const bool with_disk = driver.usesDisk();

    power::PowerManagedDisk disk(params_.disk,
                                 Instrumented ? &observer_ : nullptr);
    RunResult result;
    IdleSink sink(params_.breakeven(), result.accuracy, observer_);

    TimeUs gap_start = -1;  ///< arrival of the last access
    TimeUs seg_start = -1;  ///< earliest instant not yet checked
    TimeUs shutdown_at = -1;
    pred::DecisionSource shutdown_source = pred::DecisionSource::None;
    TimeUs last_completion = 0; ///< when the disk last went idle
    bool low_power_pending = false;

    // Issue the pending spin-down to the disk. The power manager's
    // order stands from shutdown_at on; if the disk is still busy
    // then (e.g. finishing a post-spin-up service), it spins down as
    // soon as it goes idle — provided that still happens before the
    // gap ends.
    auto issue_shutdown = [&](TimeUs gap_end) {
        if (low_power_pending) {
            // The prediction parked the disk in low-power mode as
            // soon as it went idle.
            const TimeUs at = std::max(last_completion, gap_start);
            if (at < gap_end)
                disk.enterLowPower(at);
            low_power_pending = false;
        }
        if (shutdown_at < 0)
            return;
        const TimeUs at = std::max(shutdown_at, last_completion);
        if (at >= gap_end || !disk.shutdown(at)) {
            ++result.ignoredShutdowns;
            if constexpr (Instrumented)
                observer_.onShutdownIgnored(at);
        } else {
            if constexpr (Instrumented)
                observer_.onShutdownIssued(at);
        }
    };

    // Decide whether the driver's standing decision fires a shutdown
    // inside [seg_start, until); constraints may have changed at
    // process starts/exits, so this runs before every event.
    auto check_shutdown = [&](TimeUs until) {
        if (gap_start < 0 || shutdown_at >= 0) {
            seg_start = until;
            return;
        }
        const pred::ShutdownDecision d = driver.standingDecision();
        if (d.earliest != kTimeNever) {
            const TimeUs candidate = std::max(d.earliest, seg_start);
            if (candidate < until) {
                shutdown_at = candidate;
                shutdown_source = d.source;
                if constexpr (Instrumented)
                    observer_.onShutdownLatched(candidate, d.source);
            }
        }
        seg_start = until;
    };

    auto replay_process = [&](const ProcessEvent &event) {
        if (with_disk)
            check_shutdown(event.time);
        if (event.exit)
            driver.processExit(event.pid, event.time, sink);
        else
            driver.processStart(event.pid, event.time);
    };

    // Two cursors: the access array, already in (time, pid) order,
    // and the execution's few process events, sorted here.
    const std::vector<ProcessEvent> processes = processEvents(input);
    std::size_t next_process = 0;
    for (const trace::DiskAccess &access : input.accesses) {
        while (next_process < processes.size() &&
               processes[next_process].precedes(access.time))
            replay_process(processes[next_process++]);
        if (with_disk) {
            check_shutdown(access.time);
            if (gap_start >= 0) {
                sink.classify(kMergedStreamPid, gap_start, access.time,
                              shutdown_at, shutdown_source);
            }
            issue_shutdown(access.time);
            last_completion = disk.request(access.time, access.blocks);
        }
        driver.onAccess(access, last_completion, sink);
        low_power_pending = with_disk && driver.parkLowPower();
        gap_start = access.time;
        seg_start = access.time;
        shutdown_at = -1;
        shutdown_source = pred::DecisionSource::None;
    }
    while (next_process < processes.size())
        replay_process(processes[next_process++]);

    if (with_disk) {
        // Trailing idle period to the end of the execution.
        check_shutdown(input.endTime);
        if (gap_start >= 0) {
            sink.classify(kMergedStreamPid, gap_start, input.endTime,
                          shutdown_at, shutdown_source);
            issue_shutdown(input.endTime);
        }
        disk.finish(input.endTime);

        result.energy = disk.ledger();
        result.shutdowns = disk.shutdownCount();
        result.spinUps = disk.spinUpCount();
        result.totalSpinUpDelay = disk.totalSpinUpDelay();
    }
    driver.endExecution(input, sink);
    if constexpr (Instrumented)
        observer_.onExecutionEnd(input, result);
    return result;
}

RunResult
SimulationKernel::run(const std::vector<ExecutionInput> &executions,
                      PolicyDriver &driver)
{
    RunResult total;
    for (const ExecutionInput &input : executions)
        total.merge(runExecution(input, driver));
    return total;
}

} // namespace pcap::sim
