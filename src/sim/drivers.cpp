#include "sim/drivers.hpp"

#include <algorithm>
#include <string>

#include "util/logging.hpp"

namespace pcap::sim {

namespace {

/**
 * Shutdown semantics of a standing local decision over a gap ending
 * at @p gap_end: the spin-down fires at decision.earliest when that
 * falls inside the gap. @return the shutdown time or -1.
 */
TimeUs
localShutdownTime(const pred::ShutdownDecision &decision,
                  TimeUs gap_start, TimeUs gap_end)
{
    if (decision.earliest == kTimeNever)
        return -1;
    const TimeUs at = std::max(decision.earliest, gap_start);
    return at < gap_end ? at : -1;
}

} // namespace

// -- GlobalDriver ----------------------------------------------

GlobalDriver::GlobalDriver(PolicySession &session)
    : GlobalDriver(session, Options{})
{
}

GlobalDriver::GlobalDriver(PolicySession &session, Options options)
    : session_(session), options_(options)
{
}

void
GlobalDriver::beginExecution(const ExecutionInput &input)
{
    (void)input;
    session_.beginExecution();
    gsp_.emplace([this](Pid pid, TimeUs start) {
        return session_.makeLocal(pid, start);
    });
    park_ = false;
}

void
GlobalDriver::processStart(Pid pid, TimeUs time)
{
    gsp_->processStart(pid, time);
}

void
GlobalDriver::processExit(Pid pid, TimeUs time, IdleSink &sink)
{
    (void)sink;
    gsp_->processExit(pid, time);
}

pred::ShutdownDecision
GlobalDriver::standingDecision() const
{
    return gsp_->globalDecision();
}

void
GlobalDriver::onAccess(const trace::DiskAccess &access,
                       TimeUs completion, IdleSink &sink)
{
    (void)completion;
    (void)sink;
    const pred::ShutdownDecision d = gsp_->onAccess(access);
    park_ = options_.multiState &&
            d.source == pred::DecisionSource::Primary;
}

// -- LocalDriver -----------------------------------------------

LocalDriver::LocalDriver(PolicySession &session) : session_(session)
{
}

void
LocalDriver::beginExecution(const ExecutionInput &input)
{
    session_.beginExecution();
    contexts_.clear();
    warnedUnknownPid_ = false;
    contexts_.reserve(input.processes.size());
    for (const auto &span : input.processes) {
        contexts_.push_back({span.pid,
                             session_.makeLocal(span.pid, span.start),
                             -1, pred::initialConsent(span.start),
                             span.end});
    }
    // fromTrace lists spans in pid order; a hand-built input may not.
    std::sort(contexts_.begin(), contexts_.end(),
              [](const Ctx &a, const Ctx &b) { return a.pid < b.pid; });
}

void
LocalDriver::onAccess(const trace::DiskAccess &access,
                      TimeUs completion, IdleSink &sink)
{
    (void)completion;
    const auto it = std::lower_bound(
        contexts_.begin(), contexts_.end(), access.pid,
        [](const Ctx &ctx, Pid pid) { return ctx.pid < pid; });
    if (it == contexts_.end() || it->pid != access.pid) {
        // Malformed input: an access from a pid with no process
        // span. Historically dropped silently; make it visible
        // (once per execution) without changing the outcome.
        if (!warnedUnknownPid_) {
            warn("LocalDriver: dropping access from pid " +
                 std::to_string(access.pid) +
                 " with no process span (reported once per "
                 "execution)");
            warnedUnknownPid_ = true;
        }
        return;
    }
    Ctx &ctx = *it;

    if (ctx.prev >= 0) {
        sink.classify(access.pid, ctx.prev, access.time,
                      localShutdownTime(ctx.decision, ctx.prev,
                                        access.time),
                      ctx.decision.source);
    }

    ctx.decision =
        ctx.predictor->onIo(core::ioContextOf(access, ctx.prev));
    ctx.prev = access.time;
}

void
LocalDriver::endExecution(const ExecutionInput &input, IdleSink &sink)
{
    (void)input;
    // Trailing idle period of each process, to its exit — in pid
    // order, so observers see a deterministic record order.
    for (const Ctx &ctx : contexts_) {
        if (ctx.prev < 0 || ctx.spanEnd <= ctx.prev)
            continue;
        sink.classify(ctx.pid, ctx.prev, ctx.spanEnd,
                      localShutdownTime(ctx.decision, ctx.prev,
                                        ctx.spanEnd),
                      ctx.decision.source);
    }
}

// -- OracleDriver ----------------------------------------------

void
OracleDriver::beginExecution(const ExecutionInput &input)
{
    input_ = &input;
    index_ = 0;
    decision_ = {kTimeNever, pred::DecisionSource::None};
}

void
OracleDriver::onAccess(const trace::DiskAccess &access,
                       TimeUs completion, IdleSink &sink)
{
    (void)access;
    const TimeUs next = index_ + 1 < input_->accesses.size()
                            ? input_->accesses[index_ + 1].time
                            : input_->endTime;
    ++index_;
    // With future knowledge, spin down the moment the disk goes
    // idle — but only when the off-time pays off.
    if (next - completion >= sink.breakeven())
        decision_ = {completion, pred::DecisionSource::Primary};
    else
        decision_ = {kTimeNever, pred::DecisionSource::None};
}

} // namespace pcap::sim
