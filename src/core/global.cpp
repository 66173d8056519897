#include "core/global.hpp"

#include <string>

#include "util/logging.hpp"

namespace pcap::core {

GlobalShutdownPredictor::GlobalShutdownPredictor(Factory factory)
    : factory_(std::move(factory))
{
    if (!factory_)
        fatal("GlobalShutdownPredictor: factory must not be null");
}

void
GlobalShutdownPredictor::processStart(Pid pid, TimeUs time)
{
    if (slots_.count(pid)) {
        panic("GlobalShutdownPredictor: pid " + std::to_string(pid) +
              " already live");
    }
    Slot slot;
    slot.predictor = factory_(pid, time);
    slot.decision = pred::initialConsent(time);
    slots_.emplace(pid, std::move(slot));
}

void
GlobalShutdownPredictor::processExit(Pid pid, TimeUs time)
{
    (void)time;
    if (slots_.erase(pid) == 0) {
        panic("GlobalShutdownPredictor: exit of unknown pid " +
              std::to_string(pid));
    }
}

pred::ShutdownDecision
GlobalShutdownPredictor::onAccess(const trace::DiskAccess &access)
{
    auto it = slots_.find(access.pid);
    if (it == slots_.end()) {
        panic("GlobalShutdownPredictor: access from unknown pid " +
              std::to_string(access.pid));
    }
    Slot &slot = it->second;

    slot.decision =
        slot.predictor->onIo(ioContextOf(access, slot.lastIoTime));
    slot.lastIoTime = access.time;
    return globalDecision();
}

pred::ShutdownDecision
GlobalShutdownPredictor::globalDecision() const
{
    return globalDecisionDetailed().decision;
}

GlobalShutdownPredictor::AttributedDecision
GlobalShutdownPredictor::globalDecisionDetailed() const
{
    pred::ShutdownDecision best;
    bool first = true;
    TimeUs best_last_io = -1;
    Pid best_pid = -1;
    for (const auto &[pid, slot] : slots_) {
        // The latest earliest-time wins, so a process that never
        // consents (kTimeNever) always does. Ties go to the process
        // that decided most recently ("last decision" attribution),
        // then to the lowest pid so the combine is independent of the
        // hash map's iteration order.
        if (first || slot.decision.earliest > best.earliest ||
            (slot.decision.earliest == best.earliest &&
             (slot.lastIoTime > best_last_io ||
              (slot.lastIoTime == best_last_io && pid < best_pid)))) {
            best = slot.decision;
            best_last_io = slot.lastIoTime;
            best_pid = pid;
            first = false;
        }
    }
    if (first)
        return {{0, pred::DecisionSource::None}, -1}; // none live
    return {best, best_pid};
}

pred::ShutdownDecision
GlobalShutdownPredictor::localDecision(Pid pid) const
{
    auto it = slots_.find(pid);
    if (it == slots_.end()) {
        panic("GlobalShutdownPredictor: localDecision of unknown pid " +
              std::to_string(pid));
    }
    return it->second.decision;
}

} // namespace pcap::core
