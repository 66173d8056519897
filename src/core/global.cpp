#include "core/global.hpp"

#include <string>
#include <utility>

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
    if (isLive(pid)) {
        panic("GlobalShutdownPredictor: pid " + std::to_string(pid) +
              " already live");
    }
    slots_.push_back({pid, factory_(pid, time), -1,
                      pred::initialConsent(time)});
    const std::size_t index = slots_.size() - 1;
    if (!stale_ && (index == 0 || beats(slots_[index], slots_[winner_])))
        winner_ = index;
}

void
GlobalShutdownPredictor::processExit(Pid pid, TimeUs time)
{
    (void)time;
    const std::size_t index = find(pid);
    if (index == slots_.size()) {
        panic("GlobalShutdownPredictor: exit of unknown pid " +
              std::to_string(pid));
    }
    const std::size_t last = slots_.size() - 1;
    if (index == winner_)
        stale_ = true;
    else if (winner_ == last)
        winner_ = index; // the winner moves into the freed slot
    std::swap(slots_[index], slots_[last]);
    slots_.pop_back();
}

pred::ShutdownDecision
GlobalShutdownPredictor::onAccess(const trace::DiskAccess &access)
{
    const std::size_t index = find(access.pid);
    if (index == slots_.size()) {
        panic("GlobalShutdownPredictor: access from unknown pid " +
              std::to_string(access.pid));
    }
    Slot &slot = slots_[index];
    const Slot before{slot.pid, nullptr, slot.lastIoTime, slot.decision};

    slot.decision =
        slot.predictor->onIo(ioContextOf(access, slot.lastIoTime));
    slot.lastIoTime = access.time;
    if (!stale_) {
        if (index == winner_)
            stale_ = beats(before, slot); // the winner got worse
        else if (beats(slot, slots_[winner_]))
            winner_ = index;
    }
    return globalDecision();
}

void
GlobalShutdownPredictor::rescan() const
{
    winner_ = 0;
    for (std::size_t i = 1; i < slots_.size(); ++i) {
        if (beats(slots_[i], slots_[winner_]))
            winner_ = i;
    }
    stale_ = false;
}

pred::ShutdownDecision
GlobalShutdownPredictor::localDecision(Pid pid) const
{
    const std::size_t index = find(pid);
    if (index == slots_.size()) {
        panic("GlobalShutdownPredictor: localDecision of unknown pid " +
              std::to_string(pid));
    }
    return slots_[index].decision;
}

} // namespace pcap::core
