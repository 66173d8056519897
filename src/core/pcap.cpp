#include "core/pcap.hpp"

#include "util/logging.hpp"

namespace pcap::core {

namespace {

// FNV-1a parameters for the order-sensitive full-path hash.
constexpr std::uint64_t kFnvOffset64 = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime64 = 0x100000001b3ull;

} // namespace

std::string
PcapConfig::variantName() const
{
    std::string name = "PCAP";
    if (useFd)
        name += 'f';
    if (useHistory)
        name += 'h';
    return name;
}

PcapPredictor::PcapPredictor(const PcapConfig &config,
                             std::shared_ptr<PredictionTable> table,
                             TimeUs start_time)
    : config_(config), table_(std::move(table)),
      startTime_(start_time),
      decision_(pred::initialConsent(start_time))
{
    if (!table_)
        fatal("PcapPredictor: table must not be null");
    if (config_.historyLength < 1 || config_.historyLength > 16)
        fatal("PcapPredictor: history length must be in [1, 16]");
    if (config_.waitWindow <= 0 || config_.timeout <= 0 ||
        config_.breakeven <= 0) {
        fatal("PcapPredictor: windows must be positive");
    }
    seedHistory();
}

void
PcapPredictor::seedHistory()
{
    // Before a process performs any I/O, the disk has — from its
    // point of view — been idle forever, so the history starts as
    // all long periods. This avoids a cold-start key mismatch in
    // every execution.
    historyBits_ = static_cast<std::uint16_t>(
        (1u << config_.historyLength) - 1);
    historyLen_ = config_.historyLength;
}

const char *
PcapPredictor::name() const
{
    if (config_.useFd && config_.useHistory)
        return "PCAPfh";
    if (config_.useFd)
        return "PCAPf";
    if (config_.useHistory)
        return "PCAPh";
    return "PCAP";
}

TableKey
PcapPredictor::makeKey(Fd fd) const
{
    TableKey key;
    key.signature = signature_.value();
    if (config_.useHistory) {
        key.historyBits = historyBits_;
        key.historyLength =
            static_cast<std::uint8_t>(config_.historyLength);
    }
    if (config_.useFd)
        key.fd = fd;
    return key;
}

void
PcapPredictor::pushHistory(bool long_idle)
{
    const std::uint32_t mask =
        (1u << config_.historyLength) - 1;
    historyBits_ = static_cast<std::uint16_t>(
        ((historyBits_ << 1) | (long_idle ? 1u : 0u)) & mask);
    historyLen_ = config_.historyLength;
}

void
PcapPredictor::attachProvenance(ProvenanceTap *tap, Pid pid)
{
    tap_ = tap;
    pid_ = pid;
    pathTail_.fill(0);
    pathTailLen_ = 0;
    pathLength_ = 0;
    pathHash_ = kFnvOffset64;
}

void
PcapPredictor::notePathPc(Address pc, bool reset)
{
    if (reset) {
        pathTail_.fill(0);
        pathTailLen_ = 0;
        pathLength_ = 0;
        pathHash_ = kFnvOffset64;
    }
    // FNV-1a over the PC's bytes: order-sensitive, so two paths that
    // alias under the 4-byte arithmetic sum still hash apart.
    std::uint64_t h = pathHash_;
    for (int shift = 0; shift < 32; shift += 8) {
        h ^= (pc >> shift) & 0xffu;
        h *= kFnvPrime64;
    }
    pathHash_ = h;
    ++pathLength_;
    if (pathTailLen_ < kProvenancePathDepth) {
        pathTail_[pathTailLen_++] = pc;
    } else {
        for (std::size_t i = 1; i < kProvenancePathDepth; ++i)
            pathTail_[i - 1] = pathTail_[i];
        pathTail_[kProvenancePathDepth - 1] = pc;
    }
}

void
PcapPredictor::observeGap(TimeUs gap)
{
    // Idle periods shorter than the wait-window are filtered at run
    // time (Section 4.1.1): no training, no history, the path
    // collection continues without interruption.
    if (gap < config_.waitWindow)
        return;

    const bool long_idle = gap > config_.breakeven;

    if (long_idle) {
        // The key that was current when the disk went idle preceded
        // a long idle period: learn it (Section 3.2).
        if (pendingValid_ && table_->train(pendingKey_))
            ++trainingInserts_;
        // The signature is overwritten by the PC of the first I/O of
        // the next path (Figure 4).
        resetPathOnNextIo_ = true;
    } else if (pendingValid_ && pendingPredicted_) {
        // The table predicted a long idle period but a merely-medium
        // one arrived: a misprediction the wait-window could not
        // filter (subpath aliasing, Section 4.1).
        ++mispredictionsObserved_;
        if (config_.unlearnOnMisprediction)
            table_->erase(pendingKey_);
    }

    pushHistory(long_idle);
}

pred::ShutdownDecision
PcapPredictor::onIo(const pred::IoContext &ctx)
{
    if (ctx.sincePrev >= 0)
        observeGap(ctx.sincePrev);

    const bool fresh_path = resetPathOnNextIo_;
    if (resetPathOnNextIo_) {
        signature_.reset(ctx.pc);
        resetPathOnNextIo_ = false;
    } else {
        signature_.extend(ctx.pc);
    }
    if (tap_)
        notePathPc(ctx.pc, fresh_path);

    const TableKey key = makeKey(ctx.fd);

    // Snapshot the entry around the mutating lookup — tap-only work,
    // worth two extra probes when a provenance tap is listening.
    std::uint32_t hits_before = 0, trainings_before = 0;
    bool present = false;
    if (tap_ && (present = table_->contains(key))) {
        const PredictionTable::Entry &entry = table_->entryOf(key);
        hits_before = entry.hits;
        trainings_before = entry.trainings;
    }

    const bool predicted = table_->lookup(key);
    pendingKey_ = key;
    pendingValid_ = true;
    pendingPredicted_ = predicted;

    if (predicted) {
        ++predictions_;
        decision_ = {ctx.time + config_.waitWindow,
                     pred::DecisionSource::Primary};
    } else if (config_.backupEnabled) {
        decision_ = {ctx.time + config_.timeout,
                     pred::DecisionSource::Backup};
    } else {
        decision_ = {kTimeNever, pred::DecisionSource::None};
    }

    if (tap_) {
        PcapDecisionEvent event;
        event.time = ctx.time;
        event.signature = signature_.value();
        event.pathHash = pathHash_;
        event.pathLength = pathLength_;
        event.pathTail = pathTail_;
        event.pathTailLength = pathTailLen_;
        event.predicted = predicted;
        event.entryPresent = present;
        event.entryHitsBefore = hits_before;
        event.entryTrainingsBefore = trainings_before;
        if (present) {
            const PredictionTable::Entry &entry =
                table_->entryOf(key);
            event.entryHitsAfter = entry.hits;
            event.entryTrainingsAfter = entry.trainings;
        }
        event.decision = decision_;
        tap_->onPcapDecision(pid_, event);
    }
    return decision_;
}

void
PcapPredictor::resetExecution()
{
    signature_.clear();
    seedHistory();
    resetPathOnNextIo_ = false;
    pendingValid_ = false;
    pendingPredicted_ = false;
    decision_ = pred::initialConsent(startTime_);
    pathTail_.fill(0);
    pathTailLen_ = 0;
    pathLength_ = 0;
    pathHash_ = kFnvOffset64;
}

} // namespace pcap::core
