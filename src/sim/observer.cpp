#include "sim/observer.hpp"

#include <algorithm>

#include "sim/input.hpp"
#include "sim/kernel.hpp"
#include "util/logging.hpp"

namespace pcap::sim {

const char *
idleOutcomeName(IdleOutcome outcome)
{
    switch (outcome) {
      case IdleOutcome::Short: return "short";
      case IdleOutcome::NotPredicted: return "not_predicted";
      case IdleOutcome::HitPrimary: return "hit_primary";
      case IdleOutcome::HitBackup: return "hit_backup";
      case IdleOutcome::MissPrimary: return "miss_primary";
      case IdleOutcome::MissBackup: return "miss_backup";
    }
    return "unknown";
}

SimObserver &
nullObserver()
{
    static NullObserver observer;
    return observer;
}

// ---------------------------------------------------------------
// TeeObserver
// ---------------------------------------------------------------

TeeObserver::TeeObserver(std::vector<SimObserver *> observers)
    : observers_(std::move(observers))
{
    for (SimObserver *observer : observers_) {
        if (!observer)
            panic("TeeObserver: null observer");
    }
}

void
TeeObserver::onExecutionBegin(const ExecutionInput &input)
{
    for (SimObserver *observer : observers_)
        observer->onExecutionBegin(input);
}

void
TeeObserver::onExecutionEnd(const ExecutionInput &input,
                            const RunResult &result)
{
    for (SimObserver *observer : observers_)
        observer->onExecutionEnd(input, result);
}

void
TeeObserver::onIdlePeriod(const IdlePeriodRecord &record)
{
    for (SimObserver *observer : observers_)
        observer->onIdlePeriod(record);
}

void
TeeObserver::onShutdownLatched(TimeUs at, pred::DecisionSource source)
{
    for (SimObserver *observer : observers_)
        observer->onShutdownLatched(at, source);
}

void
TeeObserver::onShutdownIssued(TimeUs at)
{
    for (SimObserver *observer : observers_)
        observer->onShutdownIssued(at);
}

void
TeeObserver::onShutdownIgnored(TimeUs at)
{
    for (SimObserver *observer : observers_)
        observer->onShutdownIgnored(at);
}

void
TeeObserver::onDiskStateChange(TimeUs time, power::DiskState from,
                               power::DiskState to)
{
    for (SimObserver *observer : observers_)
        observer->onDiskStateChange(time, from, to);
}

void
TeeObserver::onSpinUpServed(TimeUs time, TimeUs delay)
{
    for (SimObserver *observer : observers_)
        observer->onSpinUpServed(time, delay);
}

// ---------------------------------------------------------------
// ProvenanceObserver
// ---------------------------------------------------------------

static_assert(obs::kProvenancePathTail == core::kProvenancePathDepth,
              "provenance record and core tap disagree on the path "
              "tail depth");

ProvenanceObserver::ProvenanceObserver(
    obs::ProvenanceSink &sink, const power::DiskParams &disk)
    : sink_(sink), disk_(disk)
{
}

void
ProvenanceObserver::bindDecisionPid(std::function<Pid()> query)
{
    decisionPid_ = std::move(query);
}

void
ProvenanceObserver::onExecutionBegin(const ExecutionInput &input)
{
    latest_.clear();
    latchValid_ = false;
    latchHasEvent_ = false;
    execution_ = input.execution;
    execEnd_ = input.endTime;
}

void
ProvenanceObserver::onPcapDecision(Pid pid,
                                   const core::PcapDecisionEvent &event)
{
    latest_[pid] = event;
}

void
ProvenanceObserver::onShutdownLatched(TimeUs at,
                                      pred::DecisionSource source)
{
    (void)at;
    (void)source;
    latchValid_ = true;
    latchPid_ = decisionPid_ ? decisionPid_() : -1;
    latchHasEvent_ = false;
    auto it = latest_.find(latchPid_);
    if (it != latest_.end()) {
        latchEvent_ = it->second;
        latchHasEvent_ = true;
    }
}

void
ProvenanceObserver::fillDecision(obs::ProvenanceRecord &out,
                                 const core::PcapDecisionEvent &event)
{
    out.flags |= obs::kProvHasDecision;
    out.signature = event.signature;
    out.pathHash = event.pathHash;
    out.pathLength = event.pathLength;
    out.pathTail = event.pathTail;
    out.pathTailLength = event.pathTailLength;
    out.decisionTimeUs = event.time;
    out.decisionEarliestUs = event.decision.earliest == kTimeNever
                                 ? -1
                                 : event.decision.earliest;
    if (event.predicted)
        out.flags |= obs::kProvPredicted;
    if (event.entryPresent) {
        out.flags |= obs::kProvEntryPresent;
        out.entryHitsBefore = event.entryHitsBefore;
        out.entryTrainingsBefore = event.entryTrainingsBefore;
        out.entryHitsAfter = event.entryHitsAfter;
        out.entryTrainingsAfter = event.entryTrainingsAfter;
    }
}

void
ProvenanceObserver::onIdlePeriod(const IdlePeriodRecord &record)
{
    obs::ProvenanceRecord out;
    out.startUs = record.start;
    out.endUs = record.end;
    out.shutdownUs = record.shutdownAt;
    out.execution = execution_;
    out.outcome = static_cast<std::uint8_t>(record.outcome);
    out.source = static_cast<std::uint8_t>(record.source);

    Pid pid = record.pid;
    const core::PcapDecisionEvent *event = nullptr;
    if (record.pid != kMergedStreamPid) {
        // Per-process stream: the stored event is still the
        // gap-opening one (classification precedes the predictor
        // update for the terminating access).
        auto it = latest_.find(pid);
        if (it != latest_.end())
            event = &it->second;
    } else if (latchValid_) {
        pid = latchPid_;
        if (latchHasEvent_)
            event = &latchEvent_;
    } else if (decisionPid_) {
        // No shutdown latched in this gap: attribute to the live
        // holder of the global decision.
        pid = decisionPid_();
        auto it = latest_.find(pid);
        if (it != latest_.end())
            event = &it->second;
    }
    latchValid_ = false;

    out.pid = pid;
    if (event)
        fillDecision(out, *event);

    if (record.shutdownAt >= 0) {
        const double off_sec =
            usToSeconds(record.end - record.shutdownAt);
        double cost = disk_.shutdownEnergyJ +
                      disk_.standbyPowerW * off_sec;
        // The trailing gap of an execution ends with the disk still
        // down: no spin-up is charged against it.
        if (record.end != execEnd_)
            cost += disk_.spinUpEnergyJ;
        out.energyDeltaJ = disk_.idlePowerW * off_sec - cost;
    }
    sink_.write(out);
}

// ---------------------------------------------------------------
// MetricsObserver
// ---------------------------------------------------------------

namespace {

/**
 * Idle-length bucket bounds in simulated µs, matching
 * IdleHistogramObserver::defaultBoundaries. Sorted and deduplicated
 * because an ablated breakeven may coincide with (or cross) the
 * fixed decades.
 */
std::vector<double>
idleLengthUppers(TimeUs breakeven)
{
    std::vector<double> uppers;
    for (TimeUs upper : IdleHistogramObserver::defaultBoundaries(
             breakeven))
        uppers.push_back(static_cast<double>(upper));
    std::sort(uppers.begin(), uppers.end());
    uppers.erase(std::unique(uppers.begin(), uppers.end()),
                 uppers.end());
    return uppers;
}

} // namespace

MetricsObserver::MetricsObserver(obs::ScopedMetrics scope,
                                 TimeUs breakeven, bool trackDisk)
    : scope_(std::move(scope)), trackDisk_(trackDisk),
      executions_(scope_.counter("pcap_sim_executions_total")),
      idleLength_(scope_.histogram("pcap_sim_idle_period_us",
                                   idleLengthUppers(breakeven))),
      shutdownsIssued_(scope_.counter(
          "pcap_sim_shutdown_orders_total", {{"status", "issued"}})),
      shutdownsIgnored_(scope_.counter(
          "pcap_sim_shutdown_orders_total", {{"status", "ignored"}})),
      spinUps_(scope_.counter("pcap_disk_spin_ups_total")),
      spinUpDelayUs_(
          scope_.counter("pcap_disk_spin_up_delay_us_total")),
      stateTransitions_(
          scope_.counter("pcap_disk_state_transitions_total")),
      uppers_(idleLengthUppers(breakeven)),
      localBuckets_(uppers_.size() + 1, 0)
{
    for (std::size_t i = 0; i < idlePeriods_.size(); ++i) {
        idlePeriods_[i] = &scope_.counter(
            "pcap_sim_idle_periods_total",
            {{"outcome",
              idleOutcomeName(static_cast<IdleOutcome>(i))}});
    }
    static constexpr power::DiskState kStates[] = {
        power::DiskState::Active,
        power::DiskState::Idle,
        power::DiskState::LowPower,
        power::DiskState::Standby,
    };
    for (std::size_t i = 0; i < stateUs_.size(); ++i) {
        stateUs_[i] = &scope_.counter(
            "pcap_disk_state_us_total",
            {{"state", power::diskStateName(kStates[i])}});
    }
}

void
MetricsObserver::flush()
{
    for (std::size_t i = 0; i < localOutcomes_.size(); ++i) {
        if (localOutcomes_[i]) {
            idlePeriods_[i]->inc(localOutcomes_[i]);
            localOutcomes_[i] = 0;
        }
    }
    if (localIdleCount_) {
        idleLength_.merge(localBuckets_, localIdleCount_,
                          localIdleSum_);
        std::fill(localBuckets_.begin(), localBuckets_.end(), 0);
        localIdleCount_ = 0;
        localIdleSum_ = 0.0;
    }
    shutdownsIssued_.inc(localIssued_);
    shutdownsIgnored_.inc(localIgnored_);
    spinUps_.inc(localSpinUps_);
    spinUpDelayUs_.inc(localSpinUpDelay_);
    stateTransitions_.inc(localTransitions_);
    localIssued_ = localIgnored_ = 0;
    localSpinUps_ = localSpinUpDelay_ = localTransitions_ = 0;
    for (std::size_t i = 0; i < localStateUs_.size(); ++i) {
        if (localStateUs_[i]) {
            stateUs_[i]->inc(localStateUs_[i]);
            localStateUs_[i] = 0;
        }
    }
}

void
MetricsObserver::onExecutionBegin(const ExecutionInput &input)
{
    (void)input;
    executions_.inc();
    // A fresh PowerManagedDisk starts Idle at time zero.
    lastState_ = power::DiskState::Idle;
    lastChange_ = 0;
}

void
MetricsObserver::onExecutionEnd(const ExecutionInput &input,
                                const RunResult &result)
{
    if (trackDisk_ && input.endTime > lastChange_) {
        // No transition fires at finish; close the residency of the
        // final state by hand.
        localStateUs_[static_cast<std::size_t>(lastState_)] +=
            static_cast<std::uint64_t>(input.endTime - lastChange_);
    }
    flush();
    power::recordLedgerMetrics(result.energy, scope_);
}

void
MetricsObserver::onIdlePeriod(const IdlePeriodRecord &record)
{
    ++localOutcomes_[static_cast<std::size_t>(record.outcome)];
    const double length = static_cast<double>(record.length());
    std::size_t index = 0;
    while (index < uppers_.size() && length > uppers_[index])
        ++index;
    ++localBuckets_[index];
    ++localIdleCount_;
    localIdleSum_ += length;
}

void
MetricsObserver::onShutdownIssued(TimeUs at)
{
    (void)at;
    ++localIssued_;
}

void
MetricsObserver::onShutdownIgnored(TimeUs at)
{
    (void)at;
    ++localIgnored_;
}

void
MetricsObserver::onDiskStateChange(TimeUs time, power::DiskState from,
                                   power::DiskState to)
{
    (void)from;
    if (!trackDisk_)
        return;
    ++localTransitions_;
    if (time > lastChange_) {
        localStateUs_[static_cast<std::size_t>(lastState_)] +=
            static_cast<std::uint64_t>(time - lastChange_);
    }
    lastState_ = to;
    lastChange_ = time;
}

void
MetricsObserver::onSpinUpServed(TimeUs time, TimeUs delay)
{
    (void)time;
    ++localSpinUps_;
    localSpinUpDelay_ += static_cast<std::uint64_t>(delay);
}

// ---------------------------------------------------------------
// TimelineObserver
// ---------------------------------------------------------------

static_assert(obs::kTimelineStates == 4,
              "timeline state rows must cover power::DiskState");
static_assert(obs::kTimelineOutcomes == 6,
              "timeline outcome rows must cover sim::IdleOutcome");

namespace {

/** Power draw of @p state in watts. */
double
stateDrawW(const power::DiskParams &disk, power::DiskState state)
{
    switch (state) {
      case power::DiskState::Active: return disk.busyPowerW;
      case power::DiskState::Idle: return disk.idlePowerW;
      case power::DiskState::LowPower: return disk.lowPowerIdleW;
      case power::DiskState::Standby: return disk.standbyPowerW;
    }
    return 0.0;
}

} // namespace

TimelineObserver::TimelineObserver(const power::DiskParams &disk,
                                   bool trackDisk,
                                   std::size_t buckets)
    : timeline_(buckets), disk_(disk), trackDisk_(trackDisk)
{
}

void
TimelineObserver::bindTableSize(std::function<std::size_t()> query)
{
    tableSize_ = std::move(query);
}

obs::TimelineMeta
TimelineObserver::makeMeta(std::string cell, std::string mode,
                           std::string app, std::string policy)
{
    obs::TimelineMeta meta;
    meta.cell = std::move(cell);
    meta.mode = std::move(mode);
    meta.app = std::move(app);
    meta.policy = std::move(policy);
    meta.stateNames = {"active", "idle", "low_power", "standby"};
    for (std::size_t i = 0; i < obs::kTimelineOutcomes; ++i) {
        meta.outcomeNames.push_back(
            idleOutcomeName(static_cast<IdleOutcome>(i)));
    }
    // Energy rows: per-state draw in DiskState order, plus the
    // spin-down/spin-up/head-load transition costs.
    meta.energyNames = {"active", "idle", "low_power", "standby",
                        "transition"};
    return meta;
}

void
TimelineObserver::accrue(power::DiskState state, TimeUs startUs,
                         TimeUs endUs)
{
    if (endUs <= startUs)
        return;
    const std::size_t row = static_cast<std::size_t>(state);
    timeline_.addStateResidency(row, startUs, endUs);
    timeline_.addEnergy(row, startUs, endUs,
                        stateDrawW(disk_, state) *
                            usToSeconds(endUs - startUs));
}

void
TimelineObserver::sampleTable(TimeUs atUs)
{
    if (tableSize_)
        timeline_.sampleTable(atUs, tableSize_());
}

void
TimelineObserver::onExecutionBegin(const ExecutionInput &input)
{
    (void)input;
    // A fresh PowerManagedDisk starts Idle at time zero.
    lastState_ = power::DiskState::Idle;
    lastChange_ = 0;
    sampleTable(offset_);
}

void
TimelineObserver::onExecutionEnd(const ExecutionInput &input,
                                 const RunResult &result)
{
    (void)result;
    if (trackDisk_) {
        // No transition fires at finish; close the final state's
        // residency by hand, as MetricsObserver does.
        accrue(lastState_, offset_ + lastChange_,
               offset_ + input.endTime);
    }
    offset_ += input.endTime;
    sampleTable(offset_ > 0 ? offset_ - 1 : 0);
}

void
TimelineObserver::onIdlePeriod(const IdlePeriodRecord &record)
{
    timeline_.countOutcome(
        static_cast<std::size_t>(record.outcome),
        offset_ + record.end);
    sampleTable(offset_ + record.end);
}

void
TimelineObserver::onShutdownIssued(TimeUs at)
{
    timeline_.countShutdown(offset_ + at);
}

void
TimelineObserver::onDiskStateChange(TimeUs time,
                                    power::DiskState from,
                                    power::DiskState to)
{
    if (!trackDisk_)
        return;
    accrue(lastState_, offset_ + lastChange_, offset_ + time);
    // Transition costs land at the instant of the change: entering
    // standby pays the spin-down, leaving it pays the spin-up, and
    // re-loading the heads out of low power pays the exit energy.
    double transitionJ = 0.0;
    if (to == power::DiskState::Standby)
        transitionJ += disk_.shutdownEnergyJ;
    if (from == power::DiskState::Standby)
        transitionJ += disk_.spinUpEnergyJ;
    if (from == power::DiskState::LowPower &&
        to != power::DiskState::Standby)
        transitionJ += disk_.lowPowerExitEnergyJ;
    if (transitionJ > 0.0) {
        timeline_.addEnergy(obs::kTimelineEnergyTransition,
                            offset_ + time, offset_ + time,
                            transitionJ);
    }
    lastState_ = to;
    lastChange_ = time;
}

void
TimelineObserver::onSpinUpServed(TimeUs time, TimeUs delay)
{
    (void)delay;
    timeline_.countSpinUp(offset_ + time);
}

// ---------------------------------------------------------------
// IdleHistogramObserver
// ---------------------------------------------------------------

std::uint64_t
IdleHistogramObserver::Bucket::total() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t count : byOutcome)
        sum += count;
    return sum;
}

IdleHistogramObserver::IdleHistogramObserver(
    std::vector<TimeUs> boundaries)
{
    TimeUs previous = -1;
    for (TimeUs upper : boundaries) {
        if (upper <= previous) {
            fatal("IdleHistogramObserver: boundaries must be "
                  "strictly ascending");
        }
        previous = upper;
        Bucket bucket;
        bucket.upper = upper;
        buckets_.push_back(bucket);
    }
    buckets_.push_back(Bucket{}); // open top bucket
}

std::vector<TimeUs>
IdleHistogramObserver::defaultBoundaries(TimeUs breakeven)
{
    return {millisUs(10.0),  millisUs(100.0), secondsUs(1.0),
            breakeven,       secondsUs(10.0), secondsUs(30.0),
            secondsUs(60.0), secondsUs(300.0)};
}

void
IdleHistogramObserver::onIdlePeriod(const IdlePeriodRecord &record)
{
    const TimeUs length = record.length();
    std::size_t index = 0;
    while (index + 1 < buckets_.size() &&
           length > buckets_[index].upper)
        ++index;
    ++buckets_[index]
          .byOutcome[static_cast<std::size_t>(record.outcome)];
    ++periods_;
}

} // namespace pcap::sim
