/**
 * @file
 * Simulation observer layer: passive instrumentation hooks threaded
 * through the replay kernel and the power-managed disk.
 *
 * SimObserver extends power::DiskObserver (state transitions,
 * spin-up services) with replay-level callbacks: execution
 * boundaries, classified idle periods, and shutdown orders
 * issued/ignored. Observers never influence the simulation — the
 * kernel produces bit-identical results whether a NullObserver, a
 * provenance observer or a histogram collector is attached.
 */

#ifndef PCAP_SIM_OBSERVER_HPP
#define PCAP_SIM_OBSERVER_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/provenance_tap.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/timeline.hpp"
#include "power/disk.hpp"
#include "power/disk_params.hpp"
#include "pred/predictor.hpp"
#include "util/types.hpp"

namespace pcap::sim {

struct ExecutionInput;
struct RunResult;

/**
 * How one idle period was classified — the taxonomy behind the
 * paper's accuracy figures, plus Short for sub-breakeven periods in
 * which no shutdown fired (they carry no prediction outcome and are
 * excluded from AccuracyStats, but per-period instrumentation wants
 * to see them).
 */
enum class IdleOutcome : std::uint8_t {
    Short,        ///< gap <= breakeven, no shutdown fired
    NotPredicted, ///< opportunity missed without a shutdown
    HitPrimary,   ///< paying shutdown, primary prediction
    HitBackup,    ///< paying shutdown, backup timeout
    MissPrimary,  ///< losing shutdown, primary prediction
    MissBackup,   ///< losing shutdown, backup timeout
};

/** Stable lower-case name ("hit_primary", ...). */
const char *idleOutcomeName(IdleOutcome outcome);

/** One classified idle period, as the kernel tallied it. */
struct IdlePeriodRecord
{
    /** Owning stream: a process pid for the local (per-process)
     * replay, kMergedStreamPid for the merged global stream. */
    Pid pid = 0;
    TimeUs start = 0;      ///< last access (gap opens)
    TimeUs end = 0;        ///< next access or stream end
    TimeUs shutdownAt = -1; ///< spin-down time inside the gap, or -1
    /** Attribution of the shutdown (None when no shutdown fired). */
    pred::DecisionSource source = pred::DecisionSource::None;
    IdleOutcome outcome = IdleOutcome::Short;

    TimeUs length() const { return end - start; }
};

/**
 * Hook interface of the replay kernel. All callbacks default to
 * no-ops; implementations override what they need. Callbacks fire
 * on the simulating thread, in replay order.
 */
class SimObserver : public power::DiskObserver
{
  public:
    /** Replay of one execution begins. */
    virtual void onExecutionBegin(const ExecutionInput &input)
    {
        (void)input;
    }

    /** Replay of one execution finished with @p result. */
    virtual void onExecutionEnd(const ExecutionInput &input,
                                const RunResult &result)
    {
        (void)input;
        (void)result;
    }

    /** An idle period was classified and tallied. */
    virtual void onIdlePeriod(const IdlePeriodRecord &record)
    {
        (void)record;
    }

    /**
     * The kernel latched a standing shutdown decision for the
     * current idle gap: a spin-down will fire at @p at attributed to
     * @p source (unless the disk cannot serve it). Fires at most
     * once per gap, before the gap is classified.
     */
    virtual void onShutdownLatched(TimeUs at,
                                   pred::DecisionSource source)
    {
        (void)at;
        (void)source;
    }

    /** The power manager's spin-down order was accepted at @p at. */
    virtual void onShutdownIssued(TimeUs at) { (void)at; }

    /** A spin-down order could not be served (disk busy past the
     * gap, or already down). */
    virtual void onShutdownIgnored(TimeUs at) { (void)at; }
};

/** The do-nothing observer every uninstrumented run shares. */
class NullObserver final : public SimObserver
{
};

/** Shared NullObserver instance (default kernel observer). */
SimObserver &nullObserver();

/**
 * Fans every callback out to a list of observers, in order — e.g. a
 * provenance observer plus a metrics collector on the same run. Null
 * entries are rejected; the observers must outlive the tee.
 */
class TeeObserver final : public SimObserver
{
  public:
    explicit TeeObserver(std::vector<SimObserver *> observers);

    void onExecutionBegin(const ExecutionInput &input) override;
    void onExecutionEnd(const ExecutionInput &input,
                        const RunResult &result) override;
    void onIdlePeriod(const IdlePeriodRecord &record) override;
    void onShutdownLatched(TimeUs at,
                           pred::DecisionSource source) override;
    void onShutdownIssued(TimeUs at) override;
    void onShutdownIgnored(TimeUs at) override;
    void onDiskStateChange(TimeUs time, power::DiskState from,
                           power::DiskState to) override;
    void onSpinUpServed(TimeUs time, TimeUs delay) override;

  private:
    std::vector<SimObserver *> observers_;
};

/**
 * Provenance's join point: correlates the PCAP predictor's decision
 * events (via core::ProvenanceTap) with the kernel's classified idle
 * periods (via SimObserver) and writes one obs::ProvenanceRecord per
 * period to the sink, in period order.
 *
 * Attribution: per-process records (LocalDriver) join on the
 * record's own pid — classification precedes the predictor update
 * for the terminating access, so the stored decision event is still
 * the gap-opening one. Merged-stream records join through the
 * shutdown latch (the pid holding the winning global decision when
 * the kernel latched the spin-down, via bindDecisionPid); unlatched
 * merged gaps fall back to the live winner at classification time.
 *
 * The energy delta per shutdown period is what the spin-down was
 * worth against leaving the disk idling: idle power over the
 * off-time minus shutdown energy, standby power, and — unless the
 * gap runs to the end of the execution — one spin-up energy.
 */
class ProvenanceObserver final : public SimObserver,
                                 public core::ProvenanceTap
{
  public:
    ProvenanceObserver(obs::ProvenanceSink &sink,
                       const power::DiskParams &disk);

    /** Bind the query for the pid holding the current global
     * decision (GlobalDriver::decisionPid). Optional; without it
     * merged-stream records carry pid -1. */
    void bindDecisionPid(std::function<Pid()> query);

    // SimObserver hooks
    void onExecutionBegin(const ExecutionInput &input) override;
    void onIdlePeriod(const IdlePeriodRecord &record) override;
    void onShutdownLatched(TimeUs at,
                           pred::DecisionSource source) override;

    // core::ProvenanceTap hooks
    void onPcapDecision(Pid pid,
                        const core::PcapDecisionEvent &event) override;

  private:
    /** Copy a decision event's evidence into @p out. */
    static void fillDecision(obs::ProvenanceRecord &out,
                             const core::PcapDecisionEvent &event);

    obs::ProvenanceSink &sink_;
    power::DiskParams disk_;
    std::function<Pid()> decisionPid_;

    /** Latest decision event per process, current execution. */
    std::unordered_map<Pid, core::PcapDecisionEvent> latest_;

    bool latchValid_ = false;
    Pid latchPid_ = -1;
    bool latchHasEvent_ = false;
    core::PcapDecisionEvent latchEvent_;

    std::int32_t execution_ = 0;
    TimeUs execEnd_ = 0;
};

/**
 * Streams every replay-level event into ScopedMetrics series — the
 * kernel- and disk-layer instrumentation of the metrics subsystem.
 *
 * All recorded quantities are functions of the simulation alone
 * (simulated microseconds, event counts, joules), so a run's series
 * are byte-identical across machines, thread counts and workload
 * cache states. Metric handles are resolved once here in the
 * constructor, and per-event tallies accumulate in plain local
 * fields — an execution replays on one thread — flushed into the
 * shared atomics once per execution. A classified idle period costs
 * a bucket scan plus a few integer adds, not an atomic RMW.
 */
class MetricsObserver final : public SimObserver
{
  public:
    /**
     * @param scope     Cell-scoped handle (labels identify the run).
     * @param breakeven Histogram boundary anchor; the idle-length
     *                  buckets match IdleHistogramObserver's.
     * @param trackDisk False for diskless replays (local accuracy),
     *                  whose executions would otherwise read as one
     *                  long Idle residency.
     */
    MetricsObserver(obs::ScopedMetrics scope, TimeUs breakeven,
                    bool trackDisk = true);

    void onExecutionBegin(const ExecutionInput &input) override;
    void onExecutionEnd(const ExecutionInput &input,
                        const RunResult &result) override;
    void onIdlePeriod(const IdlePeriodRecord &record) override;
    void onShutdownIssued(TimeUs at) override;
    void onShutdownIgnored(TimeUs at) override;
    void onDiskStateChange(TimeUs time, power::DiskState from,
                           power::DiskState to) override;
    void onSpinUpServed(TimeUs time, TimeUs delay) override;

  private:
    /** Push the execution-local tallies into the shared series and
     * zero them. */
    void flush();

    obs::ScopedMetrics scope_;
    bool trackDisk_;

    obs::Counter &executions_;
    std::array<obs::Counter *, 6> idlePeriods_;
    obs::Histogram &idleLength_;
    obs::Counter &shutdownsIssued_;
    obs::Counter &shutdownsIgnored_;
    obs::Counter &spinUps_;
    obs::Counter &spinUpDelayUs_;
    std::array<obs::Counter *, 4> stateUs_;
    obs::Counter &stateTransitions_;

    // Execution-local tallies (the replay of one execution is
    // single-threaded; see flush()).
    std::vector<double> uppers_; ///< idle-length bucket bounds
    std::vector<std::uint64_t> localBuckets_;
    std::uint64_t localIdleCount_ = 0;
    double localIdleSum_ = 0.0;
    std::array<std::uint64_t, 6> localOutcomes_{};
    std::uint64_t localIssued_ = 0;
    std::uint64_t localIgnored_ = 0;
    std::uint64_t localSpinUps_ = 0;
    std::uint64_t localSpinUpDelay_ = 0;
    std::uint64_t localTransitions_ = 0;
    std::array<std::uint64_t, 4> localStateUs_{};

    power::DiskState lastState_ = power::DiskState::Idle;
    TimeUs lastChange_ = 0;
};

/**
 * Folds one cell's replay into an obs::Timeline over *simulated*
 * time: power-state residency, energy by category (per-state draw
 * plus transition costs), idle-period outcomes, shutdowns/spin-ups
 * and sampled prediction-table size. The bench_all --timeline-dir
 * sink; answers "when during the run" where MetricsObserver answers
 * "how much in total".
 *
 * Executions are laid end to end on one continuous timeline (an
 * execution beginning at simulated 0 continues at the accumulated
 * offset of every prior execution's end time), so a cell's document
 * covers the whole replay. Energy here is attributed by state and
 * split linearly across buckets — it reconciles with the
 * EnergyLedger total but categorizes by state, not by the paper's
 * Figure 8 gap taxonomy.
 */
class TimelineObserver final : public SimObserver
{
  public:
    /**
     * @param disk      Power draws for per-state energy attribution.
     * @param trackDisk False for diskless replays (local accuracy):
     *                  skips residency and energy, keeps outcomes.
     * @param buckets   Timeline resolution (even, >= 2).
     */
    explicit TimelineObserver(const power::DiskParams &disk,
                              bool trackDisk = true,
                              std::size_t buckets = 256);

    /** Bind the prediction-table size query (e.g. a session's
     * tableEntries()); sampled at execution boundaries and after
     * every classified idle period. Optional. */
    void bindTableSize(std::function<std::size_t()> query);

    void onExecutionBegin(const ExecutionInput &input) override;
    void onExecutionEnd(const ExecutionInput &input,
                        const RunResult &result) override;
    void onIdlePeriod(const IdlePeriodRecord &record) override;
    void onShutdownIssued(TimeUs at) override;
    void onDiskStateChange(TimeUs time, power::DiskState from,
                           power::DiskState to) override;
    void onSpinUpServed(TimeUs time, TimeUs delay) override;

    const obs::Timeline &timeline() const { return timeline_; }

    /** Meta block with the canonical sim-side name tables (disk
     * states, idle outcomes, energy rows) filled in. */
    static obs::TimelineMeta makeMeta(std::string cell,
                                      std::string mode,
                                      std::string app,
                                      std::string policy);

  private:
    /** Accrue residency + state-draw energy over [start, end). */
    void accrue(power::DiskState state, TimeUs startUs,
                TimeUs endUs);

    void sampleTable(TimeUs atUs);

    obs::Timeline timeline_;
    power::DiskParams disk_;
    bool trackDisk_;
    std::function<std::size_t()> tableSize_;

    TimeUs offset_ = 0; ///< summed end times of prior executions
    power::DiskState lastState_ = power::DiskState::Idle;
    TimeUs lastChange_ = 0;
};

/**
 * Accumulates the idle-length distribution, bucketed by period
 * length and broken down by outcome — the idle_histogram report.
 */
class IdleHistogramObserver final : public SimObserver
{
  public:
    static constexpr std::size_t kOutcomes = 6;

    struct Bucket
    {
        /** Inclusive upper bound of the bucket (µs); kTimeNever for
         * the final open bucket. */
        TimeUs upper = kTimeNever;
        std::array<std::uint64_t, kOutcomes> byOutcome{};

        std::uint64_t total() const;
    };

    /**
     * @p boundaries: strictly ascending inclusive upper bounds; an
     * open top bucket is appended automatically.
     */
    explicit IdleHistogramObserver(std::vector<TimeUs> boundaries);

    /** The standard boundaries used by the idle_histogram report:
     * sub-second decades, the breakeven time, and coarse tail. */
    static std::vector<TimeUs> defaultBoundaries(TimeUs breakeven);

    void onIdlePeriod(const IdlePeriodRecord &record) override;

    const std::vector<Bucket> &buckets() const { return buckets_; }

    /** Total periods observed across all buckets. */
    std::uint64_t totalPeriods() const { return periods_; }

  private:
    std::vector<Bucket> buckets_;
    std::uint64_t periods_ = 0;
};

} // namespace pcap::sim

#endif // PCAP_SIM_OBSERVER_HPP
