/**
 * @file
 * The replay kernel: one event loop for every evaluation mode.
 *
 * The kernel replays an ExecutionInput's accesses and process
 * starts/exits exactly once, in time order, and delegates every
 * policy decision to a PolicyDriver strategy — so idle-period
 * classification (IdleSink), shutdown issuance and RunResult
 * assembly exist in one place, and a new evaluation mode is a new
 * driver, not another loop.
 *
 * A SimObserver (observer.hpp) can be attached for per-idle-period
 * instrumentation; against the default NullObserver the replay is
 * compiled with every notification removed.
 */

#ifndef PCAP_SIM_KERNEL_HPP
#define PCAP_SIM_KERNEL_HPP

#include <vector>

#include "power/disk.hpp"
#include "pred/predictor.hpp"
#include "sim/input.hpp"
#include "sim/observer.hpp"
#include "sim/stats.hpp"

namespace pcap::sim {

/** Parameters shared by every simulation run. */
struct SimParams
{
    power::DiskParams disk;

    /** The breakeven time used for idle-period classification. */
    TimeUs breakeven() const { return disk.breakevenTime; }
};

/** Outcome of one policy over a set of executions. */
struct RunResult
{
    AccuracyStats accuracy;
    power::EnergyLedger energy;
    std::uint64_t shutdowns = 0;   ///< spin-downs actually performed
    std::uint64_t spinUps = 0;     ///< on-demand spin-ups
    std::uint64_t ignoredShutdowns = 0; ///< orders the disk refused
    TimeUs totalSpinUpDelay = 0;   ///< latency added by spin-ups

    /** Fold another run (e.g. another execution) into this one. */
    void merge(const RunResult &other);
};

/** Pid tag of the merged (whole-system) stream in idle-period
 * records; real processes use their own pid. */
constexpr Pid kMergedStreamPid = -1;

/**
 * The one place an idle period is classified and tallied
 * (previously the classifyGap free function, duplicated
 * per-stream). Tallies into AccuracyStats and emits one
 * IdlePeriodRecord per period to the observer — including Short
 * periods, which AccuracyStats ignores.
 *
 * When the observer is the shared NullObserver, classification runs
 * a stats-only fast path: no IdlePeriodRecord is built and no
 * virtual call is made per period. The tallies are identical either
 * way, so results never depend on instrumentation.
 */
class IdleSink
{
  public:
    IdleSink(TimeUs breakeven, AccuracyStats &stats,
             SimObserver &observer)
        : breakeven_(breakeven), stats_(stats), observer_(observer),
          instrumented_(&observer != &nullObserver())
    {
    }

    /**
     * Classify the idle period [gap_start, gap_end) of stream @p pid
     * given the shutdown (if any) that happened inside it.
     *
     * @param shutdown_at Time the disk was spun down, or -1 for none.
     * @param source      Attribution of the standing decision behind
     *                    the shutdown; a consent without a mechanism
     *                    behind it (DecisionSource::None with a
     *                    shutdown) counts as backup.
     */
    void classify(Pid pid, TimeUs gap_start, TimeUs gap_end,
                  TimeUs shutdown_at, pred::DecisionSource source)
    {
        const TimeUs gap = gap_end - gap_start;
        const bool opportunity = gap > breakeven_;
        if (opportunity)
            ++stats_.opportunities;

        if (shutdown_at >= 0) {
            // A consent without a mechanism behind it (a process
            // that never performed I/O holding the latest decision)
            // counts as backup: no primary predictor claimed it.
            const pred::DecisionSource effective =
                source == pred::DecisionSource::None
                    ? pred::DecisionSource::Backup
                    : source;
            const bool hit =
                opportunity && gap_end - shutdown_at >= breakeven_;
            if (hit)
                stats_.recordHit(effective);
            else
                stats_.recordMiss(effective);
            if (instrumented_) {
                const bool primary =
                    effective == pred::DecisionSource::Primary;
                emit(pid, gap_start, gap_end, shutdown_at, effective,
                     hit ? (primary ? IdleOutcome::HitPrimary
                                    : IdleOutcome::HitBackup)
                         : (primary ? IdleOutcome::MissPrimary
                                    : IdleOutcome::MissBackup));
            }
        } else if (opportunity) {
            ++stats_.notPredicted;
            if (instrumented_) {
                emit(pid, gap_start, gap_end, shutdown_at,
                     pred::DecisionSource::None,
                     IdleOutcome::NotPredicted);
            }
        } else if (instrumented_) {
            emit(pid, gap_start, gap_end, shutdown_at,
                 pred::DecisionSource::None, IdleOutcome::Short);
        }
    }

    TimeUs breakeven() const { return breakeven_; }

  private:
    /** Instrumented tail: build the record, virtual-dispatch it. */
    void emit(Pid pid, TimeUs gap_start, TimeUs gap_end,
              TimeUs shutdown_at, pred::DecisionSource source,
              IdleOutcome outcome);

    TimeUs breakeven_;
    AccuracyStats &stats_;
    SimObserver &observer_;
    bool instrumented_;
};

/**
 * Strategy interface the kernel delegates policy decisions to. One
 * driver instance replays any number of executions; beginExecution
 * resets per-execution state. Everything except beginExecution and
 * onAccess has a no-op (or never-consent) default, so minimal
 * drivers stay minimal.
 */
class PolicyDriver
{
  public:
    virtual ~PolicyDriver() = default;

    /** Whether the kernel should drive the disk model and classify
     * merged-stream gaps (false: the driver classifies its own
     * streams through the sink, e.g. per-process local replay). */
    virtual bool usesDisk() const = 0;

    /** A new execution starts; reset per-execution state. */
    virtual void beginExecution(const ExecutionInput &input) = 0;

    /** A process joins (initial process or fork). */
    virtual void processStart(Pid pid, TimeUs time);

    /** A process exits; its constraint disappears. */
    virtual void processExit(Pid pid, TimeUs time, IdleSink &sink);

    /**
     * The standing shutdown decision the kernel checks before every
     * event (disk drivers only). Defaults to never-consent.
     */
    virtual pred::ShutdownDecision standingDecision() const;

    /**
     * One disk access was replayed. For disk drivers, @p completion
     * is the service completion time the disk reported; diskless
     * drivers receive 0. Called after the kernel classified the
     * preceding merged-stream gap and issued any pending shutdown.
     */
    virtual void onAccess(const trace::DiskAccess &access,
                          TimeUs completion, IdleSink &sink) = 0;

    /** Whether the access just replayed parked the disk in the
     * low-power mode (the multi-state extension). */
    virtual bool parkLowPower() const;

    /** The execution's events are exhausted (before results are
     * assembled); classify trailing per-stream gaps here. */
    virtual void endExecution(const ExecutionInput &input,
                              IdleSink &sink);
};

/**
 * Replays executions against a driver, owning the disk model, the
 * merged-stream gap state machine and shutdown issuance.
 *
 * The replay walks the access array in order and merges in the
 * process starts and exits; at equal times starts come first, then
 * accesses, then exits. When the attached observer is the shared
 * NullObserver the whole replay is compiled with instrumentation
 * statically off — no observer virtual calls, no IdlePeriodRecord
 * construction, a disk model without notifications.
 */
class SimulationKernel
{
  public:
    explicit SimulationKernel(const SimParams &params,
                              SimObserver &observer = nullObserver())
        : params_(params), observer_(observer)
    {
    }

    /** Replay one execution. */
    RunResult runExecution(const ExecutionInput &input,
                           PolicyDriver &driver);

    /** Replay every execution in order and merge the results. */
    RunResult run(const std::vector<ExecutionInput> &executions,
                  PolicyDriver &driver);

    const SimParams &params() const { return params_; }

  private:
    /** The replay loop; Instrumented compiles observer dispatch in
     * or out (chosen once per execution, not per event). */
    template <bool Instrumented>
    RunResult replay(const ExecutionInput &input,
                     PolicyDriver &driver);

    SimParams params_;
    SimObserver &observer_;
};

} // namespace pcap::sim

#endif // PCAP_SIM_KERNEL_HPP
