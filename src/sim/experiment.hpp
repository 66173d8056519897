/**
 * @file
 * Experiment engine: ties the workload models, the file cache and
 * the replay kernel together, so every report and integration test
 * asks one object for the paper's numbers.
 *
 * ParallelEvaluation generates each application's traces exactly
 * once, filters them into inputs at each file-cache capacity,
 * memoizes every (mode x app x policy x capacity) cell, and can
 * prefetch a batch of cells across a thread pool. Each cell replays
 * on a private PolicySession, so results do not depend on the
 * thread count; at jobs = 1 everything runs on the caller.
 */

#ifndef PCAP_SIM_EXPERIMENT_HPP
#define PCAP_SIM_EXPERIMENT_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/cell_run.hpp"
#include "sim/input.hpp"
#include "sim/kernel.hpp"
#include "sim/policy.hpp"

namespace pcap::sim {

/**
 * The recipe of one application's inputs: every field that
 * generation depends on. Inputs are a pure function of it.
 */
struct WorkloadKey
{
    std::uint64_t seed = 0;
    cache::CacheParams cache;
    std::string app;
    int maxExecutions = 0;

    /** Canonical text form of every field; equal recipes give equal
     * strings. */
    std::string canonical() const;

    /** `<app>-<hash of canonical()>.pcin`, the run manifest's input
     * key. */
    std::string fileName() const;
};

/** Configuration of a whole evaluation. */
struct ExperimentConfig
{
    std::uint64_t seed = 42;     ///< workload master seed
    cache::CacheParams cache;    ///< paper defaults (256 KB, 30 s)
    SimParams sim;               ///< Fujitsu MHF 2043AT disk

    /**
     * When positive, cap each application at this many executions
     * (fast integration tests); 0 runs the paper's Table 1 counts.
     */
    int maxExecutions = 0;

    /** The recipe of one application's inputs. */
    WorkloadKey workloadKey(const std::string &app) const;
};

/** One row of Table 1. */
struct Table1Row
{
    int executions = 0;
    std::uint64_t globalIdlePeriods = 0;
    std::uint64_t localIdlePeriods = 0;
    std::uint64_t totalIos = 0;
};

/** Result of one replay cell plus the learned-state size (0 for
 * cells without a policy). */
struct GlobalOutcome
{
    RunResult run;
    std::size_t tableEntries = 0; ///< Table 3
};

/**
 * Generate every execution of @p app from @p seed. Per-execution
 * RNGs are forked sequentially from the app RNG before the parallel
 * expansion, so results do not depend on @p jobs. Generation does
 * not read the file-cache parameters; only the filter below does.
 *
 * @p maxExecutions caps the paper's execution count when positive
 * (0 runs the full Table 1 count). @p scope receives the
 * pcap_workload_generated_* counters (a disabled scope records
 * nothing).
 */
std::vector<trace::Trace>
generateTraces(std::uint64_t seed, const std::string &app,
               int maxExecutions, unsigned jobs,
               const obs::ScopedMetrics &scope);

/**
 * The cache-dependent half of input generation: filter each trace
 * through a cold file cache with @p params and extract its process
 * spans.
 */
std::vector<ExecutionInput>
inputsFromTraces(const std::vector<trace::Trace> &traces,
                 const cache::CacheParams &params, unsigned jobs);

/**
 * Stable identity of a PolicyConfig for result memoization: every
 * field that can alter simulation output, canonically serialized.
 */
std::string policyCacheKey(const PolicyConfig &policy);

/** 16-hex digest of policyCacheKey(): the "policy_hash" metric label
 * and the policy part of every artifact stem. */
std::string policyHash(const PolicyConfig &policy);

/** One independent unit of work for ParallelEvaluation::prefetch. */
struct Cell
{
    CellMode mode = CellMode::Global;
    std::string app;
    PolicyConfig policy; ///< ignored by Base/Ideal cells
    /** File-cache capacity the cell replays at; 0 means the
     * engine's config().cache.capacityBytes. */
    std::size_t cacheBytes = 0;
};

/** Options of the parallel experiment engine. */
struct ParallelOptions
{
    /** Worker threads for prefetch() and generation; 1 = inline. */
    unsigned jobs = 1;

    /**
     * When non-empty, every policy cell writes one provenance record
     * per classified idle period into this directory (created if
     * needed): one binary file per (mode, app, policy) cell, named
     * <mode>-<app>-<label>-<hash>.prov.bin. Empty disables
     * provenance entirely (the default path is untouched).
     */
    std::string provenanceDir;

    /**
     * When non-empty, every simulation cell folds its replay into a
     * simulated-time sim::TimelineObserver and writes the result
     * into this directory (created if needed): one pcap-timeline-v1
     * JSON document per (mode, app, policy) cell, named
     * <stem>.timeline.json. Empty disables timelines (the default
     * path is untouched).
     */
    std::string timelineDir;

    /**
     * Registry every layer records into, or null to disable
     * instrumentation. Each cell writes through a ScopedMetrics
     * labelled {config, mode, app, policy, policy_hash}, so parallel
     * cells touch disjoint series; the registry must outlive the
     * evaluation. Unless metricsDetail is set, the engine marks
     * `app` as a detail label of the registry, so its exports sum
     * each cell family over the applications (obs/export.hpp).
     */
    obs::MetricsRegistry *metrics = nullptr;

    /** Export every per-application series of metrics as recorded
     * instead of rolling them up over `app`. */
    bool metricsDetail = false;
};

/**
 * The parallel experiment engine. Thread-safe: any method may be
 * called from any thread; equal queries are computed once and
 * memoized. prefetch() fans a batch of cells across a thread pool
 * and joins — afterwards the plain accessors are cheap lookups.
 *
 * A query may name a file-cache capacity (a cache-size sweep); 0,
 * the default, and config().cache.capacityBytes both mean the
 * engine's own and share one memo slot. Capacities other than the
 * engine's label their metrics and artifacts with the config hash
 * of the config with that capacity substituted.
 *
 * Memory: raw traces, cell outcomes and whatever inputs() built
 * stay resident for the engine's lifetime. prefetch() memoizes no
 * input at another capacity: it filters each such (app, capacity)
 * of a batch in turn, replays its cells on it and drops it, so at
 * most one is live at any job count. The input and cache series
 * and diskAccesses() are recorded the first time an (app,
 * capacity) is filtered, whichever path filters it.
 *
 * Results do not depend on the thread count or the memo layers:
 * inputs are the same deterministic function of the seed (whether
 * generated or memoized), and each cell runs the serial replay
 * kernel on a private PolicySession.
 */
class ParallelEvaluation
{
  public:
    explicit ParallelEvaluation(ExperimentConfig config = {},
                                ParallelOptions options = {});

    /** The configuration in use. */
    const ExperimentConfig &config() const { return config_; }

    /** Threads prefetch() may use; hardwareJobs() if constructed
     * with 0. */
    unsigned jobs() const { return options_.jobs; }

    /** The six application names of Table 1. */
    const std::vector<std::string> &appNames() const
    {
        return appNames_;
    }

    /** Post-cache inputs of every execution of @p app, filtered at
     * @p cacheBytes (cached for the engine's lifetime; a sweep input
     * prefetch() filtered and dropped is filtered again). */
    const std::vector<ExecutionInput> &inputs(const std::string &app,
                                              std::size_t cacheBytes = 0);

    /** Disk accesses in every execution of @p app at @p cacheBytes,
     * recorded when the input was first filtered; it calls inputs()
     * only if it never was. */
    std::uint64_t diskAccesses(const std::string &app,
                               std::size_t cacheBytes = 0);

    /** Table 1 for @p app, from the generated workload. */
    sim::Table1Row table1(const std::string &app);

    /** Figure 6: local accuracy of @p policy on @p app. */
    const AccuracyStats &localAccuracy(const std::string &app,
                                       const PolicyConfig &policy)
    {
        return outcome({CellMode::Local, app, policy}).run.accuracy;
    }

    /** Figures 7-10: global run of @p policy on @p app. */
    const sim::GlobalOutcome &globalRun(const std::string &app,
                                        const PolicyConfig &policy,
                                        std::size_t cacheBytes = 0)
    {
        return outcome({CellMode::Global, app, policy, cacheBytes});
    }

    /** Section 7 extension: multi-state global run. */
    const sim::GlobalOutcome &
    multiStateRun(const std::string &app, const PolicyConfig &policy)
    {
        return outcome({CellMode::MultiState, app, policy});
    }

    /** Figure 8 "Base": no power management. */
    const RunResult &baseRun(const std::string &app,
                             std::size_t cacheBytes = 0)
    {
        return outcome({CellMode::Base, app, {}, cacheBytes}).run;
    }

    /** Figure 8 "Ideal": the oracle. */
    const RunResult &idealRun(const std::string &app)
    {
        return outcome({CellMode::Ideal, app, {}}).run;
    }

    /**
     * Compute every cell (and the inputs they need) across the
     * worker pool, then join. Duplicate and already computed cells
     * cost nothing extra. The engine's own inputs are built first
     * through inputs(); then each cell at that capacity is one task,
     * while one lane takes the other cells one (app, capacity)
     * group at a time: filter the input (unless inputs() holds it),
     * replay the group on it in a nested fan-out, drop it.
     */
    void prefetch(const std::vector<Cell> &cells);

    /** Make every application's inputs at the engine's own capacity
     * resident, in parallel. */
    void prefetchInputs();

  private:
    template <typename T> struct Memo
    {
        std::once_flag once;
        T value{};
        std::atomic<bool> ready{false}; ///< value computed
    };

    /** Memo slot for @p key in @p map, created under the lock. */
    template <typename T>
    std::shared_ptr<Memo<T>>
    slot(std::map<std::string, std::shared_ptr<Memo<T>>> &map,
         const std::string &key);

    /** Filter the traces of @p app at resolved @p capacity; the
     * first filter of each (app, capacity) records its input and
     * cache series and its access count. */
    std::vector<ExecutionInput> filter(const std::string &app,
                                       std::size_t capacity);

    /** The generated traces of @p app (cached); generation records
     * into the engine's own config label. */
    const std::vector<trace::Trace> &traces(const std::string &app);

    /** @p cacheBytes with 0 resolved to the engine's capacity. */
    std::size_t capacityOf(std::size_t cacheBytes) const
    {
        return cacheBytes ? cacheBytes : config_.cache.capacityBytes;
    }

    /** The "config" label value of the config at @p capacity. */
    std::string configHashAt(std::size_t capacity) const;

    /** The memoized outcome of one replay cell; if it must be
     * computed, it replays @p executions, or inputs() when null. */
    const sim::GlobalOutcome &
    outcome(const Cell &cell,
            const std::vector<ExecutionInput> *executions = nullptr);

    /**
     * Replay one cell on @p executions through a CellRun carrying
     * the engine's metrics scope and artifact paths. @p capacity is
     * resolved.
     */
    sim::GlobalOutcome
    runCell(const Cell &cell, std::size_t capacity,
            const std::vector<ExecutionInput> &executions);

    /**
     * File stem identifying one cell:
     * <mode>-<app>[-c<config hash>][-<label>-<policy hash>]; the
     * config hash appears for every config but the default one, and
     * the policy hash disambiguates sweep variants sharing a label.
     */
    std::string cellFileStem(const char *mode, const std::string &app,
                             const PolicyConfig *policy,
                             const std::string &configHash) const;

    /** Scope labelled {config, mode, app[, policy, policy_hash]};
     * disabled when no registry is attached. */
    obs::ScopedMetrics cellScope(const char *mode,
                                 const std::string &app,
                                 const PolicyConfig *policy,
                                 const std::string &configHash) const;

    /** Scope labelled {config, app} for input-level metrics. */
    obs::ScopedMetrics appScope(const std::string &app,
                                const std::string &configHash) const;

    ExperimentConfig config_;
    ParallelOptions options_;
    std::vector<std::string> appNames_;
    /** 16-hex digest of every config field that can alter results —
     * the "config" label value of the engine's own capacity;
     * configHashAt() gives the other capacities'. */
    std::string configHash_;

    std::mutex mutex_; ///< guards the maps below (not the memos)
    /** Keyed by app; every capacity refilters the same traces. */
    std::map<std::string,
             std::shared_ptr<Memo<std::vector<trace::Trace>>>>
        traces_;
    /** Keyed by inputKey(app, capacity). */
    std::map<std::string,
             std::shared_ptr<Memo<std::vector<ExecutionInput>>>>
        inputs_;
    /** Disk accesses per input, keyed like inputs_; computing it
     * records the input's series. */
    std::map<std::string, std::shared_ptr<Memo<std::uint64_t>>>
        diskAccesses_;
    /** Keyed by cellKey(mode, app, capacity, policy). */
    std::map<std::string, std::shared_ptr<Memo<sim::GlobalOutcome>>>
        cells_;
};

/**
 * The old name of the engine interface. The benchmark harness in
 * perfbench/ still spells it and is kept unedited; code in this
 * repository names ParallelEvaluation.
 */
using EvaluationApi = ParallelEvaluation;

} // namespace pcap::sim

#endif // PCAP_SIM_EXPERIMENT_HPP
