/**
 * @file
 * Experiment engine: ties the workload models, the file cache and
 * the replay kernel together, so every report and integration test
 * asks one object for the paper's numbers.
 *
 * ParallelEvaluation generates each application's traces exactly
 * once, streams them through the file cache one execution at a
 * time, memoizes every (mode x app x policy x capacity) cell, and
 * can prefetch a batch of cells across a thread pool. Each cell
 * replays on a private PolicySession, so results do not depend on
 * the thread count; at jobs = 1 everything runs on the caller.
 */

#ifndef PCAP_SIM_EXPERIMENT_HPP
#define PCAP_SIM_EXPERIMENT_HPP

#include <cstdint>
#include <functional>
#include <map>
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
 * Memory: raw traces, cell outcomes and each input's facts (Table 1
 * counts, disk accesses) stay resident; no filtered input does. A
 * cell replays in the stream of its (app, capacity) group, which
 * filters one execution into a reused input, replays it on every
 * cell of the group and moves on. The first pass over an input, a
 * stream or a facts-only pass, records its facts and series.
 *
 * Results do not depend on the thread count or on how a batch is
 * split: the input of an execution is the same deterministic
 * function of the seed in every pass, and each cell runs the serial
 * replay kernel on a private PolicySession.
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

    /** Call @p fn on every execution of @p app in order, filtered at
     * @p cacheBytes into one reused input: a fresh pass per call. */
    void forEachExecution(
        const std::string &app, std::size_t cacheBytes,
        const std::function<void(const ExecutionInput &)> &fn);

    /** Disk accesses in every execution of @p app at @p cacheBytes,
     * recorded by the first pass over that input. */
    std::uint64_t diskAccesses(const std::string &app,
                               std::size_t cacheBytes = 0)
    {
        return facts(app, capacityOf(cacheBytes)).accesses;
    }

    /** Table 1 for @p app, recorded by the first pass over its input
     * at the engine's capacity. */
    sim::Table1Row table1(const std::string &app)
    {
        return facts(app, config_.cache.capacityBytes).table1;
    }

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
     * Compute every cell across the worker pool, then join.
     * Duplicate and computed cells cost nothing. After generating
     * the batch's traces, each (app, capacity) group of cells is one
     * task that streams the app's executions through the filter and
     * replays each on the group's cells in a nested fan-out. Calls
     * take turns, so each cell replays in exactly one stream.
     */
    void prefetch(const std::vector<Cell> &cells);

    /** Generate every application's traces and record the facts of
     * its input at the engine's capacity. */
    void prefetchInputs();

  private:
    /** What a pass over one (app, capacity) input adds up. */
    struct InputFacts
    {
        Table1Row table1;
        std::uint64_t accesses = 0; ///< post-cache disk accesses
        std::uint64_t spanUs = 0;   ///< summed execution lengths
        cache::CacheStats cache;

        void merge(const InputFacts &other);
    };

    /** The generated traces of @p app (cached); generation records
     * into the engine's own config label and holds mutex_. */
    const std::vector<trace::Trace> &traces(const std::string &app);

    /** @p cacheBytes with 0 resolved to the engine's capacity. */
    std::size_t capacityOf(std::size_t cacheBytes) const
    {
        return cacheBytes ? cacheBytes : config_.cache.capacityBytes;
    }

    /** The "config" label value of the config at @p capacity. */
    std::string configHashAt(std::size_t capacity) const;

    /** The memoized outcome of one replay cell, after
     * prefetch({cell}). */
    const sim::GlobalOutcome &outcome(const Cell &cell);

    /** The facts of one execution of an input at resolved
     * @p capacity. */
    InputFacts factsOf(const ExecutionInput &input,
                       std::size_t capacity) const;

    /** The facts of (app, resolved capacity), from a parallel
     * facts-only pass if none recorded them; takes streams_. */
    const InputFacts &facts(const std::string &app,
                            std::size_t capacity);

    /** Record the input and cache series of @p facts and store them
     * for (app, capacity). */
    const InputFacts &recordFacts(const std::string &app,
                                  std::size_t capacity,
                                  const InputFacts &facts);

    /** The cells of one (app, capacity) group, each with the memo
     * slot its outcome goes to. */
    using Group = std::vector<std::pair<const Cell *, GlobalOutcome *>>;

    /** Replay @p group at resolved @p capacity in one pass over the
     * app's traces. The caller holds streams_. */
    void streamGroup(const std::string &app, std::size_t capacity,
                     const Group &group);

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

    /** Held by every pass that records facts or outcomes. */
    std::mutex streams_;
    std::mutex mutex_; ///< guards the maps below
    /** Keyed by app; every capacity refilters the same traces. */
    std::map<std::string, std::vector<trace::Trace>> traces_;
    /** Keyed by (app, capacity). */
    std::map<std::pair<std::string, std::size_t>, InputFacts> facts_;
    /** Keyed by cellKey(mode, app, capacity, policy). */
    std::map<std::string, sim::GlobalOutcome> cells_;
};

/**
 * The old name of the engine interface. The benchmark harness in
 * perfbench/ still spells it and is kept unedited; code in this
 * repository names ParallelEvaluation.
 */
using EvaluationApi = ParallelEvaluation;

} // namespace pcap::sim

#endif // PCAP_SIM_EXPERIMENT_HPP
