/**
 * @file
 * Experiment engine: ties the workload models, the file cache and
 * the replay kernel together, so every report and integration test
 * asks one object for the paper's numbers.
 *
 * ParallelEvaluation generates each application's inputs exactly
 * once behind a thread-safe memo (optionally persisted on disk, see
 * input_cache.hpp), memoizes every (mode x app x policy) cell, and
 * can prefetch a batch of cells across a thread pool. Each cell
 * replays on a private PolicySession, so results do not depend on
 * the thread count; at jobs = 1 everything runs on the caller.
 */

#ifndef PCAP_SIM_EXPERIMENT_HPP
#define PCAP_SIM_EXPERIMENT_HPP

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/input.hpp"
#include "sim/input_cache.hpp"
#include "sim/kernel.hpp"
#include "sim/policy.hpp"

namespace pcap::sim {

class TraceStore;
class CellStore;

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

    /** The workload-cache identity of one application's inputs. */
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
 * Stable identity of a PolicyConfig for result memoization: every
 * field that can alter simulation output, canonically serialized.
 */
std::string policyCacheKey(const PolicyConfig &policy);

/** How one simulation cell evaluates its inputs. */
enum class CellMode {
    Table1,     ///< workload statistics only
    Local,      ///< per-process accuracy (Figure 6)
    Global,     ///< full multiprocess run (Figures 7-10)
    MultiState, ///< Section 7 extension
    Base,       ///< no power management
    Ideal,      ///< oracle
};

/** One independent unit of work for ParallelEvaluation::prefetch. */
struct Cell
{
    CellMode mode = CellMode::Global;
    std::string app;
    PolicyConfig policy; ///< ignored by Table1/Base/Ideal cells
};

/** Options of the parallel experiment engine. */
struct ParallelOptions
{
    /** Worker threads for prefetch() and generation; 1 = inline. */
    unsigned jobs = 1;

    /**
     * On-disk workload cache directory; empty disables persistence
     * (inputs are still memoized in memory).
     */
    std::string cacheDir;

    /**
     * When non-empty, every simulation cell writes a per-idle-period
     * JSONL trace into this directory (created if needed), one file
     * per (mode, app, policy) cell. Empty disables tracing.
     */
    std::string traceDir;

    /**
     * When non-empty, every policy cell runs with the provenance
     * flight recorder attached and serializes its records into this
     * directory (created if needed): a compact binary file plus a
     * pcap-provenance-v1 JSONL mirror per (mode, app, policy) cell,
     * named <mode>-<app>-<label>-<hash>.prov.{bin,jsonl}. Empty
     * disables provenance entirely (the default path is untouched).
     */
    std::string provenanceDir;

    /**
     * When non-empty, every simulation cell folds its replay into a
     * simulated-time sim::TimelineObserver and writes the result
     * into this directory (created if needed): a pcap-timeline-v1
     * JSON document plus a CSV mirror per (mode, app, policy) cell,
     * named <stem>.timeline.{json,csv}. Empty disables timelines
     * (the default path is untouched).
     */
    std::string timelineDir;

    /**
     * Registry every layer records into, or null to disable
     * instrumentation. Each cell writes through a ScopedMetrics
     * labelled {config, mode, app, policy, policy_hash}, so parallel
     * cells touch disjoint series; the registry must outlive the
     * evaluation.
     */
    obs::MetricsRegistry *metrics = nullptr;

    /**
     * Shared raw-trace memo (see trace_store.hpp), or null to
     * generate traces privately. Evaluations over different cache
     * or disk configurations share one store so an ablation sweep
     * generates each application's traces once; inputs are
     * bit-identical either way because generation depends only on
     * (seed, app, maxExecutions).
     */
    std::shared_ptr<TraceStore> traceStore;

    /**
     * Shared finished-cell memo (see cell_store.hpp), or null to
     * compute cells privately. Engines over an *identical* config
     * then replay each (mode, app, policy) cell once between them —
     * the keys embed the full canonical config string, so distinct
     * configurations never collide. Ignored while traceDir,
     * provenanceDir or timelineDir is set: a store hit skips the
     * replay and with it the cell's file artifacts, which those
     * options promise.
     */
    std::shared_ptr<CellStore> cellStore;
};

/**
 * The parallel experiment engine. Thread-safe: any method may be
 * called from any thread; equal queries are computed once and
 * memoized. prefetch() fans a batch of cells across a thread pool
 * and joins — afterwards the plain accessors are cheap lookups.
 *
 * Results do not depend on the thread count or the memo layers:
 * inputs are the same deterministic function of the seed (whether
 * generated, memoized or deserialized from the workload cache), and
 * each cell runs the serial replay kernel on a private
 * PolicySession.
 */
class ParallelEvaluation
{
  public:
    explicit ParallelEvaluation(ExperimentConfig config = {},
                                ParallelOptions options = {});

    /** The configuration in use. */
    const ExperimentConfig &config() const { return config_; }

    /** The six application names of Table 1. */
    const std::vector<std::string> &appNames() const
    {
        return appNames_;
    }

    /** Post-cache inputs of every execution of @p app (cached). */
    const std::vector<ExecutionInput> &inputs(const std::string &app);

    /** Table 1 for @p app, from the generated workload. */
    sim::Table1Row table1(const std::string &app);

    /** Figure 6: local accuracy of @p policy on @p app. */
    const AccuracyStats &localAccuracy(const std::string &app,
                                       const PolicyConfig &policy)
    {
        return outcome(CellMode::Local, app, &policy).run.accuracy;
    }

    /** Figures 7-10: global run of @p policy on @p app. */
    const sim::GlobalOutcome &globalRun(const std::string &app,
                                        const PolicyConfig &policy)
    {
        return outcome(CellMode::Global, app, &policy);
    }

    /** Section 7 extension: multi-state global run. */
    const sim::GlobalOutcome &
    multiStateRun(const std::string &app, const PolicyConfig &policy)
    {
        return outcome(CellMode::MultiState, app, &policy);
    }

    /** Figure 8 "Base": no power management. */
    const RunResult &baseRun(const std::string &app)
    {
        return outcome(CellMode::Base, app, nullptr).run;
    }

    /** Figure 8 "Ideal": the oracle. */
    const RunResult &idealRun(const std::string &app)
    {
        return outcome(CellMode::Ideal, app, nullptr).run;
    }

    /**
     * Compute every cell (and the inputs they need) across the
     * worker pool, then join. Duplicate cells cost nothing extra.
     */
    void prefetch(const std::vector<Cell> &cells);

    /** Make every application's inputs resident, in parallel. */
    void prefetchInputs();

    /** The engine's workload cache (for hit/miss reporting). */
    const WorkloadCache &workloadCache() const { return cache_; }

    /** Applications generated from seed (disk-cache misses). */
    std::uint64_t generatedApps() const { return generated_; }

  private:
    template <typename T> struct Memo
    {
        std::once_flag once;
        T value{};
    };

    /** Memo slot for @p key in @p map, created under the lock. */
    template <typename T>
    std::shared_ptr<Memo<T>>
    slot(std::map<std::string, std::shared_ptr<Memo<T>>> &map,
         const std::string &key);

    void computeCell(const Cell &cell);

    /** The memoized outcome of one replay cell; @p policy is null
     * for Base and Ideal cells. */
    const sim::GlobalOutcome &outcome(CellMode mode,
                                      const std::string &app,
                                      const PolicyConfig *policy);

    /**
     * Replay one cell through the kernel with its instruments: the
     * driver follows @p mode, and a PolicySession (with its metrics)
     * exists only when @p policy is given.
     */
    sim::GlobalOutcome runCell(CellMode mode, const std::string &app,
                               const PolicyConfig *policy);

    /**
     * File stem identifying one cell:
     * <mode>-<app>[-<label>-<policy hash>]; the hash disambiguates
     * sweep variants sharing a label.
     */
    std::string cellFileStem(const char *mode, const std::string &app,
                             const PolicyConfig *policy) const;

    /** The JSONL observer of one cell, or null when tracing is
     * off. */
    std::unique_ptr<SimObserver>
    traceObserver(const char *mode, const std::string &app,
                  const PolicyConfig *policy) const;

    /** The tracing + metrics observers of one cell, assembled. */
    struct CellInstruments;

    /**
     * Build one cell's observer stack: the JSONL tracer (when
     * tracing is on), a MetricsObserver (when a registry is
     * attached), both behind a tee, or the shared NullObserver.
     * @p trackDisk is false for diskless (local-accuracy) replays.
     */
    CellInstruments instrument(const char *mode,
                               const std::string &app,
                               const PolicyConfig *policy,
                               bool trackDisk) const;

    /** Scope labelled {config, mode, app[, policy, policy_hash]};
     * disabled when no registry is attached. */
    obs::ScopedMetrics cellScope(const char *mode,
                                 const std::string &app,
                                 const PolicyConfig *policy) const;

    /** Scope labelled {config, app} for input-level metrics. */
    obs::ScopedMetrics appScope(const std::string &app) const;

    /** True when results may round-trip through the shared
     * CellStore (attached, and no per-cell file artifacts). */
    bool cellStoreUsable() const;

    ExperimentConfig config_;
    ParallelOptions options_;
    std::vector<std::string> appNames_;
    WorkloadCache cache_;
    /** Canonical serialization of every config field that can alter
     * results — the CellStore key prefix. */
    std::string configKey_;
    /** 16-hex digest of configKey_ — the "config" label value
     * separating ablation evaluations from the paper-default one in
     * the shared registry. */
    std::string configHash_;

    std::mutex mutex_; ///< guards the maps below (not the memos)
    std::map<std::string,
             std::shared_ptr<Memo<std::vector<ExecutionInput>>>>
        inputs_;
    /** Keyed by cellKey(mode, app, policy). */
    std::map<std::string, std::shared_ptr<Memo<sim::GlobalOutcome>>>
        cells_;
    std::atomic<std::uint64_t> generated_{0};
};

/**
 * The old name of the engine interface. The benchmark harness in
 * perfbench/ still spells it and is kept unedited; code in this
 * repository names ParallelEvaluation.
 */
using EvaluationApi = ParallelEvaluation;

} // namespace pcap::sim

#endif // PCAP_SIM_EXPERIMENT_HPP
