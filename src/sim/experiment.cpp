#include "sim/experiment.hpp"

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <sstream>
#include <utility>

#include "obs/perf.hpp"
#include "obs/tracing.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "workload/app_model.hpp"

namespace pcap::sim {

namespace {

/** 16-hex-digit rendering of @p hash (trace-file and label style). */
std::string
hex16(std::uint64_t hash)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << hash;
    return os.str();
}

/**
 * Canonical serialization of every ExperimentConfig field that can
 * alter simulation output — the basis of the "config" metric label,
 * which keeps ablation evaluations (custom cache or disk parameters)
 * from colliding with the paper-default one in a shared registry.
 */
std::string
configCacheKey(const ExperimentConfig &config)
{
    const cache::CacheParams &c = config.cache;
    const power::DiskParams &d = config.sim.disk;
    std::ostringstream os;
    os << "seed=" << config.seed
       << "|maxExec=" << config.maxExecutions;
    os << "|cache=" << c.capacityBytes << ',' << c.blockSize << ','
       << c.flushInterval << ',' << c.flushCheckPeriod;
    os << "|disk=" << d.busyPowerW << ',' << d.idlePowerW << ','
       << d.standbyPowerW << ',' << d.spinUpEnergyJ << ','
       << d.shutdownEnergyJ << ',' << d.spinUpTime << ','
       << d.shutdownTime << ',' << d.breakevenTime << ','
       << d.serviceTimePerBlock << ',' << d.lowPowerIdleW << ','
       << d.lowPowerExitEnergyJ << ',' << d.lowPowerExitTime;
    return os.str();
}

/** The "mode" label value and file-stem prefix of @p mode. */
const char *
modeName(CellMode mode)
{
    switch (mode) {
    case CellMode::Local:
        return "local";
    case CellMode::Global:
        return "global";
    case CellMode::MultiState:
        return "multistate";
    case CellMode::Base:
        return "base";
    case CellMode::Ideal:
        return "ideal";
    }
    panic("modeName: unknown cell mode");
}

/** The policy @p cell replays, or null for Base and Ideal cells. */
const PolicyConfig *
policyOf(const Cell &cell)
{
    const bool policyFree =
        cell.mode == CellMode::Base || cell.mode == CellMode::Ideal;
    return policyFree ? nullptr : &cell.policy;
}

/**
 * Memo key of one cell: mode + app + capacity (+ canonical policy).
 * Hash-free, so distinct cells cannot collide into one slot.
 */
std::string
cellKey(CellMode mode, const std::string &app, std::size_t capacity,
        const PolicyConfig *policy)
{
    std::string key = modeName(mode);
    key += '\x1f';
    key += app;
    key += '\x1f';
    key += std::to_string(capacity);
    if (policy) {
        key += '\x1f';
        key += policyCacheKey(*policy);
    }
    return key;
}

/** Memo key of one (app, capacity) input. */
std::string
inputKey(const std::string &app, std::size_t capacity)
{
    return app + '\x1f' + std::to_string(capacity);
}

} // namespace

std::vector<trace::Trace>
generateTraces(std::uint64_t seed, const std::string &app,
               int maxExecutions, unsigned jobs,
               const obs::ScopedMetrics &scope)
{
    const auto model = workload::makeApp(app);
    if (!model)
        fatal("generateTraces: unknown application '" + app + "'");

    int executions = model->info().executions;
    if (maxExecutions > 0)
        executions = std::min(executions, maxExecutions);

    // Fork the per-execution RNGs sequentially before the parallel
    // expansion — trace content must not depend on worker count.
    std::vector<Rng> rngs;
    rngs.reserve(executions);
    Rng app_rng(seed ^ hashString(app));
    for (int execution = 0; execution < executions; ++execution)
        rngs.push_back(
            app_rng.fork(static_cast<std::uint64_t>(execution)));

    std::vector<trace::Trace> traces(executions);
    pcap::parallelFor(jobs, static_cast<std::size_t>(executions),
                      [&](std::size_t i) {
                          traces[i] = model->generate(
                              static_cast<int>(i), rngs[i]);
                          workload::recordTraceMetrics(traces[i],
                                                       scope);
                      });
    return traces;
}

std::vector<ExecutionInput>
inputsFromTraces(const std::vector<trace::Trace> &traces,
                 const cache::CacheParams &params, unsigned jobs)
{
    std::vector<ExecutionInput> result(traces.size());
    pcap::parallelFor(jobs, traces.size(), [&](std::size_t i) {
        result[i] = ExecutionInput::fromTrace(traces[i], params);
    });
    return result;
}

std::string
WorkloadKey::canonical() const
{
    std::ostringstream os;
    os << "seed=" << seed << "|app=" << app
       << "|maxExecutions=" << maxExecutions
       << "|cacheBytes=" << cache.capacityBytes
       << "|blockSize=" << cache.blockSize
       << "|flushInterval=" << cache.flushInterval
       << "|flushCheckPeriod=" << cache.flushCheckPeriod;
    return os.str();
}

std::string
WorkloadKey::fileName() const
{
    return app + "-" + hex16(hashString(canonical())) + ".pcin";
}

WorkloadKey
ExperimentConfig::workloadKey(const std::string &app) const
{
    WorkloadKey key;
    key.seed = seed;
    key.cache = cache;
    key.app = app;
    key.maxExecutions = maxExecutions;
    return key;
}

std::string
policyCacheKey(const PolicyConfig &policy)
{
    std::ostringstream os;
    os << "kind=" << static_cast<int>(policy.kind)
       << "|label=" << policy.label << "|timeout=" << policy.timeout
       << "|reuse=" << policy.reuseTables;
    os << "|lt=" << policy.lt.historyLength << ','
       << policy.lt.waitWindow << ',' << policy.lt.timeout << ','
       << policy.lt.breakeven << ',' << policy.lt.backupEnabled << ','
       << static_cast<int>(policy.lt.counterMax) << ','
       << policy.lt.minTrainings;
    os << "|pcap=" << policy.pcap.useHistory << ','
       << policy.pcap.useFd << ',' << policy.pcap.historyLength << ','
       << policy.pcap.waitWindow << ',' << policy.pcap.timeout << ','
       << policy.pcap.breakeven << ',' << policy.pcap.backupEnabled
       << ',' << policy.pcap.unlearnOnMisprediction;
    os << "|ea=" << policy.expAverage.alpha << ','
       << policy.expAverage.waitWindow << ','
       << policy.expAverage.timeout << ','
       << policy.expAverage.breakeven << ','
       << policy.expAverage.backupEnabled;
    os << "|sb=" << policy.busyRatio.busyThreshold << ','
       << policy.busyRatio.burstGap << ','
       << policy.busyRatio.waitWindow << ','
       << policy.busyRatio.timeout << ','
       << policy.busyRatio.backupEnabled;
    os << "|atp=" << policy.adaptive.initialTimeout << ','
       << policy.adaptive.minTimeout << ','
       << policy.adaptive.maxTimeout << ','
       << policy.adaptive.decreaseFactor << ','
       << policy.adaptive.increaseFactor << ','
       << policy.adaptive.breakeven;
    return os.str();
}

std::string
policyHash(const PolicyConfig &policy)
{
    return hex16(hashString(policyCacheKey(policy)));
}

ParallelEvaluation::ParallelEvaluation(ExperimentConfig config,
                                       ParallelOptions options)
    : config_(std::move(config)), options_(options),
      appNames_(workload::standardAppNames()),
      configHash_(hex16(hashString(configCacheKey(config_))))
{
    if (options_.jobs == 0)
        options_.jobs = hardwareJobs();
    if (options_.metrics && !options_.metricsDetail)
        options_.metrics->markDetailLabel("app");
    if (!options_.provenanceDir.empty())
        std::filesystem::create_directories(options_.provenanceDir);
    if (!options_.timelineDir.empty())
        std::filesystem::create_directories(options_.timelineDir);
}

std::string
ParallelEvaluation::configHashAt(std::size_t capacity) const
{
    if (capacity == config_.cache.capacityBytes)
        return configHash_;
    ExperimentConfig config = config_;
    config.cache.capacityBytes = capacity;
    return hex16(hashString(configCacheKey(config)));
}

std::string
ParallelEvaluation::cellFileStem(const char *mode,
                                 const std::string &app,
                                 const PolicyConfig *policy,
                                 const std::string &configHash) const
{
    // Sweep reports (e.g. the cache-size ablation) replay the same
    // (mode, app, policy) cell under several configs, concurrently
    // — without a config digest in the stem they would race on one
    // file and the survivor would depend on scheduling. The default
    // config stays unsuffixed so the common artifact names remain
    // stable.
    static const std::string defaultConfigHash =
        hex16(hashString(configCacheKey(ExperimentConfig{})));
    std::string name = std::string(mode) + "-" + app;
    if (configHash != defaultConfigHash)
        name += "-c" + configHash;
    if (policy) {
        name += "-" + policy->label + "-" + policyHash(*policy);
    }
    return name;
}

obs::ScopedMetrics
ParallelEvaluation::cellScope(const char *mode,
                              const std::string &app,
                              const PolicyConfig *policy,
                              const std::string &configHash) const
{
    if (!options_.metrics)
        return {};
    obs::Labels labels = {{"config", configHash},
                          {"mode", mode},
                          {"app", app}};
    if (policy) {
        labels.emplace_back("policy", policy->label);
        labels.emplace_back("policy_hash", policyHash(*policy));
    }
    return obs::ScopedMetrics(options_.metrics, std::move(labels));
}

obs::ScopedMetrics
ParallelEvaluation::appScope(const std::string &app,
                             const std::string &configHash) const
{
    if (!options_.metrics)
        return {};
    return obs::ScopedMetrics(
        options_.metrics, {{"config", configHash}, {"app", app}});
}

template <typename T>
std::shared_ptr<ParallelEvaluation::Memo<T>>
ParallelEvaluation::slot(
    std::map<std::string, std::shared_ptr<Memo<T>>> &map,
    const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &entry = map[key];
    if (!entry)
        entry = std::make_shared<Memo<T>>();
    return entry;
}

const std::vector<trace::Trace> &
ParallelEvaluation::traces(const std::string &app)
{
    auto memo = slot(traces_, app);
    std::call_once(memo->once, [&] {
        memo->value =
            generateTraces(config_.seed, app, config_.maxExecutions,
                           options_.jobs, appScope(app, configHash_));
    });
    return memo->value;
}

std::vector<ExecutionInput>
ParallelEvaluation::filter(const std::string &app, std::size_t capacity)
{
    obs::Span span("workload-gen", app);
    obs::PerfRegion perf("workload:generate");
    cache::CacheParams params = config_.cache;
    params.capacityBytes = capacity;
    std::vector<ExecutionInput> executions =
        inputsFromTraces(traces(app), params, options_.jobs);

    // The input series describe the input, not the filter passes.
    auto memo = slot(diskAccesses_, inputKey(app, capacity));
    std::call_once(memo->once, [&] {
        const obs::ScopedMetrics scope =
            appScope(app, configHashAt(capacity));
        cache::CacheStats stats;
        std::uint64_t accesses = 0, tracedIos = 0, spanUs = 0;
        for (const ExecutionInput &input : executions) {
            stats.merge(input.cacheStats);
            accesses += input.accesses.size();
            tracedIos += input.tracedIos;
            spanUs += static_cast<std::uint64_t>(input.endTime);
        }
        cache::recordCacheMetrics(stats, scope);
        scope.gauge("pcap_sim_input_executions")
            .set(static_cast<double>(executions.size()));
        scope.counter("pcap_sim_input_disk_accesses_total")
            .inc(accesses);
        scope.counter("pcap_sim_input_traced_ios_total")
            .inc(tracedIos);
        scope.counter("pcap_sim_input_span_us_total").inc(spanUs);
        memo->value = accesses;
        memo->ready = true;
    });
    return executions;
}

const std::vector<ExecutionInput> &
ParallelEvaluation::inputs(const std::string &app,
                           std::size_t cacheBytes)
{
    const std::size_t capacity = capacityOf(cacheBytes);
    auto memo = slot(inputs_, inputKey(app, capacity));
    std::call_once(memo->once, [&] {
        memo->value = filter(app, capacity);
        memo->ready = true;
    });
    return memo->value;
}

std::uint64_t
ParallelEvaluation::diskAccesses(const std::string &app,
                                 std::size_t cacheBytes)
{
    const std::size_t capacity = capacityOf(cacheBytes);
    auto memo = slot(diskAccesses_, inputKey(app, capacity));
    if (!memo->ready)
        inputs(app, capacity);
    return memo->value;
}

sim::Table1Row
ParallelEvaluation::table1(const std::string &app)
{
    // Cheap relative to a run; recomputed from the cached inputs.
    const auto &execs = inputs(app);
    sim::Table1Row row;
    row.executions = static_cast<int>(execs.size());
    for (const auto &input : execs) {
        row.globalIdlePeriods +=
            input.countGlobalOpportunities(config_.sim.breakeven());
        row.localIdlePeriods +=
            input.countLocalOpportunities(config_.sim.breakeven());
        row.totalIos += input.tracedIos;
    }
    return row;
}

const sim::GlobalOutcome &
ParallelEvaluation::outcome(const Cell &cell,
                            const std::vector<ExecutionInput> *executions)
{
    const std::size_t capacity = capacityOf(cell.cacheBytes);
    auto memo = slot(cells_, cellKey(cell.mode, cell.app, capacity,
                                     policyOf(cell)));
    std::call_once(memo->once, [&] {
        memo->value =
            runCell(cell, capacity,
                    executions ? *executions : inputs(cell.app, capacity));
        memo->ready = true;
    });
    return memo->value;
}

sim::GlobalOutcome
ParallelEvaluation::runCell(const Cell &cell, std::size_t capacity,
                            const std::vector<ExecutionInput> &executions)
{
    const PolicyConfig *policy = policyOf(cell);
    const char *mode = modeName(cell.mode);
    const std::string configHash = configHashAt(capacity);
    const std::string stem =
        cellFileStem(mode, cell.app, policy, configHash);
    obs::Span span("cell-replay", stem);
    obs::PerfRegion perf("cells:replay");
    CellRun run(config_.sim, cell.mode, policy,
                cellScope(mode, cell.app, policy, configHash),
                {options_.provenanceDir, options_.timelineDir,
                 TimelineObserver::makeMeta(
                     stem, mode, cell.app, policy ? policy->label : "")});
    sim::GlobalOutcome result;
    for (const ExecutionInput &input : executions)
        result.run.merge(run.replay(input));
    result.tableEntries = run.finish();
    return result;
}

void
ParallelEvaluation::prefetch(const std::vector<Cell> &cells)
{
    // The cells still to compute: those at the engine's own capacity
    // one by one (and the apps whose input they read), the others
    // grouped by (app, capacity). A duplicate cell costs nothing:
    // its memo computes it once.
    std::vector<std::string> apps;
    std::vector<const Cell *> own;
    std::map<std::pair<std::string, std::size_t>,
             std::vector<const Cell *>>
        groups;
    for (const Cell &cell : cells) {
        const std::size_t capacity = capacityOf(cell.cacheBytes);
        const std::string key =
            cellKey(cell.mode, cell.app, capacity, policyOf(cell));
        if (slot(cells_, key)->ready)
            continue;
        if (capacity != config_.cache.capacityBytes) {
            groups[{cell.app, capacity}].push_back(&cell);
            continue;
        }
        own.push_back(&cell);
        if (std::find(apps.begin(), apps.end(), cell.app) == apps.end())
            apps.push_back(cell.app);
    }

    // Build the engine's own inputs first: cell tasks would otherwise
    // serialize on their call_once, and generation and the filter
    // have their own inner parallelism.
    pcap::parallelFor(options_.jobs, apps.size(),
                      [&](std::size_t i) { inputs(apps[i]); });

    // One lane takes the groups in turn: it filters a group's input
    // (unless inputs() holds it), replays the group's cells on it in
    // a nested fan-out, and drops it. So one sweep input is live at
    // any job count, and no cell task blocks on a build. The other
    // lanes replay the own-capacity cells, then join the sweep's
    // filters and replays as nested work.
    const std::size_t lanes = groups.empty() ? 0 : 1;
    pcap::parallelFor(options_.jobs, lanes + own.size(), [&](std::size_t i) {
        if (i >= lanes) {
            outcome(*own[i - lanes]);
            return;
        }
        for (const auto &[key, group] : groups) {
            const auto &[app, capacity] = key;
            auto memo = slot(inputs_, inputKey(app, capacity));
            std::vector<ExecutionInput> filtered;
            const std::vector<ExecutionInput> *executions = &memo->value;
            if (!memo->ready) {
                filtered = filter(app, capacity);
                executions = &filtered;
            }
            pcap::parallelFor(options_.jobs, group.size(),
                              [&](std::size_t c) {
                                  outcome(*group[c], executions);
                              });
        }
    });
}

void
ParallelEvaluation::prefetchInputs()
{
    pcap::parallelFor(options_.jobs, appNames_.size(),
                      [&](std::size_t i) { inputs(appNames_[i]); });
}

} // namespace pcap::sim
