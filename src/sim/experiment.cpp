#include "sim/experiment.hpp"

#include <algorithm>
#include <deque>
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

/** The value under @p key in @p map, or null; locks @p mutex. */
template <typename Map>
const typename Map::mapped_type *
lookUp(std::mutex &mutex, const Map &map,
       const typename Map::key_type &key)
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = map.find(key);
    return it == map.end() ? nullptr : &it->second;
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

const std::vector<trace::Trace> &
ParallelEvaluation::traces(const std::string &app)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, fresh] = traces_.try_emplace(app);
    if (fresh)
        it->second =
            generateTraces(config_.seed, app, config_.maxExecutions,
                           options_.jobs, appScope(app, configHash_));
    return it->second;
}

void
ParallelEvaluation::forEachExecution(
    const std::string &app, std::size_t cacheBytes,
    const std::function<void(const ExecutionInput &)> &fn)
{
    obs::Span span("workload-gen", app);
    cache::CacheParams params = config_.cache;
    params.capacityBytes = capacityOf(cacheBytes);
    ExecutionInput input;
    for (const trace::Trace &trace : traces(app)) {
        ExecutionInput::fromTrace(trace, params, input);
        fn(input);
    }
}

ParallelEvaluation::InputFacts
ParallelEvaluation::factsOf(const ExecutionInput &input,
                            std::size_t capacity) const
{
    InputFacts facts;
    facts.table1.executions = 1;
    facts.table1.totalIos = input.tracedIos;
    // Only Table 1, at the engine's capacity, reads the idle periods.
    if (capacity == config_.cache.capacityBytes) {
        const TimeUs breakeven = config_.sim.breakeven();
        facts.table1.globalIdlePeriods =
            input.countGlobalOpportunities(breakeven);
        facts.table1.localIdlePeriods =
            input.countLocalOpportunities(breakeven);
    }
    facts.accesses = input.accesses.size();
    facts.spanUs = static_cast<std::uint64_t>(input.endTime);
    facts.cache = input.cacheStats;
    return facts;
}

void
ParallelEvaluation::InputFacts::merge(const InputFacts &other)
{
    table1.executions += other.table1.executions;
    table1.globalIdlePeriods += other.table1.globalIdlePeriods;
    table1.localIdlePeriods += other.table1.localIdlePeriods;
    table1.totalIos += other.table1.totalIos;
    accesses += other.accesses;
    spanUs += other.spanUs;
    cache.merge(other.cache);
}

const ParallelEvaluation::InputFacts &
ParallelEvaluation::facts(const std::string &app, std::size_t capacity)
{
    std::lock_guard<std::mutex> streams(streams_);
    if (const InputFacts *known = lookUp(mutex_, facts_, {app, capacity}))
        return *known;
    obs::Span span("workload-gen", app);
    obs::PerfRegion perf("workload:generate");
    const std::vector<trace::Trace> &all = traces(app);
    cache::CacheParams params = config_.cache;
    params.capacityBytes = capacity;
    std::vector<InputFacts> each(all.size());
    pcap::parallelFor(options_.jobs, all.size(), [&](std::size_t i) {
        each[i] = factsOf(ExecutionInput::fromTrace(all[i], params),
                          capacity);
    });
    InputFacts facts;
    for (const InputFacts &one : each)
        facts.merge(one);
    return recordFacts(app, capacity, facts);
}

const ParallelEvaluation::InputFacts &
ParallelEvaluation::recordFacts(const std::string &app,
                                std::size_t capacity,
                                const InputFacts &facts)
{
    const obs::ScopedMetrics scope = appScope(app, configHashAt(capacity));
    cache::recordCacheMetrics(facts.cache, scope);
    scope.gauge("pcap_sim_input_executions")
        .set(static_cast<double>(facts.table1.executions));
    scope.counter("pcap_sim_input_disk_accesses_total")
        .inc(facts.accesses);
    scope.counter("pcap_sim_input_traced_ios_total")
        .inc(facts.table1.totalIos);
    scope.counter("pcap_sim_input_span_us_total").inc(facts.spanUs);
    std::lock_guard<std::mutex> lock(mutex_);
    return facts_.try_emplace({app, capacity}, facts).first->second;
}

const sim::GlobalOutcome &
ParallelEvaluation::outcome(const Cell &cell)
{
    prefetch({cell});
    const std::size_t capacity = capacityOf(cell.cacheBytes);
    return *lookUp(mutex_, cells_,
                   cellKey(cell.mode, cell.app, capacity, policyOf(cell)));
}

void
ParallelEvaluation::streamGroup(const std::string &app,
                                std::size_t capacity, const Group &group)
{
    const std::string configHash = configHashAt(capacity);
    obs::Span span("cell-replay",
                   capacity == config_.cache.capacityBytes
                       ? app
                       : app + "-c" + configHash);
    obs::PerfRegion perf("cells:replay");
    std::deque<CellRun> runs; // a CellRun must not move
    for (const auto &entry : group) {
        const Cell &cell = *entry.first;
        const PolicyConfig *policy = policyOf(cell);
        const char *mode = modeName(cell.mode);
        runs.emplace_back(
            config_.sim, cell.mode, policy,
            cellScope(mode, app, policy, configHash),
            CellArtifacts{options_.provenanceDir, options_.timelineDir,
                          TimelineObserver::makeMeta(
                              cellFileStem(mode, app, policy, configHash),
                              mode, app, policy ? policy->label : "")});
    }

    // The first pass over the input also adds up its facts, as one
    // more task beside the cells' replays of each execution.
    const bool counting = !lookUp(mutex_, facts_, {app, capacity});
    InputFacts facts;
    cache::CacheParams params = config_.cache;
    params.capacityBytes = capacity;
    ExecutionInput input;
    for (const trace::Trace &trace : traces(app)) {
        ExecutionInput::fromTrace(trace, params, input);
        pcap::parallelFor(
            options_.jobs, group.size() + counting, [&](std::size_t c) {
                if (c == group.size())
                    facts.merge(factsOf(input, capacity));
                else
                    group[c].second->run.merge(runs[c].replay(input));
            });
    }
    pcap::parallelFor(options_.jobs, group.size(), [&](std::size_t c) {
        group[c].second->tableEntries = runs[c].finish();
    });
    if (counting)
        recordFacts(app, capacity, facts);
}

void
ParallelEvaluation::prefetch(const std::vector<Cell> &cells)
{
    std::lock_guard<std::mutex> streams(streams_);
    // Memo slots for the cells still to compute, grouped by (app,
    // capacity); a duplicate or computed cell already has its slot.
    // A reader of a slot first waits here for streams_, so none sees
    // one unfinished.
    std::map<std::pair<std::string, std::size_t>, Group> groups;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const Cell &cell : cells) {
            const std::size_t capacity = capacityOf(cell.cacheBytes);
            const auto [slot, fresh] = cells_.try_emplace(
                cellKey(cell.mode, cell.app, capacity, policyOf(cell)));
            if (fresh)
                groups[{cell.app, capacity}].emplace_back(&cell,
                                                          &slot->second);
        }
    }

    // Generate the traces first, one app at a time with its own
    // inner parallelism, so no stream waits on a generation.
    for (const auto &[key, group] : groups)
        traces(key.first);

    pcap::parallelFor(options_.jobs, groups.size(), [&](std::size_t g) {
        const auto &[key, group] = *std::next(groups.begin(), g);
        streamGroup(key.first, key.second, group);
    });
}

void
ParallelEvaluation::prefetchInputs()
{
    for (const std::string &app : appNames_)
        facts(app, config_.cache.capacityBytes);
}

} // namespace pcap::sim
