#include "sim/experiment.hpp"

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <optional>
#include <sstream>

#include "obs/perf.hpp"
#include "obs/tracing.hpp"
#include "sim/cell_store.hpp"
#include "sim/drivers.hpp"
#include "sim/trace_store.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "workload/app_model.hpp"

namespace pcap::sim {

namespace {

/**
 * Generate every execution of @p app from seed. Either leg of the
 * split pipeline (trace generation, file-cache filtering) is
 * deterministic, so going through a shared @p store — which may
 * return traces generated by a different evaluation — yields
 * bit-identical inputs to private generation.
 *
 * @p scope receives the pcap_workload_generated_* counters (a
 * disabled scope records nothing; a store that already holds the
 * traces records nothing either).
 */
std::vector<ExecutionInput>
generateInputs(const ExperimentConfig &config, const std::string &app,
               unsigned jobs, const obs::ScopedMetrics &scope,
               TraceStore *store)
{
    if (store) {
        const auto traces = store->traces(
            config.seed, app, config.maxExecutions, jobs, scope);
        return inputsFromTraces(*traces, config.cache, jobs);
    }
    return inputsFromTraces(
        generateTraces(config.seed, app, config.maxExecutions, jobs,
                       scope),
        config.cache, jobs);
}

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
    case CellMode::Table1:
        break;
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
    panic("modeName: Table1 cells do not replay");
}

/**
 * Memo key of one cell: mode + app (+ canonical policy). Hash-free,
 * so distinct cells cannot collide into one slot.
 */
std::string
cellKey(CellMode mode, const std::string &app,
        const PolicyConfig *policy)
{
    std::string key = modeName(mode);
    key += '\x1f';
    key += app;
    if (policy) {
        key += '\x1f';
        key += policyCacheKey(*policy);
    }
    return key;
}

} // namespace

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

ParallelEvaluation::ParallelEvaluation(ExperimentConfig config,
                                       ParallelOptions options)
    : config_(std::move(config)), options_(options),
      appNames_(workload::standardAppNames()),
      cache_(options.cacheDir),
      configKey_(configCacheKey(config_)),
      configHash_(hex16(hashString(configKey_)))
{
    if (options_.jobs == 0)
        options_.jobs = ThreadPool::hardwareJobs();
    if (!options_.traceDir.empty())
        std::filesystem::create_directories(options_.traceDir);
    if (!options_.provenanceDir.empty())
        std::filesystem::create_directories(options_.provenanceDir);
    if (!options_.timelineDir.empty())
        std::filesystem::create_directories(options_.timelineDir);
}

bool
ParallelEvaluation::cellStoreUsable() const
{
    // A store hit skips the replay, so per-cell file artifacts
    // (JSONL traces, provenance logs, timelines) must force private
    // compute.
    return options_.cellStore && options_.traceDir.empty() &&
           options_.provenanceDir.empty() &&
           options_.timelineDir.empty();
}

std::string
ParallelEvaluation::cellFileStem(const char *mode,
                                 const std::string &app,
                                 const PolicyConfig *policy) const
{
    // Sweep reports (e.g. the cache-size ablation) replay the same
    // (mode, app, policy) cell under several experiment configs,
    // and with per-cell artifacts enabled those evaluations can run
    // concurrently — without a config digest in the stem they would
    // race on one file and the survivor would depend on scheduling.
    // The default config stays unsuffixed so the common artifact
    // names remain stable.
    static const std::string defaultConfigHash =
        hex16(hashString(configCacheKey(ExperimentConfig{})));
    std::string name = std::string(mode) + "-" + app;
    if (configHash_ != defaultConfigHash)
        name += "-c" + configHash_;
    if (policy) {
        name += "-" + policy->label + "-" +
                hex16(hashString(policyCacheKey(*policy)));
    }
    return name;
}

std::unique_ptr<SimObserver>
ParallelEvaluation::traceObserver(const char *mode,
                                  const std::string &app,
                                  const PolicyConfig *policy) const
{
    if (options_.traceDir.empty())
        return nullptr;
    return std::make_unique<JsonlTraceObserver>(
        options_.traceDir + "/" + cellFileStem(mode, app, policy) +
        ".jsonl");
}

obs::ScopedMetrics
ParallelEvaluation::cellScope(const char *mode,
                              const std::string &app,
                              const PolicyConfig *policy) const
{
    if (!options_.metrics)
        return {};
    obs::Labels labels = {{"config", configHash_},
                          {"mode", mode},
                          {"app", app}};
    if (policy) {
        labels.emplace_back("policy", policy->label);
        labels.emplace_back(
            "policy_hash",
            hex16(hashString(policyCacheKey(*policy))));
    }
    return obs::ScopedMetrics(options_.metrics, std::move(labels));
}

obs::ScopedMetrics
ParallelEvaluation::appScope(const std::string &app) const
{
    if (!options_.metrics)
        return {};
    return obs::ScopedMetrics(
        options_.metrics, {{"config", configHash_}, {"app", app}});
}

/** One cell's observer stack; observer is what the kernel sees. */
struct ParallelEvaluation::CellInstruments
{
    obs::ScopedMetrics scope;
    std::unique_ptr<SimObserver> trace;
    std::unique_ptr<MetricsObserver> metrics;
    std::unique_ptr<obs::ProvenanceRecorder> provRecorder;
    std::unique_ptr<obs::BinaryProvenanceWriter> provBinary;
    std::unique_ptr<obs::JsonlProvenanceWriter> provJsonl;
    std::unique_ptr<ProvenanceObserver> provenance;
    std::unique_ptr<TimelineObserver> timeline;
    obs::TimelineMeta timelineMeta;
    std::string timelineJsonPath;
    std::string timelineCsvPath;
    std::unique_ptr<TeeObserver> tee;
    SimObserver *observer = nullptr;

    /** Bind the session to the cell's instruments: the provenance
     * tap, and the timeline's table-size sampler. The session must
     * outlive the kernel run. */
    void
    attachSession(PolicySession &session) const
    {
        if (provenance)
            session.setProvenanceTap(provenance.get());
        if (timeline) {
            timeline->bindTableSize(
                [&session] { return session.tableEntries(); });
        }
    }

    /** Drain and close the provenance sinks after the run. */
    void
    finishProvenance() const
    {
        if (provRecorder)
            provRecorder->close();
    }

    /** Serialize the timeline; no-op with timelines off. */
    void
    finishTimeline() const
    {
        if (!timeline)
            return;
        obs::writeTimelineJson(timeline->timeline(), timelineMeta,
                               timelineJsonPath);
        obs::writeTimelineCsv(timeline->timeline(), timelineMeta,
                              timelineCsvPath);
    }
};

ParallelEvaluation::CellInstruments
ParallelEvaluation::instrument(const char *mode,
                               const std::string &app,
                               const PolicyConfig *policy,
                               bool trackDisk) const
{
    CellInstruments inst;
    inst.scope = cellScope(mode, app, policy);
    inst.trace = traceObserver(mode, app, policy);
    if (options_.metrics) {
        inst.metrics = std::make_unique<MetricsObserver>(
            inst.scope, config_.sim.breakeven(), trackDisk);
    }
    if (!options_.provenanceDir.empty() && policy) {
        const std::string stem = cellFileStem(mode, app, policy);
        const std::string base = options_.provenanceDir + "/" + stem;
        inst.provRecorder =
            std::make_unique<obs::ProvenanceRecorder>();
        inst.provBinary = std::make_unique<obs::BinaryProvenanceWriter>(
            base + ".prov.bin");
        inst.provJsonl = std::make_unique<obs::JsonlProvenanceWriter>(
            base + ".prov.jsonl", stem);
        inst.provRecorder->addSink(inst.provBinary.get());
        inst.provRecorder->addSink(inst.provJsonl.get());
        inst.provenance = std::make_unique<ProvenanceObserver>(
            *inst.provRecorder, config_.sim.disk);
    }
    if (!options_.timelineDir.empty()) {
        const std::string stem = cellFileStem(mode, app, policy);
        inst.timeline = std::make_unique<TimelineObserver>(
            config_.sim.disk, trackDisk);
        inst.timelineMeta = TimelineObserver::makeMeta(
            stem, mode, app, policy ? policy->label : "");
        inst.timelineJsonPath = options_.timelineDir + "/" + stem +
                                ".timeline.json";
        inst.timelineCsvPath =
            options_.timelineDir + "/" + stem + ".timeline.csv";
    }
    std::vector<SimObserver *> children;
    if (inst.trace)
        children.push_back(inst.trace.get());
    if (inst.metrics)
        children.push_back(inst.metrics.get());
    if (inst.provenance)
        children.push_back(inst.provenance.get());
    if (inst.timeline)
        children.push_back(inst.timeline.get());
    if (children.size() > 1) {
        inst.tee = std::make_unique<TeeObserver>(std::move(children));
        inst.observer = inst.tee.get();
    } else if (children.size() == 1) {
        inst.observer = children.front();
    } else {
        inst.observer = &nullObserver();
    }
    return inst;
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

const std::vector<ExecutionInput> &
ParallelEvaluation::inputs(const std::string &app)
{
    auto memo = slot(inputs_, app);
    std::call_once(memo->once, [&] {
        obs::Span span("workload-gen", app);
        obs::PerfRegion perf("workload:generate");
        const obs::ScopedMetrics scope = appScope(app);
        const WorkloadKey key = config_.workloadKey(app);
        const bool loaded = cache_.load(key, memo->value);
        scope
            .counter("pcap_workload_cache_loads_total",
                     {{"result", loaded ? "hit" : "miss"}})
            .inc();
        if (!loaded) {
            memo->value =
                generateInputs(config_, app, options_.jobs, scope,
                               options_.traceStore.get());
            ++generated_;
            cache_.store(key, memo->value);
        }

        // Input-level metrics: identical whether the inputs were
        // generated or deserialized, because the cache statistics
        // travel inside the cached file.
        cache::CacheStats stats;
        std::uint64_t accesses = 0, tracedIos = 0, spanUs = 0;
        for (const ExecutionInput &input : memo->value) {
            stats.merge(input.cacheStats);
            accesses += input.accesses.size();
            tracedIos += input.tracedIos;
            spanUs += static_cast<std::uint64_t>(input.endTime);
        }
        cache::recordCacheMetrics(stats, scope);
        scope.gauge("pcap_sim_input_executions")
            .set(static_cast<double>(memo->value.size()));
        scope.counter("pcap_sim_input_disk_accesses_total")
            .inc(accesses);
        scope.counter("pcap_sim_input_traced_ios_total")
            .inc(tracedIos);
        scope.counter("pcap_sim_input_span_us_total").inc(spanUs);
    });
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
ParallelEvaluation::outcome(CellMode mode, const std::string &app,
                         const PolicyConfig *policy)
{
    const std::string key = cellKey(mode, app, policy);
    auto memo = slot(cells_, key);
    std::call_once(memo->once, [&] {
        const auto compute = [&] { return runCell(mode, app, policy); };
        // The store is shared by engines over other configs, so its
        // key leads with the canonical config.
        memo->value = cellStoreUsable()
                          ? options_.cellStore->outcome(
                                configKey_ + '\x1f' + key, compute)
                          : compute();
    });
    return memo->value;
}

sim::GlobalOutcome
ParallelEvaluation::runCell(CellMode mode, const std::string &app,
                            const PolicyConfig *policy)
{
    const char *name = modeName(mode);
    obs::Span span("cell-replay", cellFileStem(name, app, policy));
    obs::PerfRegion perf("cells:replay");
    auto inst = instrument(name, app, policy,
                           /*trackDisk=*/mode != CellMode::Local);
    std::optional<PolicySession> session;
    if (policy) {
        session.emplace(*policy);
        inst.attachSession(*session);
    }
    std::unique_ptr<PolicyDriver> driver;
    switch (mode) {
    case CellMode::Local:
        driver = std::make_unique<LocalDriver>(*session);
        break;
    case CellMode::Global:
    case CellMode::MultiState: {
        auto global = std::make_unique<GlobalDriver>(
            *session, GlobalDriver::Options{
                          .multiState = mode == CellMode::MultiState});
        if (inst.provenance) {
            inst.provenance->bindDecisionPid(
                [g = global.get()] { return g->decisionPid(); });
        }
        driver = std::move(global);
        break;
    }
    case CellMode::Base:
        driver = std::make_unique<BaseDriver>();
        break;
    case CellMode::Ideal:
        driver = std::make_unique<OracleDriver>();
        break;
    case CellMode::Table1:
        break;
    }
    SimulationKernel kernel(config_.sim, *inst.observer);
    auto lap = inst.scope.timer("pcap_cell_wall_seconds").measure();
    sim::GlobalOutcome result;
    result.run = kernel.run(inputs(app), *driver);
    inst.finishProvenance();
    inst.finishTimeline();
    if (session) {
        result.tableEntries = session->tableEntries();
        recordSessionMetrics(*session, inst.scope);
    }
    return result;
}

void
ParallelEvaluation::computeCell(const Cell &cell)
{
    if (cell.mode == CellMode::Table1) {
        table1(cell.app);
        return;
    }
    const bool policyFree =
        cell.mode == CellMode::Base || cell.mode == CellMode::Ideal;
    outcome(cell.mode, cell.app, policyFree ? nullptr : &cell.policy);
}

void
ParallelEvaluation::prefetch(const std::vector<Cell> &cells)
{
    // Make inputs resident first: cell workers would otherwise
    // serialize on the per-app call_once, and generation has its
    // own inner parallelism to exploit. Distinct apps load (or
    // generate) concurrently.
    std::vector<std::string> apps;
    for (const Cell &cell : cells) {
        if (std::find(apps.begin(), apps.end(), cell.app) ==
            apps.end())
            apps.push_back(cell.app);
    }
    pcap::parallelFor(options_.jobs, apps.size(),
                      [&](std::size_t i) { inputs(apps[i]); });

    pcap::parallelFor(options_.jobs, cells.size(),
                      [&](std::size_t i) { computeCell(cells[i]); });
}

void
ParallelEvaluation::prefetchInputs()
{
    pcap::parallelFor(options_.jobs, appNames_.size(),
                      [&](std::size_t i) { inputs(appNames_[i]); });
}

} // namespace pcap::sim
