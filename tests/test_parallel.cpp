/**
 * @file
 * The experiment engine against an independent serial reference:
 * inputs built straight from the two generation halves and every
 * cell replayed through a fresh session, driver and kernel, with no
 * memo and no instruments. The engine must match it at one and at
 * four jobs, each cell kind must keep its observable surface
 * (artifact files, metric series), its metrics export must roll the
 * cell series up over `app` unless asked for detail, cells at other
 * file-cache capacities must match engines built at them while
 * recording one generation per app, every cell must replay in one
 * stream per app per batch whose first pass over each input records
 * its facts once (a prefetched batch and the same cells asked one at
 * a time answer alike; asking for an input generates and filters it
 * once more), two threads asking for one cell must share its one
 * stream, and the workload key must cover every field of the
 * recipe.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <unistd.h>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/tracing.hpp"
#include "reference_workload.hpp"
#include "sim/drivers.hpp"
#include "sim/experiment.hpp"
#include "sim/kernel.hpp"
#include "util/json.hpp"

namespace pcap::sim {
namespace {

ExperimentConfig
fastConfig(int executions = 3)
{
    ExperimentConfig config;
    config.seed = 42;
    config.maxExecutions = executions;
    return config;
}

/** The reference inputs of @p app: generate, then filter. */
std::vector<ExecutionInput>
referenceInputs(const ExperimentConfig &config, const std::string &app)
{
    return inputsFromTraces(
        generateTraces(config.seed, app, config.maxExecutions),
        config.cache);
}

/** Every execution of @p app's input at @p cacheBytes, collected in
 * order. */
std::vector<ExecutionInput>
inputsOf(ParallelEvaluation &engine, const std::string &app,
         std::size_t cacheBytes = 0)
{
    std::vector<ExecutionInput> inputs;
    engine.forEachExecution(app, cacheBytes,
                            [&](const ExecutionInput &input) {
                                inputs.push_back(input);
                            });
    return inputs;
}

/** The reference replay of one cell (the policy is ignored by Base
 * and Ideal). */
GlobalOutcome
referenceRun(const std::vector<ExecutionInput> &inputs, CellMode mode,
             const PolicyConfig &policy)
{
    PolicySession session(policy);
    LocalDriver local(session);
    GlobalDriver global(session,
                        {.multiState = mode == CellMode::MultiState});
    BaseDriver base;
    OracleDriver oracle;
    PolicyDriver *driver = &global;
    if (mode == CellMode::Local)
        driver = &local;
    else if (mode == CellMode::Base)
        driver = &base;
    else if (mode == CellMode::Ideal)
        driver = &oracle;
    GlobalOutcome outcome;
    outcome.run = SimulationKernel(SimParams{}).run(inputs, *driver);
    outcome.tableEntries = session.tableEntries();
    return outcome;
}

void
expectSameAccuracy(const AccuracyStats &a, const AccuracyStats &b)
{
    EXPECT_EQ(a.opportunities, b.opportunities);
    EXPECT_EQ(a.hitPrimary, b.hitPrimary);
    EXPECT_EQ(a.hitBackup, b.hitBackup);
    EXPECT_EQ(a.missPrimary, b.missPrimary);
    EXPECT_EQ(a.missBackup, b.missBackup);
    EXPECT_EQ(a.notPredicted, b.notPredicted);
}

void
expectSameRun(const RunResult &a, const RunResult &b)
{
    expectSameAccuracy(a.accuracy, b.accuracy);
    EXPECT_EQ(a.shutdowns, b.shutdowns);
    EXPECT_EQ(a.spinUps, b.spinUps);
    EXPECT_EQ(a.ignoredShutdowns, b.ignoredShutdowns);
    EXPECT_EQ(a.totalSpinUpDelay, b.totalSpinUpDelay);
    // Energy is a deterministic function of the same event
    // sequence, so even the floating-point results are identical.
    EXPECT_EQ(a.energy.total(), b.energy.total());
    for (auto category :
         {power::EnergyCategory::BusyIo,
          power::EnergyCategory::IdleShort,
          power::EnergyCategory::IdleLong,
          power::EnergyCategory::PowerCycle}) {
        EXPECT_EQ(a.energy.get(category), b.energy.get(category));
    }
}

/** A scratch directory, removed on destruction. */
struct TempDir
{
    explicit TempDir(const std::string &suffix = "")
    {
        path = (std::filesystem::temp_directory_path() /
                ("pcap-test-cache-" + std::to_string(::getpid()) +
                 suffix))
                   .string();
        std::filesystem::remove_all(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    std::string path;
};

TEST(ParallelEvaluation, MatchesSerialForAllAppsAndModes)
{
    const std::vector<PolicyConfig> policies = {
        PolicyConfig::timeoutPolicy(),
        PolicyConfig::learningTree(),
        PolicyConfig::pcapBase(),
        PolicyConfig::pcapFdHistory(),
    };
    const ExperimentConfig config = fastConfig();

    for (unsigned jobs : {1u, 4u}) {
        ParallelOptions options;
        options.jobs = jobs;
        ParallelEvaluation engine(config, options);
        for (const std::string &app : engine.appNames()) {
            SCOPED_TRACE(app + " at jobs " + std::to_string(jobs));
            const auto inputs = referenceInputs(config, app);
            const auto pi = inputsOf(engine, app);
            ASSERT_EQ(inputs.size(), pi.size());
            for (std::size_t i = 0; i < inputs.size(); ++i)
                EXPECT_TRUE(inputs[i] == pi[i]);

            const auto row = engine.table1(app);
            EXPECT_EQ(row.executions,
                      static_cast<int>(inputs.size()));
            std::uint64_t global = 0, local = 0, ios = 0;
            for (const ExecutionInput &input : inputs) {
                global += input.countGlobalOpportunities(
                    config.sim.breakeven());
                local += input.countLocalOpportunities(
                    config.sim.breakeven());
                ios += input.tracedIos;
            }
            EXPECT_EQ(row.globalIdlePeriods, global);
            EXPECT_EQ(row.localIdlePeriods, local);
            EXPECT_EQ(row.totalIos, ios);

            for (const PolicyConfig &policy : policies) {
                expectSameAccuracy(
                    referenceRun(inputs, CellMode::Local, policy)
                        .run.accuracy,
                    engine.localAccuracy(app, policy));
                const auto expected =
                    referenceRun(inputs, CellMode::Global, policy);
                const auto &actual = engine.globalRun(app, policy);
                expectSameRun(expected.run, actual.run);
                EXPECT_EQ(expected.tableEntries, actual.tableEntries);
            }
            expectSameRun(
                referenceRun(inputs, CellMode::MultiState, policies[2])
                    .run,
                engine.multiStateRun(app, policies[2]).run);
            expectSameRun(referenceRun(inputs, CellMode::Base, {}).run,
                          engine.baseRun(app));
            expectSameRun(referenceRun(inputs, CellMode::Ideal, {}).run,
                          engine.idealRun(app));
        }
    }
}

TEST(ParallelEvaluation, PrefetchComputesTheSameCells)
{
    const ExperimentConfig config = fastConfig();
    const std::vector<std::string> apps =
        ParallelEvaluation(config).appNames();
    std::vector<Cell> cells;
    for (const std::string &app : apps) {
        cells.push_back(
            {CellMode::Global, app, PolicyConfig::pcapBase()});
        cells.push_back(
            {CellMode::Local, app, PolicyConfig::learningTree()});
        cells.push_back({CellMode::Base, app, {}});
    }
    // Duplicates must be harmless.
    const std::vector<Cell> firstBatch = cells;
    cells.insert(cells.end(), firstBatch.begin(), firstBatch.end());

    for (unsigned jobs : {1u, 4u}) {
        ParallelOptions options;
        options.jobs = jobs;
        ParallelEvaluation engine(config, options);
        engine.prefetch(cells);
        for (const std::string &app : apps) {
            SCOPED_TRACE(app + " at jobs " + std::to_string(jobs));
            const auto inputs = referenceInputs(config, app);
            expectSameRun(referenceRun(inputs, CellMode::Global,
                                       PolicyConfig::pcapBase())
                              .run,
                          engine.globalRun(app, PolicyConfig::pcapBase())
                              .run);
            expectSameAccuracy(
                referenceRun(inputs, CellMode::Local,
                             PolicyConfig::learningTree())
                    .run.accuracy,
                engine.localAccuracy(app,
                                     PolicyConfig::learningTree()));
            expectSameRun(referenceRun(inputs, CellMode::Base, {}).run,
                          engine.baseRun(app));
        }
    }
}

/** The value of the metric series @p series, whatever its kind. */
double
seriesValue(const obs::MetricsRegistry::Series &series)
{
    if (series.counter)
        return static_cast<double>(series.counter->value());
    if (series.gauge)
        return series.gauge->value();
    return 0.0;
}

/** The value of label @p key in @p labels, or "". */
std::string
labelOf(const obs::Labels &labels, const std::string &key)
{
    for (const auto &[name, value] : labels) {
        if (name == key)
            return value;
    }
    return {};
}

/** The files directly inside @p path. */
std::set<std::string>
fileNames(const std::string &path)
{
    std::set<std::string> found;
    for (const auto &entry : std::filesystem::directory_iterator(path))
        found.insert(entry.path().filename().string());
    return found;
}

/** Every series of @p registry with its value, keyed by name and
 * labels, except generation and scheduling-dependent ones. */
std::map<std::string, double>
cellSeries(const obs::MetricsRegistry &registry)
{
    std::map<std::string, double> found;
    for (const auto &series : registry.snapshot()) {
        if (series.name.rfind("pcap_workload_generated_", 0) == 0 ||
            series.name.find("wall") != std::string::npos ||
            series.name.find("thread_pool") != std::string::npos)
            continue;
        std::string key = series.name;
        for (const auto &[name, value] : series.labels)
            key += "|" + name + "=" + value;
        found[key] = seriesValue(series);
    }
    return found;
}

TEST(ParallelEvaluation, CacheSizesShareOneGenerationPerApp)
{
    const ExperimentConfig config = fastConfig(2);
    const std::vector<std::string> apps = {"mozilla", "nedit"};
    // 0 is the engine's own 256 KB.
    const std::vector<std::size_t> sizes = {64 * 1024, 0, 1024 * 1024};
    const PolicyConfig pcap = PolicyConfig::pcapBase();
    std::vector<Cell> cells;
    for (const std::string &app : apps) {
        for (std::size_t bytes : sizes) {
            cells.push_back({CellMode::Global, app, pcap, bytes});
            cells.push_back({CellMode::Base, app, {}, bytes});
        }
    }

    for (unsigned jobs : {1u, 4u}) {
        TempDir dir("-one"), aloneDir("-alone");
        obs::MetricsRegistry registry, aloneRegistry;
        ParallelOptions options;
        options.jobs = jobs;
        options.metrics = &registry;
        options.timelineDir = dir.path;
        ParallelEvaluation engine(config, options);
        engine.prefetch(cells);
        ParallelOptions aloneOptions;
        aloneOptions.metrics = &aloneRegistry;
        aloneOptions.timelineDir = aloneDir.path;
        for (std::size_t bytes : sizes) {
            ExperimentConfig at = config;
            if (bytes)
                at.cache.capacityBytes = bytes;
            ParallelEvaluation alone(at, aloneOptions);
            for (const std::string &app : apps) {
                SCOPED_TRACE(app + " at " + std::to_string(bytes) +
                             " bytes, jobs " + std::to_string(jobs));
                EXPECT_EQ(inputsOf(engine, app, bytes),
                          referenceInputs(at, app));
                expectSameRun(engine.globalRun(app, pcap, bytes).run,
                              alone.globalRun(app, pcap).run);
                expectSameRun(engine.baseRun(app, bytes),
                              alone.baseRun(app));
            }
        }
        for (const std::string &app : apps) {
            // The cache size reaches the filter: a 16x larger cache
            // absorbs more of the traced I/O.
            EXPECT_NE(inputsOf(engine, app, sizes[0]),
                      inputsOf(engine, app, sizes[2]));
        }
        // Every capacity keeps the config label and artifact names
        // an engine built at that config gives it.
        EXPECT_EQ(cellSeries(registry), cellSeries(aloneRegistry));
        EXPECT_EQ(fileNames(dir.path), fileNames(aloneDir.path));

        // One generation per app, under the engine's own config.
        std::map<std::string, double> generated;
        std::set<std::string> configs;
        for (const auto &series : registry.snapshot()) {
            if (series.name != "pcap_workload_generated_traces_total")
                continue;
            generated[labelOf(series.labels, "app")] +=
                seriesValue(series);
            configs.insert(labelOf(series.labels, "config"));
        }
        EXPECT_EQ(generated, (std::map<std::string, double>{
                                 {"mozilla", 2.0}, {"nedit", 2.0}}));
        EXPECT_EQ(configs.size(), 1u);
    }
}

TEST(ParallelEvaluation, CellAtOwnCapacityIsTheDefaultCell)
{
    TempDir dir;
    obs::MetricsRegistry registry;
    ParallelOptions options;
    options.metrics = &registry;
    options.timelineDir = dir.path;
    // The default config, so the default cell's stem carries no
    // config hash.
    ParallelEvaluation engine(ExperimentConfig{}, options);
    const std::size_t own = engine.config().cache.capacityBytes;
    const PolicyConfig pcap = PolicyConfig::pcapBase();
    engine.prefetch({{CellMode::Global, "nedit", pcap, own},
                     {CellMode::Base, "nedit", {}, own}});

    const auto state = [&] {
        std::set<std::string> found = fileNames(dir.path);
        for (const auto &series : registry.snapshot())
            found.insert("config=" + labelOf(series.labels, "config"));
        return found;
    };
    const std::set<std::string> before = state();
    EXPECT_EQ(&engine.globalRun("nedit", pcap),
              &engine.globalRun("nedit", pcap, own));
    EXPECT_EQ(&engine.baseRun("nedit"), &engine.baseRun("nedit", own));
    engine.prefetch({{CellMode::Global, "nedit", pcap},
                     {CellMode::Base, "nedit", {}}});
    EXPECT_EQ(state(), before);

    const std::string stem = "global-nedit-PCAP-70e4bba9c125126e";
    EXPECT_EQ(before.count(stem + ".timeline.json"), 1u);
    EXPECT_EQ(before.count("base-nedit.timeline.json"), 1u);
    std::size_t configLabels = 0;
    for (const std::string &entry : before) {
        EXPECT_EQ(entry.find("-c"), std::string::npos) << entry;
        configLabels += entry.rfind("config=", 0) == 0 &&
                        entry != "config=";
    }
    EXPECT_EQ(configLabels, 1u);
}

TEST(ParallelEvaluation, EachCellKindKeepsItsArtifactsAndSeries)
{
    TempDir dir;
    obs::MetricsRegistry registry;
    ParallelOptions options;
    options.metrics = &registry;
    options.timelineDir = dir.path + "/timeline";
    options.provenanceDir = dir.path + "/provenance";
    ParallelEvaluation engine(fastConfig(2), options);
    const PolicyConfig pcap = PolicyConfig::pcapBase();
    engine.prefetch({{CellMode::Local, "nedit", pcap},
                     {CellMode::Global, "nedit", pcap},
                     {CellMode::MultiState, "nedit", pcap},
                     {CellMode::Base, "nedit", {}},
                     {CellMode::Ideal, "nedit", {}}});

    // <mode>-<app>-c<config hash>[-<label>-<policy hash>]: the
    // config is not the default one, so its digest is in the stem.
    const std::string config = "-ca187bc166e807790";
    const std::string policy = "-PCAP-70e4bba9c125126e";
    std::set<std::string> timelines, provenance;
    for (const char *mode : {"local", "global", "multistate"}) {
        const std::string stem =
            std::string(mode) + "-nedit" + config + policy;
        timelines.insert(stem + ".timeline.json");
        provenance.insert(stem + ".prov.bin");
    }
    for (const char *mode : {"base", "ideal"}) {
        const std::string stem = std::string(mode) + "-nedit" + config;
        timelines.insert(stem + ".timeline.json");
    }
    EXPECT_EQ(fileNames(options.timelineDir), timelines);
    EXPECT_EQ(fileNames(options.provenanceDir), provenance);

    std::map<std::string, std::set<std::string>> sessionSeries;
    std::set<std::string> modes;
    for (const auto &series : registry.snapshot()) {
        const std::string mode = labelOf(series.labels, "mode");
        if (mode.empty())
            continue;
        modes.insert(mode);
        if (series.name.rfind("pcap_predictor_table_", 0) == 0)
            sessionSeries[mode].insert(series.name);
        // A diskless local replay leaves every disk series at zero.
        if (mode == "local" &&
            series.name.rfind("pcap_disk_", 0) == 0) {
            EXPECT_EQ(seriesValue(series), 0.0) << series.name;
        }
    }
    EXPECT_EQ(modes, (std::set<std::string>{"base", "global", "ideal",
                                             "local", "multistate"}));
    const std::set<std::string> recorded = {
        "pcap_predictor_table_entries",
        "pcap_predictor_table_evictions"};
    EXPECT_EQ(sessionSeries["local"], recorded);
    EXPECT_EQ(sessionSeries["global"], recorded);
    EXPECT_EQ(sessionSeries["multistate"], recorded);
    EXPECT_EQ(sessionSeries.count("base"), 0u);
    EXPECT_EQ(sessionSeries.count("ideal"), 0u);
}

TEST(ParallelEvaluation, ExportRollsCellSeriesUpOverAppUnlessDetailed)
{
    struct Export
    {
        std::vector<std::string> detailLabels;
        std::string prometheus;
        double idlePeriods = 0.0;
    };
    const auto exportOf = [](bool detail) {
        obs::MetricsRegistry registry;
        ParallelOptions options;
        options.metrics = &registry;
        options.metricsDetail = detail;
        ParallelEvaluation engine(fastConfig(2), options);
        const PolicyConfig pcap = PolicyConfig::pcapBase();
        engine.prefetch({{CellMode::Global, "nedit", pcap},
                         {CellMode::Global, "mozilla", pcap}});
        Export out;
        out.detailLabels = registry.detailLabels();
        std::ostringstream os;
        obs::writePrometheus(registry, os);
        out.prometheus = os.str();
        std::istringstream lines(out.prometheus);
        std::string line;
        while (std::getline(lines, line)) {
            if (line.rfind("pcap_sim_idle_periods_total{", 0) == 0)
                out.idlePeriods +=
                    std::stod(line.substr(line.rfind(' ') + 1));
        }
        return out;
    };
    const Export rolled = exportOf(false);
    const Export detail = exportOf(true);

    EXPECT_EQ(rolled.detailLabels, std::vector<std::string>{"app"});
    EXPECT_TRUE(detail.detailLabels.empty());
    EXPECT_EQ(rolled.prometheus.find("app=\""), std::string::npos);
    EXPECT_NE(detail.prometheus.find("app=\"nedit\""),
              std::string::npos);
    EXPECT_NE(detail.prometheus.find("app=\"mozilla\""),
              std::string::npos);
    EXPECT_LT(rolled.prometheus.size(), detail.prometheus.size());
    EXPECT_GT(rolled.idlePeriods, 0.0);
    EXPECT_EQ(rolled.idlePeriods, detail.idlePeriods);
}

/** Global PCAP and Base cells of every app in @p apps at every
 * capacity in @p sizes. */
std::vector<Cell>
sweepCells(const std::vector<std::string> &apps,
           const std::vector<std::size_t> &sizes)
{
    std::vector<Cell> cells;
    for (std::size_t bytes : sizes) {
        for (const std::string &app : apps) {
            cells.push_back(
                {CellMode::Global, app, PolicyConfig::pcapBase(), bytes});
            cells.push_back({CellMode::Base, app, {}, bytes});
        }
    }
    return cells;
}

/** Every series of @p registry named @p name, keyed
 * "<config>/<app>". */
std::map<std::string, double>
seriesNamed(const obs::MetricsRegistry &registry, const std::string &name)
{
    std::map<std::string, double> found;
    for (const auto &series : registry.snapshot()) {
        if (series.name == name)
            found[labelOf(series.labels, "config") + "/" +
                  labelOf(series.labels, "app")] += seriesValue(series);
    }
    return found;
}

/** Span counts per span name, then per app. */
using Passes = std::map<std::string, std::map<std::string, int>>;

/** Run @p body with a span recorder installed; the passes over an
 * app's executions it made: `workload-gen` spans (facts-only passes
 * and forEachExecution) and `cell-replay` spans (app streams),
 * counted per app. */
template <typename Body>
Passes
passes(Body body)
{
    obs::TraceRecorder recorder;
    obs::setTraceRecorder(&recorder);
    body();
    obs::setTraceRecorder(nullptr);
    const std::string path = testing::TempDir() + "/pcap-passes-" +
                             std::to_string(::getpid()) + ".json";
    recorder.writeChromeTrace(path);
    std::ifstream is(path);
    std::stringstream text;
    text << is.rdbuf();
    std::filesystem::remove(path);
    Json profile;
    EXPECT_TRUE(Json::parse(text.str(), profile));
    Passes found;
    const Json *events = profile.find("traceEvents");
    for (std::size_t i = 0; events && i < events->size(); ++i) {
        const Json &event = events->at(i);
        const std::string name = event.find("name")->asString();
        if (name != "workload-gen" && name != "cell-replay")
            continue;
        ++found[name][event.find("args")->find("detail")->asString()];
    }
    return found;
}

/** @p count for every app in @p apps. */
std::map<std::string, int>
perApp(const std::vector<std::string> &apps, int count)
{
    std::map<std::string, int> found;
    for (const std::string &app : apps)
        found[app] = count;
    return found;
}

// The engine keeps no trace and no filtered input: every later pass
// over an input generates and filters it again, reading its facts
// streams nothing, and no series is recorded twice — the generated
// trace series still count one generation per app.
TEST(ParallelEvaluation, LaterPassesRegenerateButRecordOneGeneration)
{
    const ExperimentConfig config = fastConfig(2);
    const std::vector<std::string> apps = {"mozilla", "nedit"};
    const std::vector<std::size_t> sizes = {64 * 1024, 0, 512 * 1024,
                                            1024 * 1024};
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        obs::MetricsRegistry registry;
        ParallelOptions options;
        options.jobs = jobs;
        options.metrics = &registry;
        ParallelEvaluation engine(config, options);
        engine.prefetch(sweepCells(apps, sizes));
        const std::map<std::string, double> before = cellSeries(registry);

        for (int round = 0; round < 2; ++round) {
            SCOPED_TRACE("round " + std::to_string(round));
            const Passes made = passes([&] {
                for (std::size_t bytes : sizes) {
                    ExperimentConfig at = config;
                    if (bytes)
                        at.cache.capacityBytes = bytes;
                    for (const std::string &app : apps) {
                        const std::vector<ExecutionInput> reference =
                            referenceInputs(at, app);
                        EXPECT_EQ(inputsOf(engine, app, bytes), reference);
                        std::uint64_t accesses = 0;
                        for (const ExecutionInput &input : reference)
                            accesses += input.accesses.size();
                        EXPECT_EQ(engine.diskAccesses(app, bytes),
                                  accesses);
                    }
                }
            });
            // One pass per forEachExecution call, in every round.
            EXPECT_EQ(made, (Passes{{"workload-gen", perApp(apps, 4)}}));
        }

        // The input and cache counters describe each input once.
        EXPECT_EQ(cellSeries(registry), before);
        const std::map<std::string, double> generated =
            seriesNamed(registry, "pcap_workload_generated_traces_total");
        ASSERT_EQ(generated.size(), apps.size());
        // Later passes generate again but record nothing.
        for (const auto &[key, value] : generated)
            EXPECT_EQ(value, 2.0) << key;
    }
}

// The benchmark ledger's pattern: prefetchInputs(), then prefetch one
// cell at a time. prefetchInputs() streams nothing, and each prefetch
// is one stream of its app, the first also counting the app's facts.
TEST(ParallelEvaluation, LedgerPatternStreamsOncePerCell)
{
    const PolicyConfig pcap = PolicyConfig::pcapBase();
    const PolicyConfig tree = PolicyConfig::learningTree();
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        obs::MetricsRegistry registry;
        ParallelOptions options;
        options.jobs = jobs;
        options.metrics = &registry;
        ParallelEvaluation engine(fastConfig(2), options);
        EXPECT_EQ(passes([&] { engine.prefetchInputs(); }), Passes{});
        const Passes made = passes([&] {
            for (const std::string &app : engine.appNames()) {
                engine.prefetch({{CellMode::Global, app, pcap}});
                engine.prefetch({{CellMode::Local, app, tree}});
                engine.prefetch({{CellMode::Base, app, {}}});
            }
        });
        const std::vector<std::string> &apps = engine.appNames();
        EXPECT_EQ(made, (Passes{{"cell-replay", perApp(apps, 3)}}));
    }
}

// A prefetched sweep answers exactly as the same sweep rendered
// without a prefetch, each cell and fact computed on demand.
TEST(ParallelEvaluation, PrefetchedSweepEqualsOnDemandSweep)
{
    const ExperimentConfig config = fastConfig(2);
    const std::vector<std::string> apps = {"mozilla", "nedit"};
    const std::vector<std::size_t> sizes = {64 * 1024, 0, 512 * 1024,
                                            1024 * 1024};
    const std::vector<Cell> cells = sweepCells(apps, sizes);
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        obs::MetricsRegistry prefetchedRegistry, onDemandRegistry;
        ParallelOptions options;
        options.jobs = jobs;
        options.metrics = &prefetchedRegistry;
        ParallelEvaluation prefetched(config, options);
        options.metrics = &onDemandRegistry;
        ParallelEvaluation onDemand(config, options);
        // One stream per app, which also records the facts at every
        // capacity.
        EXPECT_EQ(passes([&] { prefetched.prefetch(cells); }),
                  (Passes{{"cell-replay", perApp(apps, 1)}}));
        // One facts-only pass per capacity, one stream per cell.
        EXPECT_EQ(passes([&] {
                      for (const std::string &app : apps) {
                          onDemand.table1(app);
                          for (std::size_t bytes : sizes)
                              onDemand.diskAccesses(app, bytes);
                      }
                      for (const Cell &cell : cells) {
                          if (cell.mode == CellMode::Base)
                              onDemand.baseRun(cell.app, cell.cacheBytes);
                          else
                              onDemand.globalRun(cell.app, cell.policy,
                                                 cell.cacheBytes);
                      }
                  }),
                  (Passes{{"workload-gen", perApp(apps, 4)},
                          {"cell-replay", perApp(apps, 8)}}));

        for (const std::string &app : apps) {
            const Table1Row a = prefetched.table1(app);
            const Table1Row b = onDemand.table1(app);
            EXPECT_EQ(a.executions, b.executions);
            EXPECT_EQ(a.globalIdlePeriods, b.globalIdlePeriods);
            EXPECT_EQ(a.localIdlePeriods, b.localIdlePeriods);
            EXPECT_EQ(a.totalIos, b.totalIos);
            for (std::size_t bytes : sizes)
                EXPECT_EQ(prefetched.diskAccesses(app, bytes),
                          onDemand.diskAccesses(app, bytes));
        }
        for (const Cell &cell : cells) {
            SCOPED_TRACE(cell.app + " at " +
                         std::to_string(cell.cacheBytes) + " bytes");
            if (cell.mode == CellMode::Base) {
                expectSameRun(prefetched.baseRun(cell.app, cell.cacheBytes),
                              onDemand.baseRun(cell.app, cell.cacheBytes));
                continue;
            }
            const GlobalOutcome &a =
                prefetched.globalRun(cell.app, cell.policy, cell.cacheBytes);
            const GlobalOutcome &b =
                onDemand.globalRun(cell.app, cell.policy, cell.cacheBytes);
            expectSameRun(a.run, b.run);
            EXPECT_EQ(a.tableEntries, b.tableEntries);
        }
        EXPECT_EQ(cellSeries(prefetchedRegistry),
                  cellSeries(onDemandRegistry));

        // Either engine filters an input again on request.
        for (ParallelEvaluation *engine : {&prefetched, &onDemand}) {
            EXPECT_EQ(passes([&] { inputsOf(*engine, apps[0], sizes[0]); }),
                      (Passes{{"workload-gen", perApp({apps[0]}, 1)}}));
        }
    }
}

// A batch streams each app it names once, whatever its capacities:
// one fan-out per execution filters it at all four and replays every
// cell there. A second batch on the same apps streams each once more,
// and both answer as an engine asked one cell at a time.
TEST(ParallelEvaluation, PrefetchStreamsEachAppOncePerBatch)
{
    const ExperimentConfig config = fastConfig(2);
    const std::vector<std::string> apps = {"mozilla", "nedit"};
    const std::vector<std::size_t> sizes = {64 * 1024, 0, 512 * 1024,
                                            1024 * 1024};
    std::vector<std::vector<Cell>> batches = {sweepCells(apps, sizes), {}};
    for (std::size_t bytes : sizes) {
        for (const std::string &app : apps)
            batches[1].push_back({CellMode::Global, app,
                                  PolicyConfig::timeoutPolicy(), bytes});
    }
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        obs::MetricsRegistry registry;
        ParallelOptions options;
        options.jobs = jobs;
        options.metrics = &registry;
        ParallelEvaluation engine(config, options);
        for (const std::vector<Cell> &batch : batches)
            EXPECT_EQ(passes([&] { engine.prefetch(batch); }),
                      (Passes{{"cell-replay", perApp(apps, 1)}}));

        options.metrics = nullptr;
        ParallelEvaluation onDemand(config, options);
        for (const std::vector<Cell> &batch : batches) {
            for (const Cell &cell : batch) {
                SCOPED_TRACE(cell.app + " at " +
                             std::to_string(cell.cacheBytes) + " bytes");
                if (cell.mode == CellMode::Base) {
                    expectSameRun(
                        engine.baseRun(cell.app, cell.cacheBytes),
                        onDemand.baseRun(cell.app, cell.cacheBytes));
                    continue;
                }
                const GlobalOutcome &a = engine.globalRun(
                    cell.app, cell.policy, cell.cacheBytes);
                const GlobalOutcome &b = onDemand.globalRun(
                    cell.app, cell.policy, cell.cacheBytes);
                expectSameRun(a.run, b.run);
                EXPECT_EQ(a.tableEntries, b.tableEntries);
            }
        }
        // Two batches, one recorded generation per app.
        const std::map<std::string, double> generated =
            seriesNamed(registry, "pcap_workload_generated_traces_total");
        ASSERT_EQ(generated.size(), apps.size());
        for (const auto &[key, value] : generated)
            EXPECT_EQ(value, 2.0) << key;
    }
}

// However few capacities a batch names, prefetch keeps none of its
// inputs: each later forEachExecution call filters its app once more
// and yields the reference inputs.
TEST(ParallelEvaluation, PrefetchKeepsNoSweepInputAtAnyBatchSize)
{
    const ExperimentConfig config = fastConfig(2);
    const std::vector<std::string> apps = {"mozilla", "nedit"};
    const std::size_t bytes = 64 * 1024;
    ExperimentConfig at = config;
    at.cache.capacityBytes = bytes;
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        ParallelOptions options;
        options.jobs = jobs;
        ParallelEvaluation engine(config, options);
        engine.prefetch(sweepCells(apps, {bytes}));
        for (const std::string &app : apps) {
            std::vector<ExecutionInput> inputs;
            EXPECT_EQ(passes([&] { inputs = inputsOf(engine, app, bytes); }),
                      (Passes{{"workload-gen", perApp({app}, 1)}}));
            EXPECT_EQ(inputs, referenceInputs(at, app));
        }
    }
}

// Any method may be called from any thread: two threads asking for
// one uncomputed cell get the same memoized outcome from one stream,
// which writes the cell's artifact once.
TEST(ParallelEvaluation, TwoThreadsAskingOneCellShareOneStream)
{
    const ExperimentConfig config = fastConfig(2);
    const PolicyConfig pcap = PolicyConfig::pcapBase();
    TempDir dir("-threads");
    ParallelOptions options;
    options.jobs = 2;
    options.timelineDir = dir.path;
    ParallelEvaluation engine(config, options);
    // Each thread reads the outcome as soon as its call returns.
    const GlobalOutcome *seen[2] = {nullptr, nullptr};
    GlobalOutcome read[2];
    const auto ask = [&](int i) {
        seen[i] = &engine.globalRun("nedit", pcap);
        read[i] = *seen[i];
    };
    const Passes made = passes([&] {
        std::thread first(ask, 0);
        std::thread second(ask, 1);
        first.join();
        second.join();
    });
    EXPECT_EQ(seen[0], seen[1]);
    EXPECT_EQ(fileNames(dir.path).size(), 1u);
    EXPECT_EQ(made, (Passes{{"cell-replay", perApp({"nedit"}, 1)}}));
    const GlobalOutcome expected = referenceRun(
        referenceInputs(config, "nedit"), CellMode::Global, pcap);
    for (const GlobalOutcome &outcome : read) {
        expectSameRun(outcome.run, expected.run);
        EXPECT_EQ(outcome.tableEntries, expected.tableEntries);
    }
}

TEST(WorkloadKey, CanonicalCoversEveryRecipeField)
{
    const WorkloadKey base = fastConfig().workloadKey("nedit");
    WorkloadKey changed = base;
    changed.seed ^= 1;
    EXPECT_NE(base.canonical(), changed.canonical());
    changed = base;
    changed.app = "xemacs";
    EXPECT_NE(base.canonical(), changed.canonical());
    changed = base;
    changed.maxExecutions += 1;
    EXPECT_NE(base.canonical(), changed.canonical());
    changed = base;
    changed.cache.capacityBytes *= 2;
    EXPECT_NE(base.canonical(), changed.canonical());
    changed = base;
    changed.cache.blockSize *= 2;
    EXPECT_NE(base.canonical(), changed.canonical());
    changed = base;
    changed.cache.flushInterval += 1;
    EXPECT_NE(base.canonical(), changed.canonical());
    changed = base;
    changed.cache.flushCheckPeriod += 1;
    EXPECT_NE(base.canonical(), changed.canonical());
    // The manifest's input key follows the recipe.
    EXPECT_NE(base.fileName(), changed.fileName());
}

} // namespace
} // namespace pcap::sim
