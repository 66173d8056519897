/**
 * @file
 * The experiment engine against an independent serial reference:
 * inputs built straight from the two generation halves and every
 * cell replayed through a fresh session, driver and kernel, with no
 * memo and no instruments. The engine must match it at one and at
 * four jobs, each cell kind must keep its observable surface
 * (artifact files, metric series), and the on-disk workload cache
 * must round-trip byte-identically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "sim/drivers.hpp"
#include "sim/experiment.hpp"
#include "sim/input_cache.hpp"
#include "sim/kernel.hpp"
#include "sim/trace_store.hpp"

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
    return inputsFromTraces(generateTraces(config.seed, app,
                                           config.maxExecutions, 1,
                                           {}),
                            config.cache, 1);
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
    TempDir()
    {
        path = (std::filesystem::temp_directory_path() /
                ("pcap-test-cache-" +
                 std::to_string(::getpid())))
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
            const auto &pi = engine.inputs(app);
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

    const auto names = [](const std::string &path) {
        std::set<std::string> found;
        for (const auto &entry :
             std::filesystem::directory_iterator(path))
            found.insert(entry.path().filename().string());
        return found;
    };
    // <mode>-<app>-c<config hash>[-<label>-<policy hash>]: the
    // config is not the default one, so its digest is in the stem.
    const std::string config = "-ca187bc166e807790";
    const std::string policy = "-PCAP-70e4bba9c125126e";
    std::set<std::string> timelines, provenance;
    for (const char *mode : {"local", "global", "multistate"}) {
        const std::string stem =
            std::string(mode) + "-nedit" + config + policy;
        timelines.insert(stem + ".timeline.json");
        timelines.insert(stem + ".timeline.csv");
        provenance.insert(stem + ".prov.bin");
        provenance.insert(stem + ".prov.jsonl");
    }
    for (const char *mode : {"base", "ideal"}) {
        const std::string stem = std::string(mode) + "-nedit" + config;
        timelines.insert(stem + ".timeline.json");
        timelines.insert(stem + ".timeline.csv");
    }
    EXPECT_EQ(names(options.timelineDir), timelines);
    EXPECT_EQ(names(options.provenanceDir), provenance);

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

TEST(InputCache, StreamRoundTripsByteIdentically)
{
    ParallelEvaluation eval(fastConfig());
    const auto &inputs = eval.inputs("nedit");
    const WorkloadKey key = fastConfig().workloadKey("nedit");

    std::ostringstream first;
    writeExecutionInputs(inputs, key, first);

    std::istringstream is(first.str());
    std::vector<ExecutionInput> loaded;
    ASSERT_EQ(readExecutionInputs(is, key, loaded), "");
    ASSERT_EQ(loaded.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i)
        EXPECT_TRUE(inputs[i] == loaded[i]);

    // Serializing the loaded inputs reproduces the exact bytes.
    std::ostringstream second;
    writeExecutionInputs(loaded, key, second);
    EXPECT_EQ(first.str(), second.str());
}

TEST(InputCache, RejectsKeyMismatchAndCorruption)
{
    ParallelEvaluation eval(fastConfig());
    const auto &inputs = eval.inputs("nedit");
    const WorkloadKey key = fastConfig().workloadKey("nedit");

    std::ostringstream os;
    writeExecutionInputs(inputs, key, os);

    WorkloadKey other = key;
    other.seed = 43;
    {
        std::istringstream is(os.str());
        std::vector<ExecutionInput> loaded;
        EXPECT_NE(readExecutionInputs(is, other, loaded), "");
    }
    {
        std::istringstream is(os.str().substr(0, 40));
        std::vector<ExecutionInput> loaded;
        EXPECT_NE(readExecutionInputs(is, key, loaded), "");
    }

    // Well-formed bytes the replay cannot take as they are.
    const auto rejects = [&](const std::string &what,
                             const auto &corrupt) {
        std::vector<ExecutionInput> bad = inputs;
        corrupt(bad.front());
        std::ostringstream out;
        writeExecutionInputs(bad, key, out);
        std::istringstream is(out.str());
        std::vector<ExecutionInput> loaded;
        EXPECT_NE(readExecutionInputs(is, key, loaded).find(what),
                  std::string::npos)
            << what;
    };
    ASSERT_GE(inputs.front().accesses.size(), 2u);
    ASSERT_GE(inputs.front().processes.size(), 2u);
    rejects("out of (time, pid) order", [](ExecutionInput &input) {
        std::swap(input.accesses.front(), input.accesses.back());
    });
    rejects("ends before it starts", [](ExecutionInput &input) {
        ProcessSpan &span = input.processes.front();
        span.end = span.start - 1;
    });
    rejects("duplicate span", [](ExecutionInput &input) {
        input.processes.push_back(input.processes.front());
    });
}

TEST(WorkloadCache, DiskRoundTripMatchesGeneration)
{
    TempDir dir;
    ParallelOptions options;
    options.jobs = 2;
    options.cacheDir = dir.path;

    // First engine: generates and stores.
    ParallelEvaluation first(fastConfig(), options);
    const auto &generated = first.inputs("xemacs");
    EXPECT_EQ(first.workloadCache().stores(), 1u);
    EXPECT_EQ(first.generatedApps(), 1u);

    // Second engine: must load the stored workload, identically.
    ParallelEvaluation second(fastConfig(), options);
    const auto &loaded = second.inputs("xemacs");
    EXPECT_EQ(second.workloadCache().hits(), 1u);
    EXPECT_EQ(second.generatedApps(), 0u);
    ASSERT_EQ(generated.size(), loaded.size());
    for (std::size_t i = 0; i < generated.size(); ++i)
        EXPECT_TRUE(generated[i] == loaded[i]);

    // And the simulation on loaded inputs matches the reference.
    expectSameRun(referenceRun(referenceInputs(fastConfig(), "xemacs"),
                               CellMode::Global,
                               PolicyConfig::pcapBase())
                      .run,
                  second.globalRun("xemacs", PolicyConfig::pcapBase())
                      .run);
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
}

} // namespace
} // namespace pcap::sim
