/**
 * @file
 * The parallel experiment engine must be indistinguishable from the
 * serial one: identical inputs, identical RunResults and
 * AccuracyStats for every application under a 4-worker pool, and
 * the on-disk workload cache must round-trip byte-identically.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <utility>
#include <unistd.h>

#include "sim/experiment.hpp"
#include "sim/input_cache.hpp"

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

/** A scratch cache directory, removed on destruction. */
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
    Evaluation serial(fastConfig());
    ParallelOptions options;
    options.jobs = 4;
    ParallelEvaluation parallel(fastConfig(), options);

    const std::vector<PolicyConfig> policies = {
        PolicyConfig::timeoutPolicy(),
        PolicyConfig::learningTree(),
        PolicyConfig::pcapBase(),
        PolicyConfig::pcapFdHistory(),
    };

    for (const std::string &app : serial.appNames()) {
        // Inputs are the same deterministic function of the seed.
        const auto &si = serial.inputs(app);
        const auto &pi = parallel.inputs(app);
        ASSERT_EQ(si.size(), pi.size());
        for (std::size_t i = 0; i < si.size(); ++i)
            EXPECT_TRUE(si[i] == pi[i]);

        const auto srow = serial.table1(app);
        const auto prow = parallel.table1(app);
        EXPECT_EQ(srow.executions, prow.executions);
        EXPECT_EQ(srow.globalIdlePeriods, prow.globalIdlePeriods);
        EXPECT_EQ(srow.localIdlePeriods, prow.localIdlePeriods);
        EXPECT_EQ(srow.totalIos, prow.totalIos);

        for (const PolicyConfig &policy : policies) {
            expectSameAccuracy(serial.localAccuracy(app, policy),
                               parallel.localAccuracy(app, policy));
            const auto sg = serial.globalRun(app, policy);
            const auto pg = parallel.globalRun(app, policy);
            expectSameRun(sg.run, pg.run);
            EXPECT_EQ(sg.tableEntries, pg.tableEntries);
        }
        expectSameRun(serial.multiStateRun(app, policies[2]).run,
                      parallel.multiStateRun(app, policies[2]).run);
        expectSameRun(serial.baseRun(app), parallel.baseRun(app));
        expectSameRun(serial.idealRun(app), parallel.idealRun(app));
    }
}

TEST(ParallelEvaluation, PrefetchComputesTheSameCells)
{
    Evaluation serial(fastConfig());
    ParallelOptions options;
    options.jobs = 4;
    ParallelEvaluation parallel(fastConfig(), options);

    std::vector<Cell> cells;
    for (const std::string &app : serial.appNames()) {
        cells.push_back(
            {CellMode::Global, app, PolicyConfig::pcapBase()});
        cells.push_back(
            {CellMode::Local, app, PolicyConfig::learningTree()});
        cells.push_back({CellMode::Base, app, {}});
    }
    // Duplicates must be harmless.
    const std::vector<Cell> firstBatch = cells;
    cells.insert(cells.end(), firstBatch.begin(), firstBatch.end());
    parallel.prefetch(cells);

    for (const std::string &app : serial.appNames()) {
        expectSameRun(
            serial.globalRun(app, PolicyConfig::pcapBase()).run,
            parallel.globalRun(app, PolicyConfig::pcapBase()).run);
        expectSameAccuracy(
            serial.localAccuracy(app, PolicyConfig::learningTree()),
            parallel.localAccuracy(app,
                                   PolicyConfig::learningTree()));
        expectSameRun(serial.baseRun(app), parallel.baseRun(app));
    }
}

TEST(InputCache, StreamRoundTripsByteIdentically)
{
    Evaluation eval(fastConfig());
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
    Evaluation eval(fastConfig());
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

    // And the simulation on loaded inputs matches the serial path.
    Evaluation serial(fastConfig());
    const auto sg =
        serial.globalRun("xemacs", PolicyConfig::pcapBase());
    const auto pg =
        second.globalRun("xemacs", PolicyConfig::pcapBase());
    EXPECT_EQ(sg.run.accuracy.opportunities,
              pg.run.accuracy.opportunities);
    EXPECT_EQ(sg.run.energy.total(), pg.run.energy.total());
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
