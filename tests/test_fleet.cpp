/**
 * @file
 * The streaming fleet path and its parity contract.
 *
 *  - Host profiles: deterministic in (fleet seed, host index) alone,
 *    bounded by their FleetConfig ranges.
 *  - Streaming parity: a pure single-app host streams inputs
 *    byte-identical to the reference generateTraces path, and a
 *    1-host fleet cell is RunResult-field-equal to the
 *    ParallelEvaluation engine: same numbers, bounded memory.
 *  - Fleet determinism: a 64-host fleet is field-equal across thread
 *    counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "obs/alerts.hpp"
#include "obs/metrics.hpp"
#include "reference_workload.hpp"
#include "sim/execution_source.hpp"
#include "sim/experiment.hpp"
#include "sim/fleet.hpp"
#include "util/json.hpp"
#include "workload/host_profile.hpp"

namespace pcap::sim {
namespace {

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
expectSameResult(const RunResult &a, const RunResult &b)
{
    expectSameAccuracy(a.accuracy, b.accuracy);
    for (auto category :
         {power::EnergyCategory::BusyIo,
          power::EnergyCategory::IdleShort,
          power::EnergyCategory::IdleLong,
          power::EnergyCategory::PowerCycle}) {
        EXPECT_DOUBLE_EQ(a.energy.get(category),
                         b.energy.get(category));
    }
    EXPECT_EQ(a.shutdowns, b.shutdowns);
    EXPECT_EQ(a.spinUps, b.spinUps);
    EXPECT_EQ(a.ignoredShutdowns, b.ignoredShutdowns);
    EXPECT_EQ(a.totalSpinUpDelay, b.totalSpinUpDelay);
}

TEST(HostProfile, DeterministicAndIndependentOfFleetSize)
{
    workload::FleetConfig small;
    small.fleetSeed = 1234;
    small.hosts = 4;
    workload::FleetConfig large = small;
    large.hosts = 4096;

    for (std::uint64_t host = 0; host < 4; ++host) {
        const auto a = workload::hostProfile(small, host);
        const auto b = workload::hostProfile(large, host);
        EXPECT_EQ(a.host, host);
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_DOUBLE_EQ(a.thinkTimeScale, b.thinkTimeScale);
        EXPECT_EQ(a.executions, b.executions);
        ASSERT_EQ(a.appMix.size(), b.appMix.size());
        for (std::size_t i = 0; i < a.appMix.size(); ++i) {
            EXPECT_EQ(a.appMix[i].app, b.appMix[i].app);
            EXPECT_DOUBLE_EQ(a.appMix[i].weight,
                             b.appMix[i].weight);
        }
    }
}

TEST(HostProfile, DrawsStayInsideConfiguredBounds)
{
    workload::FleetConfig config;
    config.fleetSeed = 99;
    config.hosts = 64;
    config.maxAppsPerHost = 3;
    config.executionsMin = 4;
    config.executionsMax = 12;
    config.minThinkScale = 0.5;
    config.maxThinkScale = 2.0;

    for (std::uint64_t host = 0; host < config.hosts; ++host) {
        const auto profile = workload::hostProfile(config, host);
        EXPECT_GE(profile.thinkTimeScale, 0.5);
        EXPECT_LT(profile.thinkTimeScale, 2.0);
        EXPECT_GE(profile.executions, 4);
        EXPECT_LE(profile.executions, 12);
        ASSERT_FALSE(profile.appMix.empty());
        EXPECT_LE(profile.appMix.size(), 3u);
        std::set<std::string> distinct;
        for (const auto &share : profile.appMix) {
            EXPECT_GE(share.weight, 0.5);
            EXPECT_LT(share.weight, 2.0);
            distinct.insert(share.app);
        }
        EXPECT_EQ(distinct.size(), profile.appMix.size());
    }
}

TEST(HostProfileDeathTest, BadThinkScaleRangeIsFatal)
{
    const auto withScales = [](double min, double max) {
        workload::FleetConfig config;
        config.minThinkScale = min;
        config.maxThinkScale = max;
        return config;
    };
    const double nan = std::nan("");
    const double inf = HUGE_VAL;
    EXPECT_DEATH(workload::hostProfile(withScales(nan, 2.0), 0),
                 "minThinkScale must be finite and positive");
    EXPECT_DEATH(workload::hostProfile(withScales(0.5, inf), 0),
                 "maxThinkScale must be finite and positive");
    EXPECT_DEATH(workload::hostProfile(withScales(0.0, 2.0), 0),
                 "minThinkScale must be finite and positive");
    EXPECT_DEATH(workload::hostProfile(withScales(-1.0, -1.0), 0),
                 "minThinkScale must be finite and positive");
    EXPECT_DEATH(workload::hostProfile(withScales(2.0, 0.5), 0),
                 "maxThinkScale 0.50* is below minThinkScale 2.0");

    // A hand-built profile is checked where its stream starts.
    workload::HostProfile profile;
    profile.appMix = {{"nedit", 1.0}};
    profile.thinkTimeScale = 0.0;
    EXPECT_DEATH(workload::HostWorkloadStream stream(profile),
                 "thinkTimeScale must be finite and positive");
}

TEST(HostProfile, ExecutionPlanIndicesIncreasePerApp)
{
    workload::FleetConfig config;
    config.fleetSeed = 7;
    config.hosts = 8;
    for (std::uint64_t host = 0; host < config.hosts; ++host) {
        const auto profile = workload::hostProfile(config, host);
        std::map<std::string, int> nextIndex;
        for (const auto &planned :
             workload::executionPlan(profile)) {
            EXPECT_EQ(planned.appExecution,
                      nextIndex[planned.app]++);
        }
    }
}

TEST(ScaleTraceTimes, ScalesEveryEventAndStaysValid)
{
    Rng rng(11);
    const auto model = workload::makeApp("mozilla");
    ASSERT_TRUE(model);
    const auto trace = model->generate(0, rng);
    ASSERT_FALSE(trace.events().empty());

    const auto scaled = workload::scaleTraceTimes(trace, 2.0);
    ASSERT_EQ(scaled.events().size(), trace.events().size());
    EXPECT_EQ(scaled.validate(), "");
    for (std::size_t i = 0; i < trace.events().size(); ++i) {
        EXPECT_EQ(scaled.events()[i].time,
                  static_cast<TimeUs>(std::llround(
                      static_cast<double>(trace.events()[i].time) *
                      2.0)));
    }

    // scale == 1.0 is the exact identity, not a round trip.
    const auto same = workload::scaleTraceTimes(trace, 1.0);
    ASSERT_EQ(same.events().size(), trace.events().size());
    for (std::size_t i = 0; i < trace.events().size(); ++i)
        EXPECT_EQ(same.events()[i].time, trace.events()[i].time);
}

TEST(HostExecutionSource, SingleAppStreamMatchesMaterializedPath)
{
    const std::uint64_t seed = 42;
    const std::string app = "mozilla";
    const int executions = 2;
    const cache::CacheParams cacheParams;

    const auto expected = inputsFromTraces(
        generateTraces(seed, app, executions), cacheParams);

    workload::HostProfile profile;
    profile.seed = seed;
    profile.appMix = {{app, 1.0}};
    profile.executions = 0; // full-run parity mode
    profile.maxExecutionsPerApp = executions;

    HostExecutionSource source(profile, cacheParams);
    EXPECT_EQ(source.planned(), expected.size());
    std::size_t i = 0;
    while (const ExecutionInput *input = source.next()) {
        ASSERT_LT(i, expected.size());
        EXPECT_TRUE(*input == expected[i]);
        ++i;
    }
    EXPECT_EQ(i, expected.size());
    EXPECT_EQ(source.produced(), expected.size());
}

TEST(HostExecutionSource, ReusedBuffersMatchFreshInputs)
{
    // Two drawn-mode hosts over apps of very different sizes, the
    // second streamed by restarting the first's source: executions
    // shrink as well as grow, within a host and across the restart,
    // so reused buffers would show stale accesses or process spans.
    const cache::CacheParams cacheParams;
    std::optional<HostExecutionSource> source;
    for (const double scale : {0.5, 2.0}) {
        workload::HostProfile profile;
        profile.seed = scale < 1.0 ? 2024 : 7;
        profile.thinkTimeScale = scale;
        profile.appMix = {{"mplayer", 1.0}, {"nedit", 1.0},
                          {"mozilla", 1.0}};
        profile.executions = 10;

        // The reference: each execution generated, scaled and
        // filtered from scratch, with the stream's RNG derivation.
        std::vector<ExecutionInput> expected;
        std::map<std::string, Rng> appRngs;
        std::map<std::string, int> forks;
        for (const auto &planned : workload::executionPlan(profile)) {
            auto rng = appRngs.try_emplace(
                planned.app, profile.seed ^ hashString(planned.app));
            const Rng executionRng = rng.first->second.fork(
                static_cast<std::uint64_t>(forks[planned.app]++));
            const auto model = workload::makeApp(planned.app);
            expected.push_back(ExecutionInput::fromTrace(
                workload::scaleTraceTimes(
                    model->generate(planned.appExecution,
                                    executionRng),
                    scale),
                cacheParams));
        }
        bool shrinks = false;
        for (std::size_t i = 1; i < expected.size(); ++i) {
            shrinks = shrinks || (expected[i].accesses.size() <
                                      expected[i - 1].accesses.size() &&
                                  expected[i].processes.size() <
                                      expected[i - 1].processes.size());
        }
        ASSERT_TRUE(shrinks) << "plan never follows a long execution "
                                "with a shorter one";

        if (source)
            source->restart(profile);
        else
            source.emplace(profile, cacheParams);
        EXPECT_EQ(source->profile().seed, profile.seed);
        std::size_t i = 0;
        while (const ExecutionInput *input = source->next()) {
            ASSERT_LT(i, expected.size());
            const ExecutionInput &want = expected[i];
            EXPECT_EQ(input->app, want.app);
            EXPECT_EQ(input->execution, want.execution);
            EXPECT_TRUE(input->accesses == want.accesses) << i;
            EXPECT_TRUE(input->processes == want.processes) << i;
            EXPECT_TRUE(input->cacheStats == want.cacheStats) << i;
            EXPECT_EQ(input->tracedIos, want.tracedIos);
            EXPECT_EQ(input->endTime, want.endTime);
            ++i;
        }
        EXPECT_EQ(i, expected.size());
        EXPECT_EQ(source->produced(), expected.size());
    }
}

TEST(FleetParity, OneHostCellEqualsEvaluationEngine)
{
    ExperimentConfig config;
    config.maxExecutions = 2;

    const std::vector<PolicyConfig> policies = {
        PolicyConfig::timeoutPolicy(),
        PolicyConfig::pcapFdHistory(),
    };

    ParallelEvaluation reference(config);
    FleetDriver driver({}, config.sim, config.cache);

    for (const std::string &app : reference.appNames()) {
        workload::HostProfile profile;
        profile.seed = config.seed;
        profile.appMix = {{app, 1.0}};
        profile.executions = 0;
        profile.maxExecutionsPerApp = config.maxExecutions;

        const HostCellResult cell =
            driver.runHost(profile, policies);
        EXPECT_EQ(cell.executions,
                  static_cast<std::uint64_t>(
                      reference.table1(app).executions));

        expectSameResult(cell.base, reference.baseRun(app));
        ASSERT_EQ(cell.policyRuns.size(), policies.size());
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const auto expected =
                reference.globalRun(app, policies[p]);
            expectSameResult(cell.policyRuns[p], expected.run);
            EXPECT_EQ(cell.tableEntries[p],
                      expected.tableEntries);
        }
    }
}

TEST(FleetDriver, DeterministicAcrossThreadCounts)
{
    workload::FleetConfig fleet;
    fleet.fleetSeed = 7;
    fleet.hosts = 64;
    fleet.executionsMin = 1;
    fleet.executionsMax = 2;
    fleet.minThinkScale = 0.5;
    fleet.maxThinkScale = 2.0;
    fleet.maxExecutionsPerApp = 0;

    const std::vector<PolicyConfig> policies = {
        PolicyConfig::timeoutPolicy(),
        PolicyConfig::pcapFdHistory(),
    };
    ExperimentConfig config;

    FleetOptions serialOptions;
    serialOptions.jobs = 1;
    FleetOptions parallelOptions = serialOptions;
    parallelOptions.jobs = 4;

    const FleetReport serial =
        FleetDriver(fleet, config.sim, config.cache, serialOptions)
            .run(policies);
    const FleetReport parallel =
        FleetDriver(fleet, config.sim, config.cache,
                    parallelOptions)
            .run(policies);

    EXPECT_EQ(serial.hosts, fleet.hosts);
    EXPECT_EQ(serial.executions, parallel.executions);
    EXPECT_EQ(serial.accesses, parallel.accesses);
    EXPECT_EQ(serial.opportunities, parallel.opportunities);
    EXPECT_DOUBLE_EQ(serial.meanBaseEnergyJ,
                     parallel.meanBaseEnergyJ);
    EXPECT_DOUBLE_EQ(serial.baseEnergyJ.p50,
                     parallel.baseEnergyJ.p50);
    EXPECT_DOUBLE_EQ(serial.baseEnergyJ.p99,
                     parallel.baseEnergyJ.p99);

    ASSERT_EQ(serial.policies.size(), parallel.policies.size());
    for (std::size_t p = 0; p < serial.policies.size(); ++p) {
        const auto &a = serial.policies[p];
        const auto &b = parallel.policies[p];
        EXPECT_EQ(a.policy, b.policy);
        EXPECT_DOUBLE_EQ(a.energyJ.p50, b.energyJ.p50);
        EXPECT_DOUBLE_EQ(a.energyJ.p90, b.energyJ.p90);
        EXPECT_DOUBLE_EQ(a.energyJ.p99, b.energyJ.p99);
        EXPECT_DOUBLE_EQ(a.savedFraction.p50,
                         b.savedFraction.p50);
        EXPECT_DOUBLE_EQ(a.hitFraction.p90, b.hitFraction.p90);
        EXPECT_DOUBLE_EQ(a.missFraction.p99, b.missFraction.p99);
        EXPECT_DOUBLE_EQ(a.meanEnergyJ, b.meanEnergyJ);
        EXPECT_DOUBLE_EQ(a.meanSavedFraction,
                         b.meanSavedFraction);
        EXPECT_EQ(a.shutdowns, b.shutdowns);
        EXPECT_EQ(a.spinUps, b.spinUps);

        EXPECT_DOUBLE_EQ(a.medianSavedFraction,
                         b.medianSavedFraction);
        EXPECT_DOUBLE_EQ(a.madSavedFraction, b.madSavedFraction);
        EXPECT_DOUBLE_EQ(a.medianMissFraction,
                         b.medianMissFraction);
        EXPECT_DOUBLE_EQ(a.madMissFraction, b.madMissFraction);
        ASSERT_EQ(a.outliers.size(), b.outliers.size());
        for (std::size_t o = 0; o < a.outliers.size(); ++o) {
            EXPECT_EQ(a.outliers[o].host, b.outliers[o].host);
            EXPECT_EQ(a.outliers[o].metric, b.outliers[o].metric);
            EXPECT_DOUBLE_EQ(a.outliers[o].value,
                             b.outliers[o].value);
            EXPECT_DOUBLE_EQ(a.outliers[o].score,
                             b.outliers[o].score);
        }
    }
}

TEST(FleetPercentiles, NearestRankIsExact)
{
    std::vector<double> values;
    for (int i = 100; i >= 1; --i)
        values.push_back(static_cast<double>(i));
    const auto p = percentilesOf(values);
    EXPECT_DOUBLE_EQ(p.p50, 50.0);
    EXPECT_DOUBLE_EQ(p.p90, 90.0);
    EXPECT_DOUBLE_EQ(p.p99, 99.0);

    const auto single = percentilesOf(std::vector<double>{3.5});
    EXPECT_DOUBLE_EQ(single.p50, 3.5);
    EXPECT_DOUBLE_EQ(single.p99, 3.5);

    const auto empty = percentilesOf(std::vector<double>{});
    EXPECT_DOUBLE_EQ(empty.p50, 0.0);
    EXPECT_DOUBLE_EQ(empty.p99, 0.0);
}

TEST(FleetSketch, PercentilesMatchNearestRankWithinAccuracy)
{
    // Re-derive every per-host value the streaming path sketches by
    // re-running each host cell through the public runHost, and
    // require the sketch-read percentiles to sit within the sketch's
    // relative accuracy of the exact nearest-rank answer.
    workload::FleetConfig fleet;
    fleet.fleetSeed = 21;
    fleet.hosts = 64;
    fleet.executionsMin = 1;
    fleet.executionsMax = 2;
    fleet.maxExecutionsPerApp = 0;

    const std::vector<PolicyConfig> policies = {
        PolicyConfig::timeoutPolicy(),
        PolicyConfig::pcapFdHistory(),
    };
    ExperimentConfig config;
    FleetOptions options;
    options.jobs = 2;

    const FleetDriver driver(fleet, config.sim, config.cache, options);
    const FleetReport report = driver.run(policies);
    std::vector<HostCellResult> hostCells;
    for (std::uint64_t host = 0; host < fleet.hosts; ++host) {
        hostCells.push_back(
            driver.runHost(workload::hostProfile(fleet, host), policies));
    }
    ASSERT_EQ(hostCells.size(), fleet.hosts);

    const double accuracy = obs::LogSketch().relativeAccuracy();
    auto expectClose = [&](const FleetPercentiles &sketched,
                           std::vector<double> values) {
        const FleetPercentiles exact = percentilesOf(values);
        for (auto pick : {&FleetPercentiles::p50,
                          &FleetPercentiles::p90,
                          &FleetPercentiles::p99}) {
            const double want = exact.*pick;
            EXPECT_NEAR(sketched.*pick, want,
                        accuracy * std::abs(want) + 1e-12);
        }
    };

    std::vector<double> baseValues;
    for (const auto &cell : hostCells)
        baseValues.push_back(cell.base.energy.total());
    expectClose(report.baseEnergyJ, baseValues);

    ASSERT_EQ(report.policies.size(), policies.size());
    for (std::size_t p = 0; p < policies.size(); ++p) {
        std::vector<double> energy, saved, miss;
        for (const auto &cell : hostCells) {
            const double baseJ = cell.base.energy.total();
            const double j = cell.policyRuns[p].energy.total();
            energy.push_back(j);
            saved.push_back(baseJ > 0.0 ? 1.0 - j / baseJ : 0.0);
            miss.push_back(
                cell.policyRuns[p].accuracy.missFraction());
        }
        expectClose(report.policies[p].energyJ, energy);
        expectClose(report.policies[p].savedFraction, saved);
        expectClose(report.policies[p].missFraction, miss);
    }
}

TEST(FleetOutliers, FlagsByMadScoreAndOrdersDeterministically)
{
    // Median 1.0, MAD 0.1: 2.0 scores 10, 0.5 scores 5, 1.2
    // scores 2 (below the cut).
    const std::vector<FleetHostValue> candidates = {
        {7, 1.2}, {3, 2.0}, {5, 0.5}, {3, 1.9}};
    const auto flagged =
        flagOutliers("saved_fraction", candidates, 1.0, 0.1, 3.5);
    ASSERT_EQ(flagged.size(), 2u);
    EXPECT_EQ(flagged[0].host, 3u);
    EXPECT_DOUBLE_EQ(flagged[0].value, 2.0);
    EXPECT_NEAR(flagged[0].score, 10.0, 1e-9);
    EXPECT_EQ(flagged[0].metric, "saved_fraction");
    EXPECT_EQ(flagged[1].host, 5u);
    EXPECT_NEAR(flagged[1].score, 5.0, 1e-9);

    // A zero MAD (constant distribution) must not divide by zero;
    // any deviation is then effectively infinite-score.
    const auto degenerate = flagOutliers(
        "miss_fraction", {{1, 0.2}, {2, 0.0}}, 0.0, 0.0, 3.5);
    ASSERT_EQ(degenerate.size(), 1u);
    EXPECT_EQ(degenerate[0].host, 1u);
    EXPECT_GT(degenerate[0].score, 1e6);

    EXPECT_TRUE(
        flagOutliers("m", {}, 0.0, 0.0, 3.5).empty());
}

// -- Drill-down + alert determinism ---------------------------------

/** A scratch drill-down directory, removed on destruction. */
struct TempDrillDir
{
    explicit TempDrillDir(const char *suffix)
    {
        path = (std::filesystem::temp_directory_path() /
                ("pcap-test-drill-" + std::to_string(::getpid()) +
                 "-" + suffix))
                   .string();
        std::filesystem::remove_all(path);
    }
    ~TempDrillDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    std::string path;
};

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

workload::FleetConfig
drillFleetConfig()
{
    workload::FleetConfig fleet;
    fleet.fleetSeed = 7;
    fleet.hosts = 32;
    fleet.executionsMin = 1;
    fleet.executionsMax = 2;
    fleet.minThinkScale = 0.5;
    fleet.maxThinkScale = 2.0;
    fleet.maxExecutionsPerApp = 0;
    return fleet;
}

constexpr const char *kDrillExtensions[] = {".prov.bin",
                                           ".timeline.json"};

TEST(FleetDrilldown, ReRunMatchesPassOneAndStandaloneDrill)
{
    const workload::FleetConfig fleet = drillFleetConfig();
    const std::vector<PolicyConfig> policies = {
        PolicyConfig::timeoutPolicy(),
        PolicyConfig::pcapFdHistory(),
    };
    ExperimentConfig config;
    TempDrillDir fleetDir("pass2");
    TempDrillDir standaloneDir("solo");

    FleetOptions options;
    options.jobs = 2;
    // Low MAD cut so a 32-host fleet reliably flags outliers.
    options.outlierMadThreshold = 0.5;
    options.drilldownDir = fleetDir.path;

    FleetDriver driver(fleet, config.sim, config.cache, options);
    const FleetReport report = driver.run(policies);

    ASSERT_FALSE(report.drilldowns.empty());
    ASSERT_EQ(report.hosts, fleet.hosts);

    for (const HostDrilldown &drill : report.drilldowns) {
        const HostCellResult &drilled = drill.cell;
        ASSERT_LT(drilled.host, fleet.hosts);
        // Pass 1's cell for this host, as run() folded it.
        const HostCellResult cell = driver.runHost(
            workload::hostProfile(fleet, drilled.host), policies);
        EXPECT_EQ(cell.host, drilled.host);

        // Pass 2 re-simulated exactly what pass 1 measured: the
        // whole cell, every policy run and the base run.
        EXPECT_EQ(drilled.executions, cell.executions);
        EXPECT_EQ(drilled.accesses, cell.accesses);
        EXPECT_EQ(drilled.simSpanUs, cell.simSpanUs);
        EXPECT_DOUBLE_EQ(drilled.thinkTimeScale, cell.thinkTimeScale);
        expectSameResult(drilled.base, cell.base);

        ASSERT_EQ(drill.policies.size(), policies.size());
        ASSERT_EQ(drilled.policyRuns.size(), policies.size());
        ASSERT_EQ(drilled.tableEntries.size(), policies.size());
        for (std::size_t p = 0; p < policies.size(); ++p) {
            EXPECT_EQ(drill.policies[p].policy, policies[p].label);
            expectSameResult(drilled.policyRuns[p],
                             cell.policyRuns[p]);
            EXPECT_EQ(drilled.tableEntries[p], cell.tableEntries[p]);
        }

        // At least one pass-1 outlier flag explains the selection.
        EXPECT_FALSE(drill.reasons.empty());
    }

    // A standalone re-drill of the first flagged host produces a
    // byte-identical artifact bundle: the drill-down is a pure
    // function of (fleet config, host index, policies).
    const HostDrilldown &first = report.drilldowns.front();
    const HostDrilldown solo = driver.drillHost(
        workload::hostProfile(fleet, first.cell.host), policies,
        standaloneDir.path);

    EXPECT_EQ(solo.cell.host, first.cell.host);
    ASSERT_EQ(solo.policies.size(), first.policies.size());
    for (std::size_t p = 0; p < first.policies.size(); ++p) {
        EXPECT_EQ(solo.policies[p].stem, first.policies[p].stem);
        for (const char *ext : kDrillExtensions) {
            const std::string name = first.policies[p].stem + ext;
            EXPECT_EQ(
                readFileBytes(fleetDir.path + "/" + name),
                readFileBytes(standaloneDir.path + "/" + name))
                << name;
        }
    }
}

TEST(FleetDrilldown, SingleAppDrillMatchesEngineProvenance)
{
    // Drill-downs and engine cells assemble their observer stacks
    // the same way, so a pure single-app host at scale 1.0 records
    // exactly the provenance of the engine's global cell.
    ExperimentConfig config;
    config.maxExecutions = 2;
    const std::string app = "mozilla";
    const std::vector<PolicyConfig> policies = {
        PolicyConfig::timeoutPolicy(),
        PolicyConfig::pcapFdHistory(),
    };
    TempDrillDir engineDir("engine");
    TempDrillDir drillDir("single-app");

    ParallelOptions options;
    options.provenanceDir = engineDir.path;
    ParallelEvaluation engine(config, options);
    for (const PolicyConfig &policy : policies)
        engine.globalRun(app, policy);

    workload::HostProfile profile;
    profile.seed = config.seed;
    profile.appMix = {{app, 1.0}};
    profile.executions = 0; // full-run parity mode
    profile.maxExecutionsPerApp = config.maxExecutions;
    const HostDrilldown drill =
        FleetDriver({}, config.sim, config.cache)
            .drillHost(profile, policies, drillDir.path);

    // The engine's stem carries the capped config's hash:
    // global-<app>-c<config hash>-<label>-<policy hash>.
    auto engineBaseOf = [&](const PolicyConfig &policy) {
        const std::string prefix = "global-" + app + "-c";
        const std::string suffix =
            "-" + policy.label + "-" + policyHash(policy);
        std::vector<std::string> bases;
        for (const auto &entry :
             std::filesystem::directory_iterator(engineDir.path)) {
            if (entry.path().extension() != ".bin")
                continue;
            const std::string stem =
                entry.path().stem().stem().string(); // x.prov.bin
            if (stem.starts_with(prefix) && stem.ends_with(suffix))
                bases.push_back(engineDir.path + "/" + stem);
        }
        EXPECT_EQ(bases.size(), 1u) << policy.label;
        return bases.empty() ? std::string() : bases.front();
    };
    ASSERT_EQ(drill.policies.size(), policies.size());
    for (std::size_t p = 0; p < policies.size(); ++p) {
        const std::string engineBase = engineBaseOf(policies[p]);
        const std::string drillBase =
            drillDir.path + "/" + drill.policies[p].stem;
        const std::string bin = readFileBytes(drillBase + ".prov.bin");
        EXPECT_GT(bin.size(), 16u) << policies[p].label; // + records
        EXPECT_EQ(bin, readFileBytes(engineBase + ".prov.bin"))
            << policies[p].label;
    }
}

TEST(FleetDrilldown, BundlesIdenticalAcrossThreadCounts)
{
    const workload::FleetConfig fleet = drillFleetConfig();
    const std::vector<PolicyConfig> policies = {
        PolicyConfig::timeoutPolicy(),
        PolicyConfig::pcapFdHistory(),
    };
    ExperimentConfig config;
    TempDrillDir serialDir("j1");
    TempDrillDir parallelDir("j4");

    FleetOptions serialOptions;
    serialOptions.jobs = 1;
    serialOptions.outlierMadThreshold = 0.5;
    serialOptions.drilldownDir = serialDir.path;
    FleetOptions parallelOptions = serialOptions;
    parallelOptions.jobs = 4;
    parallelOptions.drilldownDir = parallelDir.path;

    const FleetReport serial =
        FleetDriver(fleet, config.sim, config.cache, serialOptions)
            .run(policies);
    const FleetReport parallel =
        FleetDriver(fleet, config.sim, config.cache,
                    parallelOptions)
            .run(policies);

    ASSERT_FALSE(serial.drilldowns.empty());
    ASSERT_EQ(serial.drilldowns.size(), parallel.drilldowns.size());
    for (std::size_t i = 0; i < serial.drilldowns.size(); ++i) {
        const HostDrilldown &a = serial.drilldowns[i];
        const HostDrilldown &b = parallel.drilldowns[i];
        EXPECT_EQ(a.cell.host, b.cell.host);
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_DOUBLE_EQ(a.cell.base.energy.total(),
                         b.cell.base.energy.total());
        ASSERT_EQ(a.reasons.size(), b.reasons.size());
        for (std::size_t r = 0; r < a.reasons.size(); ++r) {
            EXPECT_EQ(a.reasons[r].policy, b.reasons[r].policy);
            EXPECT_EQ(a.reasons[r].metric, b.reasons[r].metric);
            EXPECT_DOUBLE_EQ(a.reasons[r].score,
                             b.reasons[r].score);
        }
        ASSERT_EQ(a.policies.size(), b.policies.size());
        for (std::size_t p = 0; p < a.policies.size(); ++p) {
            EXPECT_EQ(a.policies[p].stem, b.policies[p].stem);
            EXPECT_DOUBLE_EQ(a.cell.policyRuns[p].energy.total(),
                             b.cell.policyRuns[p].energy.total());
            for (const char *ext : kDrillExtensions) {
                const std::string name = a.policies[p].stem + ext;
                EXPECT_EQ(
                    readFileBytes(serialDir.path + "/" + name),
                    readFileBytes(parallelDir.path + "/" + name))
                    << name;
            }
        }
    }
}

TEST(FleetAlerts, VerdictsDeterministicAcrossThreadCounts)
{
    const char *rulesText = R"({
      "schema": "pcap-alert-rules-v1",
      "rules": [
        {"name": "p50-miss-nonnegative", "severity": "warn",
         "quantile": {"distribution": "miss_fraction", "q": 0.5,
                      "policy": "PCAPfh"},
         "op": ">=", "value": 0.0, "for_sim_seconds": 1},
        {"name": "p90-saved", "severity": "warn",
         "quantile": {"distribution": "saved_fraction", "q": 0.9},
         "op": "<", "value": -1.0},
        {"name": "outlier-hosts", "severity": "critical",
         "metric": {"name": "pcap_fleet_outlier_hosts",
                    "agg": "max"},
         "op": ">", "value": 1000}
      ]
    })";
    const workload::FleetConfig fleet = drillFleetConfig();
    const std::vector<PolicyConfig> policies = {
        PolicyConfig::timeoutPolicy(),
        PolicyConfig::pcapFdHistory(),
    };
    ExperimentConfig config;

    auto evaluate = [&](unsigned jobs) {
        obs::AlertRulesLoad load =
            obs::parseAlertRules(rulesText);
        EXPECT_TRUE(load.ok()) << load.error;
        obs::AlertEngine engine(std::move(load.rules));
        obs::MetricsRegistry registry;

        FleetOptions options;
        options.jobs = jobs;
        options.metrics = &registry;
        options.alerts = &engine;
        FleetDriver(fleet, config.sim, config.cache, options)
            .run(policies);

        engine.finalize(registry);
        std::ostringstream dump;
        engine.toJson().dump(dump);
        return std::make_pair(engine.exitCode(), dump.str());
    };

    const auto serial = evaluate(1);
    const auto parallel = evaluate(4);

    // The breaching quantile rule settled with real evidence...
    EXPECT_EQ(serial.first, 3);
    // ...and the verdict block is bit-identical across thread
    // counts: sketches feed the engine in shard order on one thread.
    EXPECT_EQ(serial.second, parallel.second);
}

} // namespace
} // namespace pcap::sim
