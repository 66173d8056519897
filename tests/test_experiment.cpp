/**
 * @file
 * Integration tests: the full pipeline (workload models -> file
 * cache -> simulator) through the ParallelEvaluation engine at one
 * job, on truncated execution counts so the suite stays fast.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hpp"

namespace pcap::sim {
namespace {

ExperimentConfig
fastConfig(int executions = 4)
{
    ExperimentConfig config;
    config.seed = 42;
    config.maxExecutions = executions;
    return config;
}

TEST(Evaluation, InputsAreCachedAndDeterministic)
{
    ParallelEvaluation eval(fastConfig());
    const auto &first = eval.inputs("nedit");
    const auto &second = eval.inputs("nedit");
    EXPECT_EQ(&first, &second); // cached

    ParallelEvaluation other(fastConfig());
    const auto &fresh = other.inputs("nedit");
    ASSERT_EQ(first.size(), fresh.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_EQ(first[i].accesses.size(), fresh[i].accesses.size());
        for (std::size_t j = 0; j < first[i].accesses.size(); ++j)
            ASSERT_EQ(first[i].accesses[j], fresh[i].accesses[j]);
    }
}

TEST(Evaluation, SeedChangesTheWorkload)
{
    ParallelEvaluation a(fastConfig());
    ExperimentConfig config = fastConfig();
    config.seed = 43;
    ParallelEvaluation b(config);
    const bool differs =
        a.inputs("mozilla")[0].accesses.size() !=
            b.inputs("mozilla")[0].accesses.size() ||
        a.inputs("mozilla")[0].endTime !=
            b.inputs("mozilla")[0].endTime;
    EXPECT_TRUE(differs);
}

TEST(Evaluation, MaxExecutionsCapsTheRun)
{
    ParallelEvaluation eval(fastConfig(2));
    EXPECT_EQ(eval.inputs("mozilla").size(), 2u);
    EXPECT_EQ(eval.table1("mozilla").executions, 2);
}

TEST(Evaluation, Table1CountsAreConsistent)
{
    ParallelEvaluation eval(fastConfig());
    for (const std::string &app : eval.appNames()) {
        const auto row = eval.table1(app);
        std::uint64_t manual_global = 0;
        std::uint64_t manual_ios = 0;
        for (const auto &input : eval.inputs(app)) {
            manual_global += input.countGlobalOpportunities(
                eval.config().sim.breakeven());
            manual_ios += input.tracedIos;
        }
        EXPECT_EQ(row.globalIdlePeriods, manual_global) << app;
        EXPECT_EQ(row.totalIos, manual_ios) << app;
        EXPECT_GE(row.localIdlePeriods, row.globalIdlePeriods)
            << app << ": local counts sum per-process periods";
    }
}

TEST(Evaluation, NeditHasExactlyOneIdlePeriodPerExecution)
{
    ParallelEvaluation eval(fastConfig(5));
    const auto row = eval.table1("nedit");
    EXPECT_EQ(row.globalIdlePeriods,
              static_cast<std::uint64_t>(row.executions));
    EXPECT_EQ(row.localIdlePeriods,
              static_cast<std::uint64_t>(row.executions));
}

TEST(Evaluation, GlobalRunIsDeterministic)
{
    ParallelEvaluation a(fastConfig());
    ParallelEvaluation b(fastConfig());
    const auto run_a =
        a.globalRun("writer", PolicyConfig::pcapBase());
    const auto run_b =
        b.globalRun("writer", PolicyConfig::pcapBase());
    EXPECT_EQ(run_a.run.accuracy.hits(), run_b.run.accuracy.hits());
    EXPECT_EQ(run_a.run.accuracy.misses(),
              run_b.run.accuracy.misses());
    EXPECT_DOUBLE_EQ(run_a.run.energy.total(),
                     run_b.run.energy.total());
    EXPECT_EQ(run_a.tableEntries, run_b.tableEntries);
}

TEST(Evaluation, EnergyOrderingIdealBestBaseWorst)
{
    ParallelEvaluation eval(fastConfig());
    for (const std::string &app : eval.appNames()) {
        const double base = eval.baseRun(app).energy.total();
        const double ideal = eval.idealRun(app).energy.total();
        const double pcap =
            eval.globalRun(app, PolicyConfig::pcapBase())
                .run.energy.total();
        EXPECT_LT(ideal, base) << app;
        // A real policy can beat neither bound.
        EXPECT_LE(ideal, pcap * 1.0001) << app;
        EXPECT_LE(pcap, base * 1.0001) << app;
    }
}

TEST(Evaluation, PcapBeatsTimeoutOnCoverage)
{
    // The paper's central comparison, on the truncated workload.
    ParallelEvaluation eval(fastConfig(6));
    double pcap_hits = 0, tp_hits = 0;
    for (const std::string &app : eval.appNames()) {
        pcap_hits += eval.globalRun(app, PolicyConfig::pcapBase())
                         .run.accuracy.hitFraction();
        tp_hits += eval.globalRun(app, PolicyConfig::timeoutPolicy())
                       .run.accuracy.hitFraction();
    }
    EXPECT_GT(pcap_hits, tp_hits);
}

TEST(Evaluation, TableReuseMultipliesPrimaryCoverage)
{
    ParallelEvaluation eval(fastConfig(8));
    std::uint64_t with_reuse = 0, without_reuse = 0;
    for (const std::string &app : eval.appNames()) {
        with_reuse += eval.globalRun(app, PolicyConfig::pcapBase())
                          .run.accuracy.hitPrimary;
        without_reuse +=
            eval.globalRun(app, PolicyConfig::pcapNoReuse())
                .run.accuracy.hitPrimary;
    }
    EXPECT_GT(with_reuse, 2 * without_reuse);
}

TEST(Evaluation, TableEntriesStayPaperSized)
{
    // Table 3: prediction tables stay in the tens-to-hundreds range.
    ParallelEvaluation eval(fastConfig());
    for (const std::string &app : eval.appNames()) {
        const auto outcome =
            eval.globalRun(app, PolicyConfig::pcapBase());
        EXPECT_GT(outcome.tableEntries, 0u) << app;
        EXPECT_LT(outcome.tableEntries, 500u) << app;
    }
}

TEST(Evaluation, EnergyBreakdownSumsToTotal)
{
    ParallelEvaluation eval(fastConfig());
    const RunResult &base = eval.baseRun("xemacs");
    const double sum =
        base.energy.get(power::EnergyCategory::BusyIo) +
        base.energy.get(power::EnergyCategory::IdleShort) +
        base.energy.get(power::EnergyCategory::IdleLong) +
        base.energy.get(power::EnergyCategory::PowerCycle);
    EXPECT_NEAR(sum, base.energy.total(), 1e-9);
}

TEST(EvaluationDeath, UnknownApplicationIsFatal)
{
    ParallelEvaluation eval(fastConfig());
    EXPECT_DEATH(eval.inputs("solitaire"), "unknown application");
}

} // namespace
} // namespace pcap::sim
