/**
 * @file
 * Provenance tests: the observer's record stream, binary
 * round-trip, name-table lockstep with sim/pred, forensics
 * aggregation, and the end-to-end reconciliation guarantee — the
 * per-signature outcome counts summed over a cell's provenance log
 * equal the AccuracyStats the same run reported.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/provenance.hpp"
#include "pred/predictor.hpp"
#include "sim/experiment.hpp"
#include "sim/observer.hpp"

namespace pcap {
namespace {

/** A record with recognizably non-default fields. */
obs::ProvenanceRecord
sampleRecord(int i)
{
    obs::ProvenanceRecord record;
    record.startUs = 1000 * i;
    record.endUs = 1000 * i + 500;
    record.shutdownUs = (i % 2) ? record.startUs + 100 : -1;
    record.decisionTimeUs = record.startUs;
    record.decisionEarliestUs = record.startUs + 50;
    record.pid = 100 + i;
    record.execution = i / 3;
    record.signature = 0xdead0000u + static_cast<std::uint32_t>(i);
    record.pathHash = 0x1234567890abcdefull + i;
    record.pathLength = 12 + i;
    record.pathTailLength = 3;
    record.pathTail = {0x400100u, 0x400200u,
                       0x400300u + static_cast<std::uint32_t>(i)};
    record.outcome =
        static_cast<std::uint8_t>(i % obs::kProvenanceOutcomes);
    record.source = static_cast<std::uint8_t>(i % 3);
    record.flags = obs::kProvHasDecision | obs::kProvEntryPresent;
    record.entryHitsBefore = 1;
    record.entryTrainingsBefore = 2;
    record.entryHitsAfter = 3;
    record.entryTrainingsAfter = 4;
    record.energyDeltaJ = 0.25 * i;
    return record;
}

/** In-memory sink collecting records in arrival order. */
class CollectSink final : public obs::ProvenanceSink
{
  public:
    void write(const obs::ProvenanceRecord &record) override
    {
        records.push_back(record);
    }

    std::vector<obs::ProvenanceRecord> records;
};

struct TempDir
{
    TempDir()
    {
        path = (std::filesystem::temp_directory_path() /
                ("pcap-test-provenance-" +
                 std::to_string(::getpid())))
                   .string();
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    std::string path;
};

TEST(ProvenanceObserver, SinkSeesEveryPeriodExactlyOnceInOrder)
{
    CollectSink sink;
    sim::ProvenanceObserver observer(sink, sim::SimParams{}.disk);
    sim::ExecutionInput input;
    input.endTime = 10000;
    observer.onExecutionBegin(input);
    for (int i = 0; i < 5; ++i) {
        sim::IdlePeriodRecord period;
        period.pid = 100 + i;
        period.start = 1000 * i;
        period.end = 1000 * i + 500;
        period.outcome = static_cast<sim::IdleOutcome>(i);
        observer.onIdlePeriod(period);
    }

    ASSERT_EQ(sink.records.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(sink.records[i].startUs, 1000 * i) << "record " << i;
        EXPECT_EQ(sink.records[i].endUs, 1000 * i + 500);
        EXPECT_EQ(sink.records[i].pid, 100 + i);
        EXPECT_EQ(sink.records[i].outcome, i);
    }
}

TEST(ProvenanceBinary, RoundTripPreservesEveryField)
{
    TempDir dir;
    const std::string path = dir.path + "/roundtrip.prov.bin";
    {
        obs::BinaryProvenanceWriter writer(path);
        for (int i = 0; i < 7; ++i)
            writer.write(sampleRecord(i));
        writer.close();
        EXPECT_EQ(writer.recordCount(), 7u);
    }

    std::vector<obs::ProvenanceRecord> records;
    ASSERT_EQ(obs::readProvenanceFile(path, records), "");
    ASSERT_EQ(records.size(), 7u);
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ(records[i], sampleRecord(i)) << "record " << i;
}

TEST(ProvenanceBinary, ReaderRejectsGarbage)
{
    TempDir dir;
    std::vector<obs::ProvenanceRecord> records;

    EXPECT_NE(obs::readProvenanceFile(dir.path + "/missing.prov.bin",
                                      records),
              "");

    const std::string bad = dir.path + "/bad.prov.bin";
    {
        std::ofstream os(bad, std::ios::binary);
        os << "this is not a provenance file";
    }
    EXPECT_NE(obs::readProvenanceFile(bad, records), "");
}

TEST(ProvenanceNames, OutcomeTableMirrorsSimIdleOutcome)
{
    // The obs layer cannot include sim (dependency order), so the
    // outcome codes mirror sim::IdleOutcome by value. This is the
    // lockstep guard: renaming or reordering either side fails here.
    for (std::size_t i = 0; i < obs::kProvenanceOutcomes; ++i) {
        EXPECT_STREQ(
            obs::provenanceOutcomeName(static_cast<std::uint8_t>(i)),
            sim::idleOutcomeName(static_cast<sim::IdleOutcome>(i)))
            << "outcome code " << i;
    }
}

TEST(ProvenanceNames, SourceTableMirrorsPredDecisionSource)
{
    for (std::uint8_t i = 0; i < 3; ++i) {
        EXPECT_STREQ(
            obs::provenanceSourceName(i),
            pred::decisionSourceName(
                static_cast<pred::DecisionSource>(i)))
            << "source code " << int(i);
    }
}

TEST(ProvenanceForensics, DetectsCollisionsAndRanksMispredictors)
{
    obs::ProvenanceForensics forensics;

    // Signature A: two distinct paths (a collision), 2 misses.
    obs::ProvenanceRecord a1 = sampleRecord(0);
    a1.signature = 0xaaaa;
    a1.pathHash = 1;
    a1.outcome = obs::kOutcomeMissPrimary;
    obs::ProvenanceRecord a2 = a1;
    a2.pathHash = 2; // same signature, different full path
    a2.outcome = obs::kOutcomeMissBackup;
    // Signature B: one path, 1 miss + 1 hit.
    obs::ProvenanceRecord b1 = sampleRecord(1);
    b1.signature = 0xbbbb;
    b1.pathHash = 3;
    b1.outcome = obs::kOutcomeMissPrimary;
    obs::ProvenanceRecord b2 = b1;
    b2.outcome = obs::kOutcomeHitPrimary;
    // A record with no decision attached.
    obs::ProvenanceRecord none;
    none.outcome = obs::kOutcomeShort;

    for (const auto &record : {a1, a2, b1, b2, none})
        forensics.add(record);

    EXPECT_EQ(forensics.records(), 5u);
    EXPECT_EQ(forensics.noDecision(), 1u);
    EXPECT_EQ(forensics.outcomeTotals()[obs::kOutcomeShort], 1u);
    EXPECT_EQ(forensics.outcomeTotals()[obs::kOutcomeMissPrimary],
              2u);

    const auto collisions = forensics.collisions();
    ASSERT_EQ(collisions.size(), 1u);
    EXPECT_EQ(collisions[0]->signature, 0xaaaau);
    EXPECT_EQ(collisions[0]->pathCounts.size(), 2u);

    const auto top = forensics.topMispredictors(10);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0]->signature, 0xaaaau); // 2 misses before 1
    EXPECT_EQ(top[1]->signature, 0xbbbbu);
    EXPECT_EQ(top[1]->hits(), 1u);
}

/** Outcome totals of @p f restated as AccuracyStats-shaped sums. */
void
expectReconciles(const obs::ProvenanceForensics &f,
                 const sim::AccuracyStats &stats)
{
    const auto &totals = f.outcomeTotals();
    EXPECT_EQ(totals[obs::kOutcomeHitPrimary], stats.hitPrimary);
    EXPECT_EQ(totals[obs::kOutcomeHitBackup], stats.hitBackup);
    EXPECT_EQ(totals[obs::kOutcomeMissPrimary], stats.missPrimary);
    EXPECT_EQ(totals[obs::kOutcomeMissBackup], stats.missBackup);
    EXPECT_EQ(totals[obs::kOutcomeNotPredicted],
              stats.notPredicted);
    // Every non-Short record is exactly one AccuracyStats tally.
    EXPECT_EQ(f.records() - totals[obs::kOutcomeShort],
              stats.hits() + stats.misses() + stats.notPredicted);
}

TEST(ProvenanceReconciliation, LogMatchesAccuracyStatsExactly)
{
    TempDir dir;
    sim::ExperimentConfig config;
    config.maxExecutions = 2;
    sim::ParallelOptions options;
    options.provenanceDir = dir.path;
    sim::ParallelEvaluation eval(config, options);

    const sim::PolicyConfig policy = sim::PolicyConfig::pcapBase();
    const std::string app = "mozilla";
    const sim::GlobalOutcome global = eval.globalRun(app, policy);
    const sim::AccuracyStats local = eval.localAccuracy(app, policy);

    // Each cell serialized one binary log; fold each back through
    // the forensics aggregation and reconcile against the stats the
    // run itself reported.
    std::size_t found = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path)) {
        const std::string path = entry.path().string();
        if (path.size() < 9 ||
            path.compare(path.size() - 9, 9, ".prov.bin") != 0)
            continue;
        std::vector<obs::ProvenanceRecord> records;
        ASSERT_EQ(obs::readProvenanceFile(path, records), "");
        ASSERT_FALSE(records.empty()) << path;
        obs::ProvenanceForensics forensics;
        for (const auto &record : records)
            forensics.add(record);
        const bool isGlobal =
            path.find("global-") != std::string::npos;
        expectReconciles(forensics, isGlobal
                                        ? global.run.accuracy
                                        : local);
        ++found;
    }
    EXPECT_EQ(found, 2u); // one global cell, one local cell
}

} // namespace
} // namespace pcap
