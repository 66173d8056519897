/**
 * @file
 * Global Shutdown Predictor tests (Section 5): per-process local
 * predictors, consent composition, fork/exit handling and
 * last-decision attribution.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/global.hpp"
#include "core/pcap.hpp"
#include "pred/timeout.hpp"

namespace pcap::core {
namespace {

using pred::DecisionSource;
using pred::ShutdownDecision;

trace::DiskAccess
access(TimeUs time, Pid pid, Address pc = 0x1000, Fd fd = 3)
{
    trace::DiskAccess a;
    a.time = time;
    a.pid = pid;
    a.pc = pc;
    a.fd = fd;
    return a;
}

GlobalShutdownPredictor
makeTimeoutGlobal(TimeUs timeout = secondsUs(10))
{
    return GlobalShutdownPredictor(
        [timeout](Pid, TimeUs start) {
            return std::make_unique<pred::TimeoutPredictor>(timeout,
                                                            start);
        });
}

TEST(GlobalPredictor, EmptySystemConsents)
{
    GlobalShutdownPredictor gsp = makeTimeoutGlobal();
    const ShutdownDecision decision = gsp.globalDecision();
    EXPECT_EQ(decision.earliest, 0);
    EXPECT_EQ(decision.source, DecisionSource::None);
    EXPECT_EQ(gsp.liveCount(), 0u);
}

TEST(GlobalPredictor, IoLessProcessConsentsFromStart)
{
    GlobalShutdownPredictor gsp = makeTimeoutGlobal();
    gsp.processStart(1, secondsUs(5));
    const ShutdownDecision decision = gsp.globalDecision();
    EXPECT_EQ(decision.earliest, secondsUs(5));
    EXPECT_EQ(decision.source, DecisionSource::None);
}

TEST(GlobalPredictor, SingleProcessFollowsItsPredictor)
{
    GlobalShutdownPredictor gsp = makeTimeoutGlobal();
    gsp.processStart(1, 0);
    const ShutdownDecision decision =
        gsp.onAccess(access(secondsUs(3), 1));
    EXPECT_EQ(decision.earliest, secondsUs(13));
    EXPECT_EQ(decision.source, DecisionSource::Primary);
}

TEST(GlobalPredictor, LatestConsentWins)
{
    GlobalShutdownPredictor gsp = makeTimeoutGlobal();
    gsp.processStart(1, 0);
    gsp.processStart(2, 0);
    gsp.onAccess(access(secondsUs(1), 1));
    const ShutdownDecision decision =
        gsp.onAccess(access(secondsUs(4), 2));
    // Process 2's timer expires last: the disk may only spin down
    // once EVERY process consents.
    EXPECT_EQ(decision.earliest, secondsUs(14));
}

TEST(GlobalPredictor, StaleConsentDoesNotBlock)
{
    GlobalShutdownPredictor gsp = makeTimeoutGlobal();
    gsp.processStart(1, 0);
    gsp.processStart(2, 0);
    gsp.onAccess(access(secondsUs(1), 2));
    // Much later, process 1 acts; process 2's old decision (expires
    // at 11 s) is already satisfied and does not delay anything.
    const ShutdownDecision decision =
        gsp.onAccess(access(secondsUs(100), 1));
    EXPECT_EQ(decision.earliest, secondsUs(110));
}

TEST(GlobalPredictor, ExitRemovesConstraint)
{
    GlobalShutdownPredictor gsp = makeTimeoutGlobal();
    gsp.processStart(1, 0);
    gsp.processStart(2, 0);
    gsp.onAccess(access(secondsUs(1), 1));
    gsp.onAccess(access(secondsUs(5), 2)); // blocks until 15 s
    EXPECT_EQ(gsp.globalDecision().earliest, secondsUs(15));

    gsp.processExit(2, secondsUs(6));
    EXPECT_EQ(gsp.globalDecision().earliest, secondsUs(11));
    EXPECT_FALSE(gsp.isLive(2));
    EXPECT_TRUE(gsp.isLive(1));
}

TEST(GlobalPredictor, NeverDecisionDominates)
{
    // One process with the backup disabled never consents after I/O.
    auto table = std::make_shared<PredictionTable>();
    GlobalShutdownPredictor gsp(
        [table](Pid pid, TimeUs start)
            -> std::unique_ptr<pred::ShutdownPredictor> {
            if (pid == 2) {
                PcapConfig config;
                config.backupEnabled = false;
                return std::make_unique<PcapPredictor>(config, table,
                                                       start);
            }
            return std::make_unique<pred::TimeoutPredictor>(
                secondsUs(10), start);
        });
    gsp.processStart(1, 0);
    gsp.processStart(2, 0);
    gsp.onAccess(access(secondsUs(1), 1));
    gsp.onAccess(access(secondsUs(2), 2));
    EXPECT_EQ(gsp.globalDecision().earliest, kTimeNever);
    EXPECT_EQ(gsp.globalDecision().source, DecisionSource::None);
}

TEST(GlobalPredictor, NeverConsentAttributionIsOrderIndependent)
{
    // Pids 3 and 5 both never consent after their I/O. Attribution
    // follows the consent path's rule — the latest lastIoTime, then
    // the lowest pid — whichever order the slots were created in.
    const auto factory = [](Pid, TimeUs start)
        -> std::unique_ptr<pred::ShutdownPredictor> {
        PcapConfig config;
        config.backupEnabled = false;
        return std::make_unique<PcapPredictor>(
            config, std::make_shared<PredictionTable>(), start);
    };
    for (const bool low_first : {true, false}) {
        GlobalShutdownPredictor gsp(factory);
        for (const Pid pid : low_first ? std::vector<Pid>{3, 5}
                                       : std::vector<Pid>{5, 3})
            gsp.processStart(pid, 0);

        gsp.onAccess(access(secondsUs(1), 3));
        gsp.onAccess(access(secondsUs(1), 5));
        GlobalShutdownPredictor::AttributedDecision decision =
            gsp.globalDecisionDetailed();
        EXPECT_EQ(decision.decision.earliest, kTimeNever);
        EXPECT_EQ(decision.pid, 3) << "tie on lastIoTime: lowest pid";

        gsp.onAccess(access(secondsUs(2), 5));
        decision = gsp.globalDecisionDetailed();
        EXPECT_EQ(decision.decision.earliest, kTimeNever);
        EXPECT_EQ(decision.pid, 5) << "latest lastIoTime";
    }
}

TEST(GlobalPredictor, AttributionFollowsTheLastDecision)
{
    // Process 1 runs trained PCAP (primary); process 2 runs TP. The
    // global shutdown is attributed to whichever decision is latest.
    auto table = std::make_shared<PredictionTable>();
    TableKey trained;
    trained.signature = 0x1000;
    table->train(trained);

    GlobalShutdownPredictor gsp(
        [table](Pid pid, TimeUs start)
            -> std::unique_ptr<pred::ShutdownPredictor> {
            if (pid == 1) {
                return std::make_unique<PcapPredictor>(PcapConfig{},
                                                       table, start);
            }
            return std::make_unique<pred::TimeoutPredictor>(
                secondsUs(10), start);
        });
    gsp.processStart(1, 0);
    gsp.processStart(2, 0);

    gsp.onAccess(access(secondsUs(1), 2));
    // PCAP predicts at +1 s (wait-window); TP's +10 s from 1 s is
    // later, so the backup-style TP attribution wins.
    ShutdownDecision decision =
        gsp.onAccess(access(secondsUs(2), 1, 0x1000));
    EXPECT_EQ(decision.earliest, secondsUs(11));
    EXPECT_EQ(decision.source, DecisionSource::Primary); // TP's own

    // Once TP's timer is long past, PCAP's fresh primary decision is
    // the latest one.
    decision = gsp.onAccess(access(secondsUs(60), 1, 0x1000));
    EXPECT_EQ(decision.earliest, secondsUs(61));
    EXPECT_EQ(decision.source, DecisionSource::Primary);
    EXPECT_EQ(gsp.localDecision(1), decision);
}

TEST(GlobalPredictor, PerProcessGapsAreComputedIndependently)
{
    // Two PCAP processes with interleaved accesses: each process's
    // idle periods are its own, not the merged stream's.
    auto table = std::make_shared<PredictionTable>();
    GlobalShutdownPredictor gsp(
        [table](Pid, TimeUs start) {
            return std::make_unique<PcapPredictor>(PcapConfig{},
                                                   table, start);
        });
    gsp.processStart(1, 0);
    gsp.processStart(2, 0);

    // Process 1 accesses at 0 s and 30 s with pc A: its 30 s gap
    // trains signature A. Process 2 fills the middle of that gap, so
    // the merged stream never has a 30 s gap.
    gsp.onAccess(access(secondsUs(0), 1, 0xA));
    gsp.onAccess(access(secondsUs(10), 2, 0xB));
    gsp.onAccess(access(secondsUs(20), 2, 0xB));
    gsp.onAccess(access(secondsUs(30), 1, 0xA));

    TableKey key_a;
    key_a.signature = 0xA;
    EXPECT_TRUE(table->contains(key_a));
}

TEST(GlobalPredictorDeath, DuplicateStartPanics)
{
    GlobalShutdownPredictor gsp = makeTimeoutGlobal();
    gsp.processStart(1, 0);
    EXPECT_DEATH(gsp.processStart(1, 0), "already live");
}

TEST(GlobalPredictorDeath, UnknownPidAccessPanics)
{
    GlobalShutdownPredictor gsp = makeTimeoutGlobal();
    EXPECT_DEATH(gsp.onAccess(access(0, 99)), "unknown pid");
}

TEST(GlobalPredictorDeath, UnknownPidExitPanics)
{
    GlobalShutdownPredictor gsp = makeTimeoutGlobal();
    EXPECT_DEATH(gsp.processExit(99, 0), "unknown pid");
}

TEST(GlobalPredictorDeath, NullFactoryIsFatal)
{
    EXPECT_DEATH(GlobalShutdownPredictor(nullptr), "factory");
}

} // namespace
} // namespace pcap::core
