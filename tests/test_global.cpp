/**
 * @file
 * Global Shutdown Predictor tests (Section 5): per-process local
 * predictors, consent composition, fork/exit handling and
 * last-decision attribution.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/global.hpp"
#include "core/pcap.hpp"
#include "pred/timeout.hpp"
#include "util/rng.hpp"

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

/**
 * Decisions handed out in script order, one per onIo call, across
 * every predictor sharing the script — so a test knows each access's
 * new local decision without running a real predictor.
 */
struct Script
{
    std::vector<ShutdownDecision> decisions;
    std::size_t next = 0;

    ShutdownDecision take()
    {
        return decisions[next++ % decisions.size()];
    }
};

class ScriptedPredictor final : public pred::ShutdownPredictor
{
  public:
    ScriptedPredictor(Script &script, TimeUs start)
        : script_(script), decision_(pred::initialConsent(start))
    {
    }

    ShutdownDecision onIo(const pred::IoContext &ctx) override
    {
        (void)ctx;
        return decision_ = script_.take();
    }
    ShutdownDecision decision() const override { return decision_; }
    void resetExecution() override {}
    const char *name() const override { return "scripted"; }

  private:
    Script &script_;
    ShutdownDecision decision_;
};

GlobalShutdownPredictor
makeScriptedGlobal(Script &script)
{
    return GlobalShutdownPredictor([&script](Pid, TimeUs start) {
        return std::make_unique<ScriptedPredictor>(script, start);
    });
}

/** A live process as the brute-force model sees it. */
struct ModelSlot
{
    TimeUs lastIoTime = -1;
    ShutdownDecision decision;
};

/** The combine written out: the latest earliest time, then the
 * latest lastIoTime, then the lowest pid; {0, None} and -1 with none
 * live. */
GlobalShutdownPredictor::AttributedDecision
bruteForceCombine(const std::map<Pid, ModelSlot> &live)
{
    GlobalShutdownPredictor::AttributedDecision best{
        {0, DecisionSource::None}, -1};
    TimeUs best_last_io = 0;
    for (const auto &[pid, slot] : live) { // ascending pid
        const bool wins =
            best.pid < 0 ||
            slot.decision.earliest > best.decision.earliest ||
            (slot.decision.earliest == best.decision.earliest &&
             slot.lastIoTime > best_last_io);
        if (wins) {
            best = {slot.decision, pid};
            best_last_io = slot.lastIoTime;
        }
    }
    return best;
}

void
assertMatchesModel(const GlobalShutdownPredictor &gsp,
                   const std::map<Pid, ModelSlot> &live,
                   const std::string &where)
{
    const auto expected = bruteForceCombine(live);
    const auto actual = gsp.globalDecisionDetailed();
    ASSERT_EQ(actual.decision, expected.decision) << where;
    ASSERT_EQ(actual.pid, expected.pid) << where;
    ASSERT_EQ(gsp.liveCount(), live.size()) << where;
}

TEST(GlobalPredictorDifferential, CachedWinnerMatchesBruteForce)
{
    // Times and decisions come from tiny sets so that ties on the
    // earliest time and on lastIoTime are common, and a process's
    // next decision is often earlier than its current one.
    constexpr TimeUs kTimes[] = {0, 1, 2, 3};
    constexpr TimeUs kEarliest[] = {kTimeNever, 0, 1, 2, 3, 4};
    constexpr DecisionSource kSources[] = {
        DecisionSource::None, DecisionSource::Primary,
        DecisionSource::Backup};
    constexpr int kSequences = 2000;
    constexpr int kEventsPerSequence = 40;
    constexpr Pid kMaxPid = 8;

    Rng rng(20230);
    for (int sequence = 0; sequence < kSequences; ++sequence) {
        Script script;
        for (int i = 0; i < 16; ++i) {
            script.decisions.push_back(
                {kEarliest[rng.uniformInt(0, 5)],
                 kSources[rng.uniformInt(0, 2)]});
        }
        Script model_script = script; // the model's own cursor
        GlobalShutdownPredictor gsp = makeScriptedGlobal(script);
        std::map<Pid, ModelSlot> live;
        ASSERT_NO_FATAL_FAILURE(assertMatchesModel(gsp, live, "empty"));

        for (int event = 0; event < kEventsPerSequence; ++event) {
            const Pid pid =
                static_cast<Pid>(rng.uniformInt(1, kMaxPid));
            const TimeUs time = kTimes[rng.uniformInt(0, 3)];
            const std::string where =
                "sequence " + std::to_string(sequence) + " event " +
                std::to_string(event) + " pid " + std::to_string(pid);
            const auto it = live.find(pid);
            if (it == live.end()) {
                gsp.processStart(pid, time);
                live[pid] = {-1, pred::initialConsent(time)};
            } else if (rng.uniformInt(0, 3) == 0) {
                gsp.processExit(pid, time);
                live.erase(it);
            } else {
                trace::DiskAccess a;
                a.time = time;
                a.pid = pid;
                const ShutdownDecision returned = gsp.onAccess(a);
                it->second = {time, model_script.take()};
                ASSERT_EQ(returned, bruteForceCombine(live).decision)
                    << where;
                ASSERT_EQ(gsp.localDecision(pid), it->second.decision)
                    << where;
            }
            ASSERT_NO_FATAL_FAILURE(assertMatchesModel(gsp, live, where));
        }
    }
}

TEST(GlobalPredictorDifferential, WinnerExitHandsOverToRunnerUp)
{
    Script script{{{30, DecisionSource::Primary},
                   {20, DecisionSource::Backup},
                   {10, DecisionSource::Primary}}};
    GlobalShutdownPredictor gsp = makeScriptedGlobal(script);
    for (const Pid pid : {1, 2, 3})
        gsp.processStart(pid, 0);
    gsp.onAccess(access(1, 2)); // 30
    gsp.onAccess(access(1, 3)); // 20
    gsp.onAccess(access(1, 1)); // 10
    EXPECT_EQ(gsp.globalDecisionDetailed().pid, 2);

    gsp.processExit(2, 2);
    const auto decision = gsp.globalDecisionDetailed();
    EXPECT_EQ(decision.pid, 3);
    EXPECT_EQ(decision.decision,
              (ShutdownDecision{20, DecisionSource::Backup}));

    gsp.processExit(3, 2);
    EXPECT_EQ(gsp.globalDecisionDetailed().pid, 1);
    gsp.processExit(1, 2);
    EXPECT_EQ(gsp.globalDecisionDetailed().pid, -1);
}

TEST(GlobalPredictorDifferential, WinnerMovingEarlierLosesTheLead)
{
    Script script{{{50, DecisionSource::Primary},
                   {40, DecisionSource::Primary},
                   {10, DecisionSource::Backup}}};
    GlobalShutdownPredictor gsp = makeScriptedGlobal(script);
    gsp.processStart(1, 0);
    gsp.processStart(2, 0);
    gsp.onAccess(access(1, 1)); // pid 1 leads with 50
    gsp.onAccess(access(2, 2)); // pid 2 holds 40
    EXPECT_EQ(gsp.globalDecisionDetailed().pid, 1);

    // The leader's new decision (10) is earlier than pid 2's.
    const ShutdownDecision decision = gsp.onAccess(access(3, 1));
    EXPECT_EQ(decision, (ShutdownDecision{40, DecisionSource::Primary}));
    EXPECT_EQ(gsp.globalDecisionDetailed().pid, 2);
}

TEST(GlobalPredictorDifferential, IoLessNewcomerTyingTheWinner)
{
    Script script{{{5, DecisionSource::Primary}}};
    GlobalShutdownPredictor gsp = makeScriptedGlobal(script);
    gsp.processStart(4, 0);
    gsp.onAccess(access(2, 4)); // pid 4 consents from 5, last I/O 2

    // A newcomer started at 5 consents from 5 too, with no I/O: the
    // winner's later lastIoTime keeps the lead.
    gsp.processStart(1, 5);
    EXPECT_EQ(gsp.globalDecisionDetailed().pid, 4);

    // Two I/O-less processes tie on both: the lower pid wins,
    // whichever started first.
    GlobalShutdownPredictor idle = makeScriptedGlobal(script);
    idle.processStart(7, 5);
    idle.processStart(3, 5);
    EXPECT_EQ(idle.globalDecisionDetailed().pid, 3);
    idle.processStart(2, 5);
    EXPECT_EQ(idle.globalDecisionDetailed().pid, 2);
    EXPECT_EQ(idle.globalDecision(), pred::initialConsent(5));
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
