/**
 * @file
 * Property-based tests: invariants that must hold across randomized
 * scenario sweeps (TEST_P over seeds and configurations).
 *
 *  - the disk model conserves energy: the ledger equals a
 *    first-principles reconstruction from the same script;
 *  - the cache never exceeds capacity and its counters balance;
 *  - every policy's accuracy tallies balance against opportunity
 *    counts on randomized access streams;
 *  - signature arithmetic is order-insensitive (commutative sum).
 */

#include <gtest/gtest.h>

#include "cache/file_cache.hpp"
#include "core/signature.hpp"
#include "power/disk.hpp"
#include "sim/drivers.hpp"
#include "sim/kernel.hpp"
#include "util/rng.hpp"

namespace pcap {
namespace {

// ---- Disk-model energy conservation --------------------------------

class DiskEnergyProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(DiskEnergyProperty, LedgerMatchesFirstPrinciples)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const power::DiskParams params = power::fujitsuMhf2043at();
    power::PowerManagedDisk disk(params);

    // Random request/shutdown script; mirror the timeline by hand.
    double busy_expected = 0.0;
    double gap_expected = 0.0; // idle + standby, all gaps
    double cycle_expected = 0.0;

    TimeUs now = 0;
    TimeUs completion = 0;
    for (int i = 0; i < 200; ++i) {
        const auto blocks = static_cast<std::uint32_t>(
            rng.uniformInt(1, 20));
        const TimeUs gap =
            secondsUs(rng.uniformReal(0.01, 25.0));
        now = completion + gap;

        // Maybe order a shutdown mid-gap, leaving room for the
        // spin-down transition to complete inside the gap so the
        // hand-mirror below stays simple.
        bool was_shut = false;
        TimeUs shut_at = 0;
        if (rng.chance(0.4) && gap > 2 * params.shutdownTime) {
            shut_at = completion +
                      secondsUs(rng.uniformReal(
                          0.0,
                          usToSeconds(gap -
                                      2 * params.shutdownTime)));
            was_shut = disk.shutdown(shut_at);
        }

        const TimeUs prev_completion = completion;
        completion = disk.request(now, blocks);

        if (was_shut) {
            gap_expected +=
                power::energyJ(params.idlePowerW,
                               shut_at - prev_completion) +
                power::energyJ(params.standbyPowerW,
                               now - shut_at -
                                   params.shutdownTime);
            cycle_expected +=
                params.shutdownEnergyJ + params.spinUpEnergyJ;
            busy_expected += power::energyJ(
                params.busyPowerW,
                static_cast<TimeUs>(blocks) *
                    params.serviceTimePerBlock);
        } else {
            gap_expected += power::energyJ(
                params.idlePowerW, now - prev_completion);
            busy_expected += power::energyJ(
                params.busyPowerW,
                static_cast<TimeUs>(blocks) *
                    params.serviceTimePerBlock);
        }
    }
    disk.finish(completion);

    const auto &ledger = disk.ledger();
    EXPECT_NEAR(ledger.get(power::EnergyCategory::BusyIo),
                busy_expected, 1e-6);
    EXPECT_NEAR(ledger.get(power::EnergyCategory::IdleShort) +
                    ledger.get(power::EnergyCategory::IdleLong),
                gap_expected, 1e-6);
    EXPECT_NEAR(ledger.get(power::EnergyCategory::PowerCycle),
                cycle_expected, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiskEnergyProperty,
                         ::testing::Range(1, 9));

// ---- Cache invariants ----------------------------------------------

struct CacheSweepParam
{
    int seed;
    std::size_t capacity_blocks;
};

class CacheProperty
    : public ::testing::TestWithParam<CacheSweepParam>
{
};

TEST_P(CacheProperty, CountersBalanceAndCapacityHolds)
{
    Rng rng(static_cast<std::uint64_t>(GetParam().seed));
    cache::CacheParams params;
    params.capacityBytes = GetParam().capacity_blocks * 4096;

    cache::FileCache cache(params);
    std::vector<trace::DiskAccess> out;
    TimeUs now = 0;
    std::uint64_t disk_read_blocks = 0;

    for (int i = 0; i < 2000; ++i) {
        now += static_cast<TimeUs>(rng.exponential(
            static_cast<double>(secondsUs(0.5))));
        trace::TraceEvent event;
        event.time = now;
        event.pid = 10;
        event.type = rng.chance(0.3) ? trace::EventType::Write
                                     : trace::EventType::Read;
        event.pc = 0x1000;
        event.fd = 3;
        event.file = static_cast<FileId>(rng.uniformInt(0, 20));
        event.offset = 4096 * static_cast<std::uint64_t>(
                                  rng.uniformInt(0, 40));
        event.size = static_cast<std::uint32_t>(
            4096 * rng.uniformInt(1, 4));

        out.clear();
        cache.access(event, out);
        ASSERT_LE(cache.residentBlocks(),
                  params.capacityBlocks());
        for (const auto &access : out) {
            if (!access.isWrite)
                disk_read_blocks += access.blocks;
        }
    }
    out.clear();
    cache.flushAll(now + secondsUs(60), out);
    EXPECT_EQ(cache.dirtyBlocks(), 0u);

    const cache::CacheStats &stats = cache.stats();
    EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
    // Every read miss became a disk read block.
    EXPECT_LE(disk_read_blocks, stats.misses);
    EXPECT_GT(stats.hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheProperty,
    ::testing::Values(CacheSweepParam{1, 4}, CacheSweepParam{2, 16},
                      CacheSweepParam{3, 64},
                      CacheSweepParam{4, 256},
                      CacheSweepParam{5, 1}));

// ---- Accuracy-tally invariants over random streams ------------------

struct PolicySweepParam
{
    const char *label;
    int seed;
};

class AccuracyProperty
    : public ::testing::TestWithParam<PolicySweepParam>
{
  protected:
    static sim::PolicyConfig
    policyFor(const std::string &label)
    {
        if (label == "TP")
            return sim::PolicyConfig::timeoutPolicy();
        if (label == "LT")
            return sim::PolicyConfig::learningTree();
        if (label == "PCAPh")
            return sim::PolicyConfig::pcapHistory();
        if (label == "PCAPfh")
            return sim::PolicyConfig::pcapFdHistory();
        return sim::PolicyConfig::pcapBase();
    }
};

TEST_P(AccuracyProperty, TalliesBalanceOnRandomStreams)
{
    Rng rng(static_cast<std::uint64_t>(GetParam().seed) * 7919);
    sim::ExecutionInput input;
    input.app = "random";

    // Random multiprocess access stream with heavy-tailed gaps.
    TimeUs now = 0;
    const int pids = 3;
    const Pid pid_base = 100; // clear of the flush daemon's pid
    for (int i = 0; i < 400; ++i) {
        now += secondsUs(rng.logNormal(2.0, 1.5));
        trace::DiskAccess access;
        access.time = now;
        access.pid = static_cast<Pid>(
            pid_base + rng.uniformInt(0, pids - 1));
        access.pc = static_cast<Address>(
            0x1000 * rng.uniformInt(1, 8));
        access.fd = static_cast<Fd>(rng.uniformInt(3, 6));
        access.blocks = 1;
        input.accesses.push_back(access);
    }
    input.endTime = now + secondsUs(30);
    for (Pid pid = 0; pid < pids; ++pid)
        input.processes.push_back(
            {static_cast<Pid>(pid_base + pid), 0, input.endTime});
    input.processes.push_back(
        {kFlushDaemonPid, 0, input.endTime});

    sim::SimParams params;
    sim::PolicySession session(policyFor(GetParam().label));
    sim::GlobalDriver driver(session);
    const sim::RunResult result =
        sim::SimulationKernel(params).runExecution(input, driver);
    const sim::AccuracyStats &stats = result.accuracy;

    // Hits and not-predicted periods are bounded by opportunities;
    // misses may exceed them (short-gap shutdowns) but every
    // shutdown decision is accounted exactly once.
    EXPECT_LE(stats.hits() + stats.notPredicted,
              stats.opportunities);
    EXPECT_EQ(stats.opportunities,
              input.countGlobalOpportunities(params.breakeven()));
    // The disk performed no more spin-downs than decisions taken
    // (some orders are refused while busy).
    EXPECT_LE(result.shutdowns,
              stats.hits() + stats.misses());
    // Energy sanity: something was spent, never negative.
    EXPECT_GT(result.energy.total(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, AccuracyProperty,
    ::testing::Values(PolicySweepParam{"TP", 1},
                      PolicySweepParam{"TP", 2},
                      PolicySweepParam{"LT", 1},
                      PolicySweepParam{"LT", 2},
                      PolicySweepParam{"PCAP", 1},
                      PolicySweepParam{"PCAP", 2},
                      PolicySweepParam{"PCAPh", 1},
                      PolicySweepParam{"PCAPfh", 1}),
    [](const auto &info) {
        return std::string(info.param.label) + "_seed" +
               std::to_string(info.param.seed);
    });

// ---- Signature algebra ----------------------------------------------

class SignatureProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(SignatureProperty, SumIsOrderInsensitive)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    std::vector<Address> pcs;
    for (int i = 0; i < 32; ++i)
        pcs.push_back(static_cast<Address>(rng.next()));

    core::PathSignature forward;
    for (Address pc : pcs)
        forward.extend(pc);

    std::vector<Address> shuffled = pcs;
    for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
        std::swap(shuffled[i],
                  shuffled[static_cast<std::size_t>(
                      rng.uniformInt(0, static_cast<int>(i)))]);
    }
    core::PathSignature backward;
    for (Address pc : shuffled)
        backward.extend(pc);

    EXPECT_EQ(forward.value(), backward.value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignatureProperty,
                         ::testing::Range(1, 7));

} // namespace
} // namespace pcap
