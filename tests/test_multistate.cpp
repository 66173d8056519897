/**
 * @file
 * Tests of the multi-state extension (Section 7 future work): the
 * low-power idle mode of the disk model and the multi-state global
 * runner.
 */

#include <gtest/gtest.h>

#include "power/disk.hpp"
#include "sim/drivers.hpp"
#include "sim/kernel.hpp"

namespace pcap {
namespace {

using power::DiskState;
using power::EnergyCategory;
using power::PowerManagedDisk;

TEST(LowPowerMode, EntryOnlyFromIdle)
{
    PowerManagedDisk disk(power::fujitsuMhf2043at());
    // Busy: refused.
    disk.request(0, 1000);
    EXPECT_FALSE(disk.enterLowPower(millisUs(10)));

    // Idle: accepted.
    EXPECT_TRUE(disk.enterLowPower(secondsUs(10)));
    EXPECT_EQ(disk.state(), DiskState::LowPower);
    EXPECT_EQ(disk.lowPowerCount(), 1u);

    // Already low-power: refused.
    EXPECT_FALSE(disk.enterLowPower(secondsUs(11)));

    // Standby: refused.
    ASSERT_TRUE(disk.shutdown(secondsUs(12)));
    EXPECT_FALSE(disk.enterLowPower(secondsUs(14)));
    disk.finish(secondsUs(20));
}

TEST(LowPowerMode, AccruesReducedPower)
{
    const power::DiskParams params = power::fujitsuMhf2043at();
    PowerManagedDisk disk(params);
    const TimeUs done = disk.request(0, 1);
    ASSERT_TRUE(disk.enterLowPower(done + secondsUs(2)));
    disk.request(done + secondsUs(10), 1);
    disk.finish(done + secondsUs(11));

    // 2 s at idle power, 8 s at low power, within the same long gap.
    const double expected =
        power::energyJ(params.idlePowerW, secondsUs(2)) +
        power::energyJ(params.lowPowerIdleW, secondsUs(8));
    EXPECT_NEAR(disk.ledger().get(EnergyCategory::IdleLong),
                expected, 1e-9);
}

TEST(LowPowerMode, ExitPaysHeadLoadOnNextRequest)
{
    const power::DiskParams params = power::fujitsuMhf2043at();
    PowerManagedDisk disk(params);
    const TimeUs done = disk.request(0, 1);
    ASSERT_TRUE(disk.enterLowPower(done));
    const TimeUs completion = disk.request(secondsUs(3), 1);
    EXPECT_EQ(completion, secondsUs(3) + params.lowPowerExitTime +
                              params.serviceTimePerBlock);
    disk.finish(completion);
    EXPECT_NEAR(disk.ledger().get(EnergyCategory::PowerCycle),
                params.lowPowerExitEnergyJ, 1e-9);
    // No spin-up happened.
    EXPECT_EQ(disk.spinUpCount(), 0u);
}

TEST(LowPowerMode, ShutdownFromLowPowerWorks)
{
    PowerManagedDisk disk(power::fujitsuMhf2043at());
    const TimeUs done = disk.request(0, 1);
    ASSERT_TRUE(disk.enterLowPower(done));
    EXPECT_TRUE(disk.shutdown(done + secondsUs(1)));
    EXPECT_EQ(disk.state(), DiskState::Standby);
    disk.finish(done + secondsUs(10));
}

TEST(LowPowerMode, MispredictionIsCheaperThanSpinCycle)
{
    // A false "long idle" prediction on a 3 s gap: low-power parking
    // costs the head-load; a full spin-down costs the whole cycle.
    const power::DiskParams params = power::fujitsuMhf2043at();

    PowerManagedDisk parked(params);
    TimeUs done = parked.request(0, 1);
    parked.enterLowPower(done);
    parked.request(done + secondsUs(3), 1);
    parked.finish(done + secondsUs(4));

    PowerManagedDisk cycled(params);
    done = cycled.request(0, 1);
    cycled.shutdown(done);
    cycled.request(done + secondsUs(3), 1);
    cycled.finish(done + secondsUs(4));

    EXPECT_LT(parked.ledger().total(), cycled.ledger().total());
}

TEST(MultiStateRunner, SameAccuracyLessEnergy)
{
    // Scripted stream with trained PCAP signatures: two executions
    // so the second one predicts.
    sim::ExecutionInput input;
    input.app = "ms-test";
    TimeUs now = 0;
    for (int i = 0; i < 12; ++i) {
        trace::DiskAccess access;
        access.time = now;
        access.pid = 100;
        access.pc = 0x1000;
        access.fd = 3;
        access.blocks = 1;
        input.accesses.push_back(access);
        now += secondsUs(30);
    }
    input.endTime = now;
    input.processes.push_back({100, 0, now});

    sim::SimulationKernel kernel{sim::SimParams{}};
    sim::PolicySession plain(sim::PolicyConfig::pcapBase());
    sim::GlobalDriver plain_driver(plain);
    const sim::RunResult plain_run =
        kernel.run({input, input}, plain_driver);

    sim::PolicySession ms(sim::PolicyConfig::pcapBase());
    sim::GlobalDriver ms_driver(ms, {.multiState = true});
    const sim::RunResult ms_run = kernel.run({input, input}, ms_driver);

    EXPECT_EQ(ms_run.accuracy.hits(), plain_run.accuracy.hits());
    EXPECT_EQ(ms_run.accuracy.misses(),
              plain_run.accuracy.misses());
    // The wait-window before each predicted spin-down is spent at
    // low power: strictly less energy.
    EXPECT_LT(ms_run.energy.total(), plain_run.energy.total());
}

} // namespace
} // namespace pcap
