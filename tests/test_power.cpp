/**
 * @file
 * Tests of the disk power model: Table 2 parameters, breakeven
 * derivation, the energy ledger, and the online power-managed disk
 * state machine with exact energy arithmetic.
 */

#include <gtest/gtest.h>

#include "power/disk.hpp"
#include "power/disk_params.hpp"
#include "power/energy.hpp"

namespace pcap::power {
namespace {

TEST(DiskParams, DefaultsMatchTable2)
{
    const DiskParams disk = fujitsuMhf2043at();
    EXPECT_DOUBLE_EQ(disk.busyPowerW, 2.2);
    EXPECT_DOUBLE_EQ(disk.idlePowerW, 0.95);
    EXPECT_DOUBLE_EQ(disk.standbyPowerW, 0.13);
    EXPECT_DOUBLE_EQ(disk.spinUpEnergyJ, 4.4);
    EXPECT_DOUBLE_EQ(disk.shutdownEnergyJ, 0.36);
    EXPECT_EQ(disk.spinUpTime, secondsUs(1.6));
    EXPECT_EQ(disk.shutdownTime, secondsUs(0.67));
    EXPECT_EQ(disk.breakevenTime, secondsUs(5.43));
}

TEST(DiskParams, DerivedBreakevenMatchesQuoted)
{
    // The paper quotes 5.43 s; deriving it from the other Table 2
    // numbers must agree to within rounding.
    const DiskParams disk = fujitsuMhf2043at();
    EXPECT_NEAR(disk.derivedBreakevenSeconds(), 5.43, 0.1);
    EXPECT_EQ(disk.validate(), "");
}

TEST(DiskParams, ValidateCatchesInconsistencies)
{
    DiskParams disk = fujitsuMhf2043at();
    disk.busyPowerW = 0;
    EXPECT_EQ(disk.validate(), "powers must be positive");

    disk = fujitsuMhf2043at();
    disk.standbyPowerW = 1.2; // above idle power
    EXPECT_EQ(disk.validate(), "standby power must be below idle power");

    disk = fujitsuMhf2043at();
    disk.idlePowerW = 2.5;
    EXPECT_EQ(disk.validate(), "idle power must not exceed busy power");

    disk = fujitsuMhf2043at();
    disk.breakevenTime = secondsUs(60.0); // contradicts energies
    EXPECT_EQ(disk.validate(),
              "quoted breakeven 60s inconsistent with derived 5.445s");

    disk = fujitsuMhf2043at();
    disk.spinUpTime = 0;
    EXPECT_EQ(disk.validate(), "times must be positive");

    disk = fujitsuMhf2043at();
    disk.lowPowerIdleW = 2.0;
    EXPECT_EQ(disk.validate(),
              "low-power idle mode must sit between standby and idle");
}

TEST(EnergyLedger, AccumulatesPerCategory)
{
    EnergyLedger ledger;
    ledger.add(EnergyCategory::BusyIo, 1.0);
    ledger.add(EnergyCategory::BusyIo, 2.0);
    ledger.add(EnergyCategory::IdleLong, 4.0);
    EXPECT_DOUBLE_EQ(ledger.get(EnergyCategory::BusyIo), 3.0);
    EXPECT_DOUBLE_EQ(ledger.get(EnergyCategory::IdleLong), 4.0);
    EXPECT_DOUBLE_EQ(ledger.get(EnergyCategory::IdleShort), 0.0);
    EXPECT_DOUBLE_EQ(ledger.total(), 7.0);
}

TEST(EnergyLedger, MergeAndNormalize)
{
    EnergyLedger a, b;
    a.add(EnergyCategory::PowerCycle, 2.0);
    b.add(EnergyCategory::IdleShort, 6.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.total(), 8.0);

    EnergyLedger base;
    base.add(EnergyCategory::BusyIo, 16.0);
    EXPECT_DOUBLE_EQ(a.normalizedTo(base), 0.5);
    EXPECT_DOUBLE_EQ(a.normalizedTo(EnergyLedger{}), 0.0);
}

TEST(EnergyLedger, ClearResets)
{
    EnergyLedger ledger;
    ledger.add(EnergyCategory::IdleLong, 5.0);
    ledger.clear();
    EXPECT_DOUBLE_EQ(ledger.total(), 0.0);
}

TEST(EnergyLedgerDeath, NegativeEnergyPanics)
{
    EnergyLedger ledger;
    EXPECT_DEATH(ledger.add(EnergyCategory::BusyIo, -1.0),
                 "negative");
}

TEST(EnergyHelpers, PowerTimesDuration)
{
    EXPECT_DOUBLE_EQ(energyJ(2.0, secondsUs(3.0)), 6.0);
    EXPECT_DOUBLE_EQ(energyJ(0.95, secondsUs(10.0)), 9.5);
    EXPECT_DOUBLE_EQ(energyJ(5.0, 0), 0.0);
}

TEST(EnergyCategoryNames, MatchFigure8Legend)
{
    EXPECT_STREQ(energyCategoryName(EnergyCategory::BusyIo),
                 "Busy I/O");
    EXPECT_STREQ(energyCategoryName(EnergyCategory::IdleShort),
                 "Idle < Breakeven");
    EXPECT_STREQ(energyCategoryName(EnergyCategory::IdleLong),
                 "Idle > Breakeven");
    EXPECT_STREQ(energyCategoryName(EnergyCategory::PowerCycle),
                 "Power cycle");
}

class DiskModel : public ::testing::Test
{
  protected:
    DiskParams params_ = fujitsuMhf2043at();
};

TEST_F(DiskModel, BusyEnergyIsExact)
{
    PowerManagedDisk disk(params_);
    // One request of 10 blocks: busy for 10 * serviceTimePerBlock.
    const TimeUs completion = disk.request(secondsUs(1.0), 10);
    EXPECT_EQ(completion,
              secondsUs(1.0) + 10 * params_.serviceTimePerBlock);
    disk.finish(completion);
    EXPECT_NEAR(disk.ledger().get(EnergyCategory::BusyIo),
                energyJ(params_.busyPowerW,
                        10 * params_.serviceTimePerBlock),
                1e-9);
}

TEST_F(DiskModel, ShortGapEnergyGoesToIdleShort)
{
    PowerManagedDisk disk(params_);
    const TimeUs done1 = disk.request(0, 1);
    // Next request 3 s after completion: below breakeven.
    disk.request(done1 + secondsUs(3.0), 1);
    disk.finish(done1 + secondsUs(3.0) +
                params_.serviceTimePerBlock);
    EXPECT_NEAR(disk.ledger().get(EnergyCategory::IdleShort),
                energyJ(params_.idlePowerW, secondsUs(3.0)), 1e-9);
    EXPECT_DOUBLE_EQ(disk.ledger().get(EnergyCategory::IdleLong),
                     0.0);
}

TEST_F(DiskModel, LongGapWithoutShutdownGoesToIdleLong)
{
    PowerManagedDisk disk(params_);
    const TimeUs done1 = disk.request(0, 1);
    disk.request(done1 + secondsUs(20.0), 1);
    disk.finish(done1 + secondsUs(20.0) +
                params_.serviceTimePerBlock);
    EXPECT_NEAR(disk.ledger().get(EnergyCategory::IdleLong),
                energyJ(params_.idlePowerW, secondsUs(20.0)), 1e-9);
    EXPECT_EQ(disk.shutdownCount(), 0u);
}

TEST_F(DiskModel, ShutdownSplitsGapIntoIdleStandbyAndCycle)
{
    PowerManagedDisk disk(params_);
    const TimeUs done1 = disk.request(0, 1);
    const TimeUs shutdown_at = done1 + secondsUs(2.0);
    ASSERT_TRUE(disk.shutdown(shutdown_at));
    const TimeUs next = done1 + secondsUs(30.0);
    disk.request(next, 1);
    disk.finish(next + params_.spinUpTime +
                params_.serviceTimePerBlock);

    // Idle 2 s, then the 0.67 s transition (covered by the lump),
    // then standby until the next request.
    const double expected_gap_energy =
        energyJ(params_.idlePowerW, secondsUs(2.0)) +
        energyJ(params_.standbyPowerW,
                secondsUs(30.0) - secondsUs(2.0) -
                    params_.shutdownTime);
    EXPECT_NEAR(disk.ledger().get(EnergyCategory::IdleLong),
                expected_gap_energy, 1e-9);
    EXPECT_NEAR(disk.ledger().get(EnergyCategory::PowerCycle),
                params_.shutdownEnergyJ + params_.spinUpEnergyJ,
                1e-9);
    EXPECT_EQ(disk.shutdownCount(), 1u);
    EXPECT_EQ(disk.spinUpCount(), 1u);
    EXPECT_EQ(disk.totalSpinUpDelay(), params_.spinUpTime);
}

TEST_F(DiskModel, ShutdownRefusedWhileBusy)
{
    PowerManagedDisk disk(params_);
    disk.request(0, 100); // busy for a while
    EXPECT_FALSE(disk.shutdown(params_.serviceTimePerBlock * 10));
    EXPECT_EQ(disk.shutdownCount(), 0u);
    disk.finish(secondsUs(10.0));
}

TEST_F(DiskModel, ShutdownRefusedWhileAlreadyDown)
{
    PowerManagedDisk disk(params_);
    const TimeUs done = disk.request(0, 1);
    ASSERT_TRUE(disk.shutdown(done + secondsUs(1.0)));
    EXPECT_FALSE(disk.shutdown(done + secondsUs(5.0)));
    EXPECT_EQ(disk.shutdownCount(), 1u);
    disk.finish(done + secondsUs(10.0));
}

TEST_F(DiskModel, RequestDuringSpinDownWaitsForTransition)
{
    PowerManagedDisk disk(params_);
    const TimeUs done = disk.request(0, 1);
    const TimeUs shutdown_at = done + secondsUs(6.0);
    ASSERT_TRUE(disk.shutdown(shutdown_at));
    // Request arrives in the middle of the 0.67 s spin-down: it must
    // wait for the spin-down AND the spin-up.
    const TimeUs arrival = shutdown_at + millisUs(100);
    const TimeUs completion = disk.request(arrival, 1);
    EXPECT_EQ(completion, shutdown_at + params_.shutdownTime +
                              params_.spinUpTime +
                              params_.serviceTimePerBlock);
    disk.finish(completion);
}

TEST_F(DiskModel, QueuedRequestsServeBackToBack)
{
    PowerManagedDisk disk(params_);
    const TimeUs done1 = disk.request(0, 10);
    // Second request arrives while the first is still being served.
    const TimeUs done2 = disk.request(millisUs(1), 5);
    EXPECT_EQ(done2, done1 + 5 * params_.serviceTimePerBlock);
    disk.finish(done2);
    EXPECT_NEAR(disk.ledger().get(EnergyCategory::BusyIo),
                energyJ(params_.busyPowerW,
                        15 * params_.serviceTimePerBlock),
                1e-9);
}

TEST_F(DiskModel, BreakevenGapEnergyEquivalence)
{
    // At exactly the derived breakeven gap, cycling and idling cost
    // the same energy — the defining property of the breakeven time.
    const TimeUs breakeven =
        secondsUs(params_.derivedBreakevenSeconds());

    PowerManagedDisk idle_disk(params_);
    TimeUs done = idle_disk.request(0, 1);
    idle_disk.request(done + breakeven, 1);
    idle_disk.finish(done + breakeven + params_.serviceTimePerBlock);

    PowerManagedDisk cycle_disk(params_);
    done = cycle_disk.request(0, 1);
    ASSERT_TRUE(cycle_disk.shutdown(done));
    cycle_disk.request(done + breakeven, 1);
    cycle_disk.finish(done + breakeven + params_.spinUpTime +
                      params_.serviceTimePerBlock);

    const double idling =
        idle_disk.ledger().get(EnergyCategory::IdleLong) +
        idle_disk.ledger().get(EnergyCategory::IdleShort) +
        idle_disk.ledger().get(EnergyCategory::PowerCycle);
    const double cycling =
        cycle_disk.ledger().get(EnergyCategory::IdleLong) +
        cycle_disk.ledger().get(EnergyCategory::IdleShort) +
        cycle_disk.ledger().get(EnergyCategory::PowerCycle);
    // The breakeven derivation assumes the spin-up overlaps the end
    // of the gap, while the model spins up on demand *after* the
    // request arrives; the disk therefore spends an extra
    // standby * spinUpTime inside the gap.
    const double convention_delta =
        params_.standbyPowerW * usToSeconds(params_.spinUpTime);
    EXPECT_NEAR(cycling - idling, convention_delta, 0.05);
}

TEST_F(DiskModel, FinishClosesTrailingGap)
{
    PowerManagedDisk disk(params_);
    const TimeUs done = disk.request(0, 1);
    disk.finish(done + secondsUs(50.0));
    EXPECT_NEAR(disk.ledger().get(EnergyCategory::IdleLong),
                energyJ(params_.idlePowerW, secondsUs(50.0)), 1e-9);
}

TEST_F(DiskModel, StatsCountRequests)
{
    PowerManagedDisk disk(params_);
    disk.request(0, 1);
    disk.request(secondsUs(1.0), 2);
    disk.request(secondsUs(2.0), 3);
    disk.finish(secondsUs(3.0));
    EXPECT_EQ(disk.requestCount(), 3u);
}

TEST_F(DiskModel, StateTransitionsAreObservable)
{
    PowerManagedDisk disk(params_);
    EXPECT_EQ(disk.state(), DiskState::Idle);
    const TimeUs done = disk.request(0, 1000);
    EXPECT_EQ(disk.state(), DiskState::Active);
    ASSERT_TRUE(disk.shutdown(done + secondsUs(1.0)));
    EXPECT_EQ(disk.state(), DiskState::Standby);
    disk.request(done + secondsUs(10.0), 1);
    EXPECT_EQ(disk.state(), DiskState::Active);
    disk.finish(done + secondsUs(20.0));
}

TEST_F(DiskModel, DiskStateNames)
{
    EXPECT_STREQ(diskStateName(DiskState::Active), "active");
    EXPECT_STREQ(diskStateName(DiskState::Idle), "idle");
    EXPECT_STREQ(diskStateName(DiskState::Standby), "standby");
}

TEST(DiskModelDeath, TimeGoingBackwardsPanics)
{
    PowerManagedDisk disk(fujitsuMhf2043at());
    disk.request(secondsUs(5.0), 1);
    EXPECT_DEATH(disk.request(secondsUs(1.0), 1), "backwards");
}

TEST(DiskModelDeath, ZeroBlockRequestPanics)
{
    PowerManagedDisk disk(fujitsuMhf2043at());
    EXPECT_DEATH(disk.request(0, 0), "zero blocks");
}

TEST(DiskModelDeath, UseAfterFinishPanics)
{
    PowerManagedDisk disk(fujitsuMhf2043at());
    disk.finish(secondsUs(1.0));
    EXPECT_DEATH(disk.request(secondsUs(2.0), 1), "finish");
}

} // namespace
} // namespace pcap::power
