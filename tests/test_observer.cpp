/**
 * @file
 * Observer-layer tests: TeeObserver fan-out semantics (ordering and
 * exception propagation across 3+ children) and exhaustiveness of
 * the per-outcome instrumentation — every IdleOutcome value must be
 * handled by MetricsObserver.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/kernel.hpp"
#include "sim/observer.hpp"

namespace pcap::sim {
namespace {

/** Appends "<id>:<callback>" to a shared log on every callback. */
class LoggingObserver final : public SimObserver
{
  public:
    LoggingObserver(std::string id, std::vector<std::string> &log)
        : id_(std::move(id)), log_(log)
    {
    }

    void onExecutionBegin(const ExecutionInput &input) override
    {
        (void)input;
        log_.push_back(id_ + ":begin");
    }

    void onExecutionEnd(const ExecutionInput &input,
                        const RunResult &result) override
    {
        (void)input;
        (void)result;
        log_.push_back(id_ + ":end");
    }

    void onIdlePeriod(const IdlePeriodRecord &record) override
    {
        (void)record;
        log_.push_back(id_ + ":idle");
    }

    void onShutdownLatched(TimeUs at,
                           pred::DecisionSource source) override
    {
        (void)at;
        (void)source;
        log_.push_back(id_ + ":latched");
    }

    void onShutdownIssued(TimeUs at) override
    {
        (void)at;
        log_.push_back(id_ + ":issued");
    }

  private:
    std::string id_;
    std::vector<std::string> &log_;
};

/** Throws from onIdlePeriod; every other callback logs normally. */
class ThrowingObserver final : public SimObserver
{
  public:
    explicit ThrowingObserver(std::vector<std::string> &log)
        : log_(log)
    {
    }

    void onIdlePeriod(const IdlePeriodRecord &record) override
    {
        (void)record;
        log_.push_back("thrower:idle");
        throw std::runtime_error("child failed");
    }

  private:
    std::vector<std::string> &log_;
};

TEST(TeeObserver, ForwardsToAllChildrenInOrder)
{
    std::vector<std::string> log;
    LoggingObserver a("a", log), b("b", log), c("c", log);
    TeeObserver tee({&a, &b, &c});

    ExecutionInput input;
    input.app = "t";
    RunResult result;
    IdlePeriodRecord record;

    tee.onExecutionBegin(input);
    tee.onShutdownLatched(5, pred::DecisionSource::Primary);
    tee.onShutdownIssued(5);
    tee.onIdlePeriod(record);
    tee.onExecutionEnd(input, result);

    const std::vector<std::string> expected = {
        "a:begin",   "b:begin",   "c:begin",   "a:latched",
        "b:latched", "c:latched", "a:issued",  "b:issued",
        "c:issued",  "a:idle",    "b:idle",    "c:idle",
        "a:end",     "b:end",     "c:end",
    };
    EXPECT_EQ(log, expected);
}

TEST(TeeObserver, ChildExceptionPropagatesAndStopsFanOut)
{
    std::vector<std::string> log;
    LoggingObserver first("first", log), last("last", log);
    ThrowingObserver thrower(log);
    TeeObserver tee({&first, &thrower, &last});

    IdlePeriodRecord record;
    EXPECT_THROW(tee.onIdlePeriod(record), std::runtime_error);
    // The first child ran, the thrower ran, the child after the
    // failing one was never reached.
    const std::vector<std::string> expected = {"first:idle",
                                               "thrower:idle"};
    EXPECT_EQ(log, expected);
}

TEST(TeeObserver, RejectsNullChild)
{
    std::vector<std::string> log;
    LoggingObserver a("a", log);
    EXPECT_DEATH(TeeObserver({&a, nullptr}), "null observer");
}

/** One record per IdleOutcome value, in declaration order. */
std::vector<IdlePeriodRecord>
oneRecordPerOutcome()
{
    std::vector<IdlePeriodRecord> records;
    for (std::size_t i = 0; i < 6; ++i) {
        IdlePeriodRecord record;
        record.pid = kMergedStreamPid;
        record.start = static_cast<TimeUs>(i) * 1000;
        record.end = record.start + 100;
        record.outcome = static_cast<IdleOutcome>(i);
        records.push_back(record);
    }
    return records;
}

TEST(MetricsObserver, HandlesEveryIdleOutcome)
{
    obs::MetricsRegistry registry;
    obs::ScopedMetrics scope(&registry, {{"test", "outcomes"}});
    MetricsObserver observer(scope, secondsUs(5.43),
                             /*trackDisk=*/false);

    ExecutionInput input;
    input.app = "t";
    observer.onExecutionBegin(input);
    for (const IdlePeriodRecord &record : oneRecordPerOutcome())
        observer.onIdlePeriod(record);
    observer.onExecutionEnd(input, RunResult{});

    // Every outcome value must land in its own labelled series with
    // exactly one count — a new enumerator without observer support
    // fails here.
    for (std::size_t i = 0; i < 6; ++i) {
        const char *name =
            idleOutcomeName(static_cast<IdleOutcome>(i));
        const obs::Counter &counter = registry.counter(
            "pcap_sim_idle_periods_total",
            {{"test", "outcomes"}, {"outcome", name}});
        EXPECT_EQ(counter.value(), 1u)
            << "outcome " << name << " not counted";
    }
}

} // namespace
} // namespace pcap::sim
