/**
 * @file
 * Timeline buckets, the quantile sketch, and the span tracer.
 *
 *  - Timeline rescaling: empty/single/boundary events, cascades that
 *    double the width several times, and conservation of every
 *    series across folds.
 *  - LogSketch: quantiles within the configured relative accuracy,
 *    merge equivalent to bulk insertion (the fleet determinism
 *    contract), and a sane median-absolute-deviation.
 *  - TraceRecorder/Span: spans from several threads recorded in one
 *    list, each thread's in its append order under its own tid,
 *    overflow past the total capacity counted as drops, details
 *    kept whole, and the exported Chrome trace JSON well-formed.
 *  - TimelineObserver: an observer-driven cell reconciles residency
 *    with simulated time and energy with the disk's power draws,
 *    across executions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/perf.hpp"
#include "obs/sketch.hpp"
#include "obs/timeline.hpp"
#include "obs/tracing.hpp"
#include "power/disk.hpp"
#include "sim/input.hpp"
#include "sim/kernel.hpp"
#include "sim/observer.hpp"

namespace pcap {
namespace {

std::uint64_t
totalState(const obs::Timeline &timeline, std::size_t state)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < timeline.bucketCount(); ++i)
        total += timeline.bucket(i).stateUs[state];
    return total;
}

std::uint64_t
totalOutcomes(const obs::Timeline &timeline, std::size_t outcome)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < timeline.bucketCount(); ++i)
        total += timeline.bucket(i).outcomes[outcome];
    return total;
}

double
totalEnergy(const obs::Timeline &timeline)
{
    double total = 0.0;
    for (std::size_t i = 0; i < timeline.bucketCount(); ++i)
        for (std::size_t e = 0; e < obs::kTimelineEnergies; ++e)
            total += timeline.bucket(i).energyJ[e];
    return total;
}

TEST(TimelineRescale, EmptyTimelineCoversNothing)
{
    obs::Timeline timeline(4, 10);
    EXPECT_EQ(timeline.spanUs(), 0);
    EXPECT_EQ(timeline.usedBuckets(), 0u);
    EXPECT_EQ(timeline.rescales(), 0u);
    EXPECT_EQ(timeline.bucketWidthUs(), 10);
}

TEST(TimelineRescale, SinglePointEventLandsInItsBucket)
{
    obs::Timeline timeline(4, 10);
    timeline.countOutcome(2, 25);
    EXPECT_EQ(timeline.rescales(), 0u);
    EXPECT_EQ(timeline.spanUs(), 25);
    EXPECT_EQ(timeline.usedBuckets(), 3u);
    EXPECT_EQ(timeline.bucket(2).outcomes[2], 1u);
}

TEST(TimelineRescale, RangeMayEndOnCapacityButPointRescales)
{
    // A residency range ending exactly at width * buckets fits the
    // half-open coverage; a point event there is one past the end.
    obs::Timeline range(4, 10);
    range.addStateResidency(0, 0, 40);
    EXPECT_EQ(range.rescales(), 0u);
    EXPECT_EQ(range.usedBuckets(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(range.bucket(i).stateUs[0], 10u);

    obs::Timeline point(4, 10);
    point.addStateResidency(0, 0, 40);
    point.countShutdown(40);
    EXPECT_EQ(point.rescales(), 1u);
    EXPECT_EQ(point.bucketWidthUs(), 20);
    // Residency folded pairwise into the lower half.
    EXPECT_EQ(point.bucket(0).stateUs[0], 20u);
    EXPECT_EQ(point.bucket(1).stateUs[0], 20u);
    EXPECT_EQ(point.bucket(2).stateUs[0], 0u);
    EXPECT_EQ(point.bucket(2).shutdowns, 1u);
}

TEST(TimelineRescale, CascadePreservesEveryTotal)
{
    obs::Timeline timeline(4, 1);
    timeline.addStateResidency(1, 0, 4);
    timeline.addEnergy(0, 0, 4, 2.0);
    timeline.countOutcome(0, 1);
    timeline.sampleTable(2, 17);

    // An event at t=63 needs width 16: four doublings from 1.
    timeline.countSpinUp(63);
    EXPECT_EQ(timeline.rescales(), 4u);
    EXPECT_EQ(timeline.bucketWidthUs(), 16);
    EXPECT_EQ(timeline.spanUs(), 63);
    EXPECT_EQ(timeline.usedBuckets(), 4u);

    EXPECT_EQ(totalState(timeline, 1), 4u);
    EXPECT_EQ(totalOutcomes(timeline, 0), 1u);
    EXPECT_DOUBLE_EQ(totalEnergy(timeline), 2.0);
    EXPECT_EQ(timeline.bucket(3).spinUps, 1u);
    // All pre-rescale activity folded into bucket 0; the table
    // sample survived the folds.
    EXPECT_TRUE(timeline.bucket(0).tableSampled);
    EXPECT_EQ(timeline.bucket(0).tableEntries, 17u);
}

TEST(TimelineRescale, RangesSplitLinearlyAcrossBuckets)
{
    obs::Timeline timeline(4, 10);
    timeline.addEnergy(3, 5, 15, 1.0);
    EXPECT_DOUBLE_EQ(timeline.bucket(0).energyJ[3], 0.5);
    EXPECT_DOUBLE_EQ(timeline.bucket(1).energyJ[3], 0.5);

    // Point energy (start == end) lands whole in one bucket.
    timeline.addEnergy(3, 20, 20, 2.5);
    EXPECT_DOUBLE_EQ(timeline.bucket(2).energyJ[3], 2.5);
}

TEST(LogSketch, QuantilesWithinRelativeAccuracy)
{
    obs::LogSketch sketch;
    for (int i = 1; i <= 1000; ++i)
        sketch.add(static_cast<double>(i));
    EXPECT_EQ(sketch.count(), 1000u);
    const double accuracy = sketch.relativeAccuracy();
    for (double q : {0.5, 0.9, 0.99}) {
        const double exact = std::ceil(q * 1000.0);
        EXPECT_NEAR(sketch.quantile(q), exact, accuracy * exact);
    }
}

TEST(LogSketch, HandlesZerosAndNegatives)
{
    obs::LogSketch sketch;
    sketch.add(-5.0);
    sketch.add(0.0);
    sketch.add(5.0);
    EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
    EXPECT_NEAR(sketch.quantile(0.01), -5.0, 0.1);
    EXPECT_NEAR(sketch.quantile(0.99), 5.0, 0.1);
}

TEST(LogSketch, MergeEqualsBulkAddExactly)
{
    // The fleet determinism contract: values split across shards
    // and merged must read back the same quantiles as one sketch
    // fed everything — exactly, not just within accuracy.
    obs::LogSketch bulk, left, right;
    for (int i = 1; i <= 400; ++i) {
        const double v = 0.25 * i;
        bulk.add(v);
        (i % 2 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), bulk.count());
    for (double q : {0.01, 0.25, 0.5, 0.75, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(left.quantile(q), bulk.quantile(q));
}

TEST(LogSketch, MedianAbsDeviationOfSpreadData)
{
    obs::LogSketch sketch;
    for (int i = 1; i <= 9; ++i)
        sketch.add(static_cast<double>(i));
    // Median 5, |dev| = {4,3,2,1,0,1,2,3,4}, MAD = 2.
    EXPECT_NEAR(sketch.medianAbsDeviation(), 2.0, 0.1);

    obs::LogSketch constant;
    for (int i = 0; i < 5; ++i)
        constant.add(3.0);
    EXPECT_NEAR(constant.medianAbsDeviation(), 0.0, 1e-9);
}

/** Write @p recorder's Chrome trace under @p name; return its text. */
std::string
writtenProfile(const obs::TraceRecorder &recorder,
               const std::string &name)
{
    const std::string path = testing::TempDir() + "/" + name;
    recorder.writeChromeTrace(path);
    std::ifstream is(path);
    EXPECT_TRUE(is) << path;
    std::stringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

TEST(TraceRecorder, SpansRecordAndExportWellFormedJson)
{
    obs::TraceRecorder recorder(16);
    obs::setTraceRecorder(&recorder);
    {
        obs::Span outer("phase", "outer-detail");
        obs::Span inner("cell-replay", "global-mozilla");
    }
    { obs::Span plain("inputs"); }
    obs::setTraceRecorder(nullptr);
    EXPECT_EQ(recorder.totalEvents(), 3u);
    EXPECT_EQ(recorder.totalDropped(), 0u);
    EXPECT_EQ(recorder.threadCount(), 1u);

    const std::string text =
        writtenProfile(recorder, "pcap-trace-test.json");
    auto countOf = [&](const std::string &needle) {
        std::size_t count = 0;
        for (std::size_t at = text.find(needle);
             at != std::string::npos;
             at = text.find(needle, at + needle.size()))
            ++count;
        return count;
    };
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    // One complete ("X") event per span — complete events carry
    // their own duration, so no begin/end imbalance is possible —
    // plus one thread_name metadata record for the one thread.
    EXPECT_EQ(countOf("\"ph\": \"X\""), 3u);
    EXPECT_EQ(countOf("\"ph\": \"M\""), 1u);
    EXPECT_EQ(countOf("\"ts\": "), 3u);
    EXPECT_EQ(countOf("\"dur\": "), 3u);
    EXPECT_EQ(countOf("\"pid\": 1"), 4u);
    EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(text.find("global-mozilla"), std::string::npos);
    // Braces and brackets balance — the file parses as JSON.
    EXPECT_EQ(countOf("{"), countOf("}"));
    EXPECT_EQ(countOf("["), countOf("]"));
}

TEST(TraceRecorder, SpansCarryPerfArgsWhenProfilerInstalled)
{
    // Force the software backend so the test needs no PMU access.
    // The recorder goes in first: install order does not matter.
    setenv("PCAP_PERF_BACKEND", "software", 1);
    obs::TraceRecorder recorder(16);
    obs::setTraceRecorder(&recorder);
    obs::PerfProfiler profiler;
    obs::setPerfProfiler(&profiler);
    { obs::Span span("profiled", "with-counters"); }
    obs::setTraceRecorder(nullptr);
    obs::setPerfProfiler(nullptr);
    unsetenv("PCAP_PERF_BACKEND");
    EXPECT_EQ(recorder.totalEvents(), 1u);

    const std::string text =
        writtenProfile(recorder, "pcap-trace-perf-test.json");
    EXPECT_NE(text.find("\"cycles\": "), std::string::npos);
    EXPECT_NE(text.find("\"ipc\": "), std::string::npos);
    EXPECT_NE(text.find("\"task_clock_us\": "), std::string::npos);
}

TEST(TraceRecorder, RingOverflowDropsInsteadOfGrowing)
{
    obs::TraceRecorder recorder(4);
    obs::setTraceRecorder(&recorder);
    for (int i = 0; i < 10; ++i)
        obs::Span span("tiny");
    obs::setTraceRecorder(nullptr);
    EXPECT_EQ(recorder.totalEvents(), 4u);
    EXPECT_EQ(recorder.totalDropped(), 6u);
}

TEST(TraceRecorder, KeepsAppendOrderAndDropsPastCapacity)
{
    constexpr std::size_t kCapacity = 1500;
    obs::TraceRecorder recorder(kCapacity);
    obs::setTraceRecorder(&recorder);
    for (int i = 0; i < 1600; ++i)
        obs::Span span("seq", "span-" + std::to_string(i));
    obs::setTraceRecorder(nullptr);
    EXPECT_EQ(recorder.totalEvents(), kCapacity);
    EXPECT_EQ(recorder.totalDropped(), 100u);

    const std::string text =
        writtenProfile(recorder, "pcap-trace-order-test.json");
    // Spans come out in append order.
    std::size_t at = 0;
    for (std::size_t i = 0; i < kCapacity; ++i) {
        const std::string needle =
            "\"span-" + std::to_string(i) + "\"";
        const std::size_t found = text.find(needle, at);
        ASSERT_NE(found, std::string::npos) << needle;
        at = found + needle.size();
    }
    EXPECT_EQ(text.find("\"span-1500\""), std::string::npos);
}

TEST(TraceRecorder, LongDetailReachesTheProfileWhole)
{
    // Cell stems such as the ablation_cache sweep's run past 47
    // bytes; the span must carry the stem its artifacts are named by.
    const std::string detail(60, 'd');
    obs::TraceRecorder recorder(4);
    obs::setTraceRecorder(&recorder);
    { obs::Span span("cell-replay", detail); }
    obs::setTraceRecorder(nullptr);

    const std::string text =
        writtenProfile(recorder, "pcap-trace-detail-test.json");
    EXPECT_NE(text.find("\"detail\": \"" + detail + "\""),
              std::string::npos);
}

TEST(TraceRecorder, SeveralThreadsEachKeepTheirAppendOrder)
{
    constexpr int kThreads = 4;
    constexpr int kSpans = 200;
    obs::TraceRecorder recorder;
    obs::setTraceRecorder(&recorder);
    // Joined only after all have started, so no two share an id.
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([t] {
            const std::string prefix = 't' + std::to_string(t) + '-';
            for (int i = 0; i < kSpans; ++i)
                obs::Span span("seq", prefix + std::to_string(i));
        });
    for (std::thread &thread : threads)
        thread.join();
    obs::setTraceRecorder(nullptr);
    EXPECT_EQ(recorder.totalEvents(),
              static_cast<std::uint64_t>(kThreads * kSpans));
    EXPECT_EQ(recorder.totalDropped(), 0u);
    EXPECT_EQ(recorder.threadCount(), static_cast<std::size_t>(kThreads));

    // One event per line: read back each "X" event's tid and detail.
    std::istringstream lines(
        writtenProfile(recorder, "pcap-trace-threads-test.json"));
    std::vector<int> tidOf(kThreads, -1);
    std::vector<int> next(kThreads, 0);
    int threadNames = 0;
    for (std::string line; std::getline(lines, line);) {
        if (line.find("\"thread_name\"") != std::string::npos)
            ++threadNames;
        if (line.find("\"ph\": \"X\"") == std::string::npos)
            continue;
        const std::size_t tidAt = line.find("\"tid\": ");
        const std::size_t detailAt = line.find("\"detail\": \"t");
        ASSERT_NE(tidAt, std::string::npos) << line;
        ASSERT_NE(detailAt, std::string::npos) << line;
        const int tid = std::atoi(line.c_str() + tidAt + 7);
        const char *detail = line.c_str() + detailAt + 12;
        char *dash = nullptr;
        const long t = std::strtol(detail, &dash, 10);
        ASSERT_TRUE(t >= 0 && t < kThreads && *dash == '-') << line;
        // Every span of a thread sits under one tid, in order.
        if (tidOf[t] < 0)
            tidOf[t] = tid;
        EXPECT_EQ(tid, tidOf[t]) << line;
        EXPECT_EQ(std::atoi(dash + 1), next[t]) << line;
        ++next[t];
    }
    EXPECT_EQ(threadNames, kThreads);
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(next[t], kSpans) << "thread " << t;
        for (int u = 0; u < t; ++u)
            EXPECT_NE(tidOf[t], tidOf[u]);
    }
}

TEST(Span, IsANoOpWithoutARecorder)
{
    ASSERT_FALSE(obs::traceEnabled());
    obs::Span span("orphan", "never-recorded");
}

TEST(TimelineObserver, ReconcilesResidencyAndEnergy)
{
    using power::DiskState;
    const power::DiskParams disk; // paper defaults
    sim::TimelineObserver observer(disk, /*trackDisk=*/true,
                                   /*buckets=*/256);

    sim::ExecutionInput input;
    input.endTime = 10 * kUsPerSec;
    observer.onExecutionBegin(input);
    observer.onDiskStateChange(1 * kUsPerSec, DiskState::Idle,
                               DiskState::Active);
    observer.onDiskStateChange(3 * kUsPerSec, DiskState::Active,
                               DiskState::Idle);
    observer.onShutdownIssued(4 * kUsPerSec);
    observer.onDiskStateChange(4 * kUsPerSec, DiskState::Idle,
                               DiskState::Standby);
    sim::IdlePeriodRecord record;
    record.start = 3 * kUsPerSec;
    record.end = 6 * kUsPerSec;
    record.outcome = sim::IdleOutcome::HitPrimary;
    observer.onIdlePeriod(record);
    observer.onSpinUpServed(6 * kUsPerSec, 0);
    observer.onDiskStateChange(6 * kUsPerSec, DiskState::Standby,
                               DiskState::Active);
    observer.onExecutionEnd(input, sim::RunResult{});

    const obs::Timeline &timeline = observer.timeline();
    EXPECT_EQ(timeline.spanUs(), 10 * kUsPerSec);
    // Residency is a partition of simulated time.
    EXPECT_EQ(totalState(timeline, 0), 6 * kUsPerSec); // active
    EXPECT_EQ(totalState(timeline, 1), 2 * kUsPerSec); // idle
    EXPECT_EQ(totalState(timeline, 2), 0u);            // low-power
    EXPECT_EQ(totalState(timeline, 3), 2 * kUsPerSec); // standby
    EXPECT_EQ(totalOutcomes(
                  timeline,
                  static_cast<std::size_t>(
                      sim::IdleOutcome::HitPrimary)),
              1u);
    std::uint64_t shutdowns = 0, spinUps = 0;
    for (std::size_t i = 0; i < timeline.bucketCount(); ++i) {
        shutdowns += timeline.bucket(i).shutdowns;
        spinUps += timeline.bucket(i).spinUps;
    }
    EXPECT_EQ(shutdowns, 1u);
    EXPECT_EQ(spinUps, 1u);

    // Energy: state draw integrated over residency, plus one
    // spin-down and one spin-up transition.
    const double expected = disk.busyPowerW * 6.0 +
                            disk.idlePowerW * 2.0 +
                            disk.standbyPowerW * 2.0 +
                            disk.shutdownEnergyJ +
                            disk.spinUpEnergyJ;
    EXPECT_NEAR(totalEnergy(timeline), expected, 1e-9);

    // A second execution appends after the first (offset, not
    // overlap): 5 more idle seconds extend the span.
    sim::ExecutionInput second;
    second.endTime = 5 * kUsPerSec;
    observer.onExecutionBegin(second);
    observer.onExecutionEnd(second, sim::RunResult{});
    EXPECT_EQ(timeline.spanUs(), 15 * kUsPerSec);
    EXPECT_EQ(totalState(timeline, 1), 7 * kUsPerSec);
}

TEST(TimelineObserver, WithoutDiskTrackingKeepsOnlyOutcomes)
{
    const power::DiskParams disk;
    sim::TimelineObserver observer(disk, /*trackDisk=*/false);

    sim::ExecutionInput input;
    input.endTime = 2 * kUsPerSec;
    observer.onExecutionBegin(input);
    sim::IdlePeriodRecord record;
    record.end = kUsPerSec;
    record.outcome = sim::IdleOutcome::Short;
    observer.onIdlePeriod(record);
    observer.onExecutionEnd(input, sim::RunResult{});

    const obs::Timeline &timeline = observer.timeline();
    EXPECT_EQ(totalOutcomes(timeline, 0), 1u);
    for (std::size_t s = 0; s < obs::kTimelineStates; ++s)
        EXPECT_EQ(totalState(timeline, s), 0u);
    EXPECT_DOUBLE_EQ(totalEnergy(timeline), 0.0);
}

TEST(TimelineWriters, JsonRoundTripsTheSchema)
{
    obs::Timeline timeline(4, 10);
    timeline.addStateResidency(0, 0, 15);
    timeline.countShutdown(12);
    timeline.sampleTable(5, 3);

    obs::TimelineMeta meta;
    meta.cell = "test-cell";
    meta.mode = "global";
    meta.app = "mozilla";
    meta.policy = "PCAP";
    meta.stateNames = {"active", "idle", "low_power", "standby"};
    meta.outcomeNames = {"short",       "not_predicted",
                         "hit_primary", "hit_backup",
                         "miss_primary", "miss_backup"};
    meta.energyNames = {"active", "idle", "low_power", "standby",
                        "transition"};

    const std::string stem =
        testing::TempDir() + "/pcap-timeline-test";
    obs::writeTimelineJson(timeline, meta, stem + ".json");

    std::ifstream json(stem + ".json");
    ASSERT_TRUE(json);
    std::stringstream buffer;
    buffer << json.rdbuf();
    const std::string text = buffer.str();
    EXPECT_NE(text.find("\"pcap-timeline-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"test-cell\""), std::string::npos);
    EXPECT_NE(text.find("\"active\""), std::string::npos);
    EXPECT_NE(text.find("\"table_entries\""), std::string::npos);
}

} // namespace
} // namespace pcap
