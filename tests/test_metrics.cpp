/**
 * @file
 * Observability tests: registry thread-safety, histogram bucket
 * semantics, scope isolation, exporter output, manifest writing and
 * MetricsObserver parity with the uninstrumented kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "power/energy.hpp"
#include "sim/drivers.hpp"
#include "sim/input.hpp"
#include "sim/kernel.hpp"
#include "sim/observer.hpp"
#include "util/thread_pool.hpp"

namespace pcap {
namespace {

using obs::Labels;
using obs::MetricsRegistry;
using obs::ScopedMetrics;

// ---------------------------------------------------------------
// Registry semantics and thread safety
// ---------------------------------------------------------------

TEST(MetricsRegistry, CreateOrGetReturnsSameObject)
{
    MetricsRegistry registry;
    obs::Counter &a = registry.counter("events", {{"app", "x"}});
    obs::Counter &b = registry.counter("events", {{"app", "x"}});
    EXPECT_EQ(&a, &b);

    // A different label set is a different series.
    obs::Counter &c = registry.counter("events", {{"app", "y"}});
    EXPECT_NE(&a, &c);
    EXPECT_EQ(registry.seriesCount(), 2u);
}

TEST(MetricsRegistry, LabelOrderDoesNotSplitSeries)
{
    MetricsRegistry registry;
    obs::Counter &a =
        registry.counter("m", {{"a", "1"}, {"b", "2"}});
    obs::Counter &b =
        registry.counter("m", {{"b", "2"}, {"a", "1"}});
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(registry.seriesCount(), 1u);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreExact)
{
    MetricsRegistry registry;
    obs::Counter &counter = registry.counter("hammer_total");
    obs::Gauge &gauge = registry.gauge("hammer_gauge");
    obs::Histogram &histogram =
        registry.histogram("hammer_hist", {10.0, 100.0});

    const std::size_t tasks = 64;
    const std::uint64_t perTask = 2000;
    ThreadPool pool(8);
    pool.parallelFor(tasks, [&](std::size_t) {
        for (std::uint64_t i = 0; i < perTask; ++i) {
            counter.inc();
            gauge.add(1.0);
            histogram.observe(5.0);
        }
    });

    EXPECT_EQ(counter.value(), tasks * perTask);
    EXPECT_DOUBLE_EQ(gauge.value(),
                     static_cast<double>(tasks * perTask));
    EXPECT_EQ(histogram.count(), tasks * perTask);
    EXPECT_EQ(histogram.bucketValue(0), tasks * perTask);
}

TEST(MetricsRegistry, ConcurrentCreateOrGetIsSafe)
{
    // Every thread resolves the same 16 series while others create
    // them; totals must still be exact.
    MetricsRegistry registry;
    const std::size_t tasks = 64;
    ThreadPool pool(8);
    pool.parallelFor(tasks, [&](std::size_t task) {
        for (int i = 0; i < 16; ++i) {
            registry
                .counter("series_total",
                         {{"i", std::to_string(i)}})
                .inc();
        }
        (void)task;
    });
    EXPECT_EQ(registry.seriesCount(), 16u);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(registry
                      .counter("series_total",
                               {{"i", std::to_string(i)}})
                      .value(),
                  tasks);
    }
}

// ---------------------------------------------------------------
// Histogram bucket edges
// ---------------------------------------------------------------

TEST(Histogram, LeSemanticsOnBucketEdges)
{
    obs::Histogram histogram({1.0, 10.0, 100.0});
    ASSERT_EQ(histogram.bucketCount(), 4u); // 3 bounds + overflow

    histogram.observe(1.0);   // == upper -> first bucket (le)
    histogram.observe(1.5);   // second bucket
    histogram.observe(10.0);  // == upper -> second bucket
    histogram.observe(100.5); // overflow
    histogram.observe(0.0);   // first bucket

    EXPECT_EQ(histogram.bucketValue(0), 2u);
    EXPECT_EQ(histogram.bucketValue(1), 2u);
    EXPECT_EQ(histogram.bucketValue(2), 0u);
    EXPECT_EQ(histogram.bucketValue(3), 1u);
    EXPECT_EQ(histogram.count(), 5u);
    EXPECT_DOUBLE_EQ(histogram.sum(), 113.0);
    EXPECT_DOUBLE_EQ(histogram.upper(0), 1.0);
    EXPECT_TRUE(std::isinf(histogram.upper(3)));
}

// ---------------------------------------------------------------
// Scoping
// ---------------------------------------------------------------

TEST(ScopedMetrics, ScopesWithDifferentLabelsAreIsolated)
{
    MetricsRegistry registry;
    ScopedMetrics cellA(&registry, {{"app", "a"}});
    ScopedMetrics cellB(&registry, {{"app", "b"}});

    cellA.counter("idle_total").inc(3);
    cellB.counter("idle_total").inc(5);

    EXPECT_EQ(cellA.counter("idle_total").value(), 3u);
    EXPECT_EQ(cellB.counter("idle_total").value(), 5u);
    EXPECT_EQ(registry.seriesCount(), 2u);
}

TEST(ScopedMetrics, WithExtendsTheLabelSet)
{
    MetricsRegistry registry;
    ScopedMetrics base(&registry, {{"config", "c1"}});
    ScopedMetrics child = base.with({{"policy", "pcap"}});

    child.counter("runs_total").inc();
    EXPECT_EQ(registry
                  .counter("runs_total",
                           {{"config", "c1"}, {"policy", "pcap"}})
                  .value(),
              1u);
}

TEST(ScopedMetrics, DisabledScopeRoutesToScratch)
{
    ScopedMetrics disabled;
    EXPECT_FALSE(disabled.enabled());
    // No crash, no registry needed; values still accumulate into
    // the never-exported scratch registry.
    disabled.counter("scratch_total").inc();
    disabled.gauge("scratch_gauge").set(2.0);

    MetricsRegistry registry;
    ScopedMetrics enabled(&registry);
    EXPECT_TRUE(enabled.enabled());
    EXPECT_EQ(registry.seriesCount(), 0u);
}

// ---------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------

/** A small registry covering all four kinds. */
void
fillExportRegistry(MetricsRegistry &registry)
{
    registry.describe("test_events_total", "Events seen.");
    registry.counter("test_events_total", {{"app", "a"}}).inc(3);
    registry.gauge("test_level").set(1.5);
    obs::Histogram &histogram =
        registry.histogram("test_len", {1.0, 2.0});
    histogram.observe(1.0);
    histogram.observe(2.5);
    registry.timer("test_phase_seconds").addSeconds(2.0);
}

TEST(Exporters, PrometheusGolden)
{
    MetricsRegistry registry;
    fillExportRegistry(registry);

    std::ostringstream os;
    obs::writePrometheus(registry, os);

    const std::string expected =
        "# HELP test_events_total Events seen.\n"
        "# TYPE test_events_total counter\n"
        "test_events_total{app=\"a\"} 3\n"
        "# TYPE test_len histogram\n"
        "test_len_bucket{le=\"1\"} 1\n"
        "test_len_bucket{le=\"2\"} 1\n"
        "test_len_bucket{le=\"+Inf\"} 2\n"
        "test_len_sum 3.5\n"
        "test_len_count 2\n"
        "# TYPE test_level gauge\n"
        "test_level 1.5\n"
        "# TYPE test_phase_seconds_total counter\n"
        "test_phase_seconds_total 2\n"
        "test_phase_seconds_laps_total 1\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(Exporters, JsonCarriesSchemaAndAllSeries)
{
    MetricsRegistry registry;
    fillExportRegistry(registry);

    std::ostringstream os;
    obs::metricsToJson(registry).dump(os);
    const std::string json = os.str();

    EXPECT_NE(json.find("\"schema\": \"pcap-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"test_events_total\""), std::string::npos);
    EXPECT_NE(json.find("\"app\": \"a\""), std::string::npos);
    EXPECT_NE(json.find("\"counter\""), std::string::npos);
    EXPECT_NE(json.find("\"gauge\""), std::string::npos);
    EXPECT_NE(json.find("\"histogram\""), std::string::npos);
    EXPECT_NE(json.find("\"timer\""), std::string::npos);
    EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
    EXPECT_NE(json.find("\"laps\": 1"), std::string::npos);
}

TEST(Exporters, SnapshotOrderIsIndependentOfRegistration)
{
    // Register in one order, then in the reverse order; both
    // registries must export byte-identical documents.
    auto fill = [](MetricsRegistry &registry, bool reversed) {
        std::vector<std::string> apps = {"a", "b", "c"};
        if (reversed)
            std::reverse(apps.begin(), apps.end());
        for (const std::string &app : apps)
            registry.counter("events_total", {{"app", app}}).inc();
    };
    MetricsRegistry forward, backward;
    fill(forward, false);
    fill(backward, true);

    std::ostringstream a, b;
    obs::writePrometheus(forward, a);
    obs::writePrometheus(backward, b);
    EXPECT_EQ(a.str(), b.str());
}

// ---------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------

TEST(Manifest, WriteProducesReadableDocument)
{
    obs::RunManifest manifest;
    manifest.createdAtUtc = "2026-01-01T00:00:00Z";
    manifest.gitDescribe = "v0-test";
    manifest.command = "bench_all --json out.json";
    manifest.seed = 42;
    manifest.jobs = 4;
    manifest.maxExecutions = 5;
    manifest.inputKeys.emplace_back("mozilla", "deadbeef.trace");
    manifest.phaseMs.emplace_back("inputs", 12.5);
    manifest.reports.push_back("table1");
    manifest.resultsPath = "out.json";

    const std::string path =
        ::testing::TempDir() + "manifest_test.json";
    ASSERT_EQ(obs::writeManifest(manifest, path), "");

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string json = buffer.str();
    std::remove(path.c_str());

    EXPECT_NE(json.find("\"pcap-run-manifest-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"2026-01-01T00:00:00Z\""),
              std::string::npos);
    EXPECT_NE(json.find("\"v0-test\""), std::string::npos);
    EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"mozilla\""), std::string::npos);
    EXPECT_NE(json.find("\"deadbeef.trace\""), std::string::npos);
    EXPECT_NE(json.find("\"table1\""), std::string::npos);
}

TEST(Manifest, WriteToUnwritablePathReportsError)
{
    obs::RunManifest manifest;
    EXPECT_NE(obs::writeManifest(manifest,
                                 "/nonexistent-dir/manifest.json"),
              "");
}

TEST(Manifest, TimestampLooksIso8601)
{
    const std::string ts = obs::isoTimestampUtc();
    ASSERT_EQ(ts.size(), 20u) << ts;
    EXPECT_EQ(ts[4], '-');
    EXPECT_EQ(ts[10], 'T');
    EXPECT_EQ(ts[19], 'Z');
}

// ---------------------------------------------------------------
// MetricsObserver parity with the uninstrumented kernel
// ---------------------------------------------------------------

constexpr Pid kPidA = 100;

sim::ExecutionInput
scriptedInput(std::vector<trace::DiskAccess> accesses, TimeUs end)
{
    sim::ExecutionInput input;
    input.app = "scripted";
    input.accesses = std::move(accesses);
    input.processes.push_back({kPidA, 0, end});
    input.processes.push_back({kFlushDaemonPid, 0, end});
    input.endTime = end;
    return input;
}

trace::DiskAccess
access(TimeUs time)
{
    trace::DiskAccess a;
    a.time = time;
    a.pid = kPidA;
    a.pc = 0x1000;
    a.fd = 3;
    a.blocks = 1;
    return a;
}

std::uint64_t
outcomeCount(const ScopedMetrics &scope, const char *outcome)
{
    return scope
        .counter("pcap_sim_idle_periods_total",
                 {{"outcome", outcome}})
        .value();
}

TEST(MetricsObserver, ObservationDoesNotChangeResults)
{
    auto makeInput = [] {
        return scriptedInput({access(0), access(secondsUs(30)),
                              access(secondsUs(60))},
                             secondsUs(90));
    };
    sim::SimParams params;

    sim::PolicySession plainSession(
        sim::PolicyConfig::timeoutPolicy());
    sim::GlobalDriver plainDriver(plainSession);
    sim::SimulationKernel plain(params);
    const sim::RunResult expected =
        plain.run({makeInput()}, plainDriver);

    MetricsRegistry registry;
    ScopedMetrics scope(&registry, {{"app", "scripted"}});
    sim::MetricsObserver observer(scope, params.breakeven());
    sim::PolicySession session(sim::PolicyConfig::timeoutPolicy());
    sim::GlobalDriver driver(session);
    sim::SimulationKernel kernel(params, observer);
    const sim::RunResult observed =
        kernel.run({makeInput()}, driver);

    EXPECT_EQ(observed.accuracy.opportunities,
              expected.accuracy.opportunities);
    EXPECT_EQ(observed.accuracy.hits(), expected.accuracy.hits());
    EXPECT_EQ(observed.accuracy.misses(),
              expected.accuracy.misses());
    EXPECT_EQ(observed.shutdowns, expected.shutdowns);
    EXPECT_EQ(observed.spinUps, expected.spinUps);
    EXPECT_EQ(observed.ignoredShutdowns, expected.ignoredShutdowns);
    EXPECT_EQ(observed.totalSpinUpDelay, expected.totalSpinUpDelay);
    EXPECT_DOUBLE_EQ(observed.energy.total(),
                     expected.energy.total());
}

TEST(MetricsObserver, CountersMatchKernelResults)
{
    sim::SimParams params;
    MetricsRegistry registry;
    ScopedMetrics scope(&registry, {{"app", "scripted"}});
    sim::MetricsObserver observer(scope, params.breakeven());

    sim::PolicySession session(sim::PolicyConfig::timeoutPolicy());
    sim::GlobalDriver driver(session);
    sim::SimulationKernel kernel(params, observer);
    const sim::ExecutionInput input = scriptedInput(
        {access(0), access(secondsUs(30)), access(secondsUs(60))},
        secondsUs(90));
    const sim::RunResult result = kernel.run({input}, driver);

    EXPECT_EQ(scope.counter("pcap_sim_executions_total").value(),
              1u);
    EXPECT_EQ(scope.counter("pcap_disk_spin_ups_total").value(),
              result.spinUps);
    EXPECT_EQ(scope
                  .counter("pcap_sim_shutdown_orders_total",
                           {{"status", "issued"}})
                  .value(),
              result.shutdowns);
    EXPECT_EQ(scope
                  .counter("pcap_sim_shutdown_orders_total",
                           {{"status", "ignored"}})
                  .value(),
              result.ignoredShutdowns);
    EXPECT_EQ(outcomeCount(scope, "hit_primary"),
              result.accuracy.hitPrimary);
    EXPECT_EQ(outcomeCount(scope, "hit_backup"),
              result.accuracy.hitBackup);
    EXPECT_EQ(outcomeCount(scope, "miss_primary"),
              result.accuracy.missPrimary);
    EXPECT_EQ(outcomeCount(scope, "miss_backup"),
              result.accuracy.missBackup);
    EXPECT_EQ(outcomeCount(scope, "not_predicted"),
              result.accuracy.notPredicted);

    // Energy mirrored into gauges, one per category.
    double joules = 0.0;
    for (const char *category :
         {"busy_io", "idle_short", "idle_long", "power_cycle"}) {
        joules += scope
                      .gauge("pcap_energy_joules",
                             {{"category", category}})
                      .value();
    }
    EXPECT_DOUBLE_EQ(joules, result.energy.total());

    // Disk-state residency must partition simulated time exactly.
    std::uint64_t residency = 0;
    for (const char *state :
         {"active", "idle", "low-power", "standby"}) {
        residency += scope
                         .counter("pcap_disk_state_us_total",
                                  {{"state", state}})
                         .value();
    }
    EXPECT_EQ(residency,
              static_cast<std::uint64_t>(input.endTime));
}

} // namespace
} // namespace pcap
