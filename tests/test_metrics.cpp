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
#include <map>
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
    parallelFor(8, tasks, [&](std::size_t) {
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
    parallelFor(8, tasks, [&](std::size_t task) {
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
// Export-time fold of detail labels
// ---------------------------------------------------------------

/** One series of each kind for apps a and b, plus a series that
 * carries no app label. */
void
fillFoldRegistry(MetricsRegistry &registry)
{
    registry.markDetailLabel("app");
    registry.counter("fold_events_total", {{"app", "a"}, {"mode", "m"}})
        .inc(3);
    registry.counter("fold_events_total", {{"app", "b"}, {"mode", "m"}})
        .inc(4);
    registry.counter("fold_events_total", {{"app", "b"}, {"mode", "n"}})
        .inc(5);
    registry.gauge("fold_joules", {{"app", "a"}}).set(0.25);
    registry.gauge("fold_joules", {{"app", "b"}}).set(0.5);
    const std::vector<double> uppers = {1.0, 2.0};
    obs::Histogram &a =
        registry.histogram("fold_len", uppers, {{"app", "a"}});
    a.observe(1.0);
    a.observe(2.5);
    registry.histogram("fold_len", uppers, {{"app", "b"}})
        .observe(1.5);
    registry.timer("fold_phase_seconds", {{"app", "a"}})
        .addSeconds(1.5);
    obs::PhaseTimer &timer =
        registry.timer("fold_phase_seconds", {{"app", "b"}});
    timer.addSeconds(0.5);
    timer.addSeconds(0.5);
    registry.counter("fold_plain_total", {{"mode", "m"}}).inc(2);
}

TEST(ExportFold, SumsEveryKindOverTheDetailLabel)
{
    MetricsRegistry registry;
    fillFoldRegistry(registry);

    std::ostringstream os;
    obs::writePrometheus(registry, os);
    const std::string expected =
        "# TYPE fold_events_total counter\n"
        "fold_events_total{mode=\"m\"} 7\n"
        "fold_events_total{mode=\"n\"} 5\n"
        "# TYPE fold_joules gauge\n"
        "fold_joules 0.75\n"
        "# TYPE fold_len histogram\n"
        "fold_len_bucket{le=\"1\"} 1\n"
        "fold_len_bucket{le=\"2\"} 2\n"
        "fold_len_bucket{le=\"+Inf\"} 3\n"
        "fold_len_sum 5\n"
        "fold_len_count 3\n"
        "# TYPE fold_phase_seconds_total counter\n"
        "fold_phase_seconds_total 2.5\n"
        "fold_phase_seconds_laps_total 3\n"
        "# TYPE fold_plain_total counter\n"
        "fold_plain_total{mode=\"m\"} 2\n";
    EXPECT_EQ(os.str(), expected);

    const Json json = obs::metricsToJson(registry);
    const Json &series = *json.find("series");
    ASSERT_EQ(series.size(), 6u);
    const Json &histogram = series.at(3);
    EXPECT_EQ(histogram.find("name")->asString(), "fold_len");
    EXPECT_EQ(histogram.find("labels")->size(), 0u);
    EXPECT_EQ(histogram.find("count")->asDouble(), 3.0);
    EXPECT_EQ(histogram.find("sum")->asDouble(), 5.0);
    const Json &buckets = *histogram.find("buckets");
    ASSERT_EQ(buckets.size(), 3u);
    for (std::size_t i = 0; i < buckets.size(); ++i)
        EXPECT_EQ(buckets.at(i).find("count")->asDouble(), 1.0) << i;
    const Json &timer = series.at(4);
    EXPECT_EQ(timer.find("seconds")->asDouble(), 2.5);
    EXPECT_EQ(timer.find("laps")->asDouble(), 3.0);

    // The registry itself still holds every per-app series.
    EXPECT_EQ(registry.seriesCount(), 10u);
}

TEST(ExportFold, SeriesWithoutTheDetailLabelPassThrough)
{
    auto fill = [](MetricsRegistry &registry) {
        registry.describe("plain_total", "Plain events.");
        registry.counter("plain_total", {{"mode", "m"}}).inc(2);
        registry.gauge("plain_level").set(1.25);
        registry.histogram("plain_len", {1.0}).observe(0.5);
        registry.timer("plain_phase").addSeconds(0.125);
    };
    MetricsRegistry folded, plain;
    folded.markDetailLabel("app");
    fill(folded);
    fill(plain);

    std::ostringstream foldedProm, plainProm, foldedJson, plainJson;
    obs::writePrometheus(folded, foldedProm);
    obs::writePrometheus(plain, plainProm);
    obs::metricsToJson(folded).dump(foldedJson);
    obs::metricsToJson(plain).dump(plainJson);
    EXPECT_EQ(foldedProm.str(), plainProm.str());
    EXPECT_EQ(foldedJson.str(), plainJson.str());
}

TEST(ExportFold, ThreadsAndRegistrationOrderDoNotChangeTheExport)
{
    // Gauge parts whose sum rounds differently in different orders;
    // each app's series has one writer, as each cell has.
    const std::vector<std::string> apps = {"a", "b", "c", "d",
                                           "e", "f", "g", "h"};
    auto record = [&](MetricsRegistry &registry, std::size_t app) {
        const Labels labels = {{"app", apps[app]}, {"mode", "m"}};
        for (int i = 0; i < 100; ++i) {
            registry.counter("order_events_total", labels).inc();
            registry.gauge("order_joules", labels)
                .add(0.1 * static_cast<double>(app + 1) + 1e-9 * i);
            registry.histogram("order_len", {1.0, 10.0}, labels)
                .observe(static_cast<double>(i % 12));
            registry.timer("order_phase", labels)
                .addSeconds(0.001 * static_cast<double>(app + 1));
        }
        // Summed in snapshot order (a, b, c, ...) the 1 is lost to
        // rounding and the big parts cancel before the halves are
        // added: 2.5. Reversed, the sum is 3.
        const double parts[] = {1.0, 1e16, -1e16};
        registry.gauge("order_cancel", labels)
            .set(app < 3 ? parts[app] : 0.5);
    };
    auto exported = [](MetricsRegistry &registry) {
        std::ostringstream os;
        obs::metricsToJson(registry).dump(os);
        os << '\n';
        obs::writePrometheus(registry, os);
        return os.str();
    };

    MetricsRegistry serial, reversed, threaded;
    for (MetricsRegistry *registry : {&serial, &reversed, &threaded})
        registry->markDetailLabel("app");
    for (std::size_t app = 0; app < apps.size(); ++app)
        record(serial, app);
    for (std::size_t app = apps.size(); app-- > 0;)
        record(reversed, app);
    parallelFor(4, apps.size(),
                [&](std::size_t app) { record(threaded, app); });

    const std::string expected = exported(serial);
    EXPECT_NE(expected.find("order_cancel{mode=\"m\"} 2.5\n"),
              std::string::npos)
        << expected;
    EXPECT_NE(expected.find("order_joules{mode=\"m\"} 360.0000396\n"),
              std::string::npos)
        << expected;
    EXPECT_EQ(exported(reversed), expected);
    EXPECT_EQ(exported(threaded), expected);
}

TEST(ExportFold, EqualsRecordingEachGroupsSum)
{
    // Folded at export against recording each group's sum directly.
    // Within a group the sum runs in snapshot order: the app-labelled
    // series by app, then the one without app ("app" sorts first).
    MetricsRegistry folded, summed;
    folded.markDetailLabel("app");
    const std::vector<std::string> apps = {"x", "a", "m", ""};
    double v = 0.1;
    for (const char *mode : {"q", "p"}) {
        for (const char *policy : {"TP", "PCAP"}) {
            std::map<std::string, double> joules;
            std::uint64_t events = 0;
            for (const std::string &app : apps) {
                Labels labels = {{"policy", policy}, {"mode", mode}};
                if (!app.empty())
                    labels.emplace_back("app", app);
                v = v * 1.7 + 0.013;
                folded.gauge("prop_joules", labels).set(v);
                joules[app.empty() ? "~" : app] = v;
                folded.counter("prop_events_total", labels)
                    .inc(static_cast<std::uint64_t>(v * 100));
                events += static_cast<std::uint64_t>(v * 100);
            }
            double sum = 0.0;
            for (const auto &[app, value] : joules)
                sum += value;
            const Labels group = {{"mode", mode}, {"policy", policy}};
            summed.gauge("prop_joules", group).set(sum);
            summed.counter("prop_events_total", group).inc(events);
        }
    }

    std::ostringstream a, b;
    obs::writePrometheus(folded, a);
    obs::writePrometheus(summed, b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_EQ(folded.series().size(), folded.seriesCount());
}

TEST(ExportFold, BucketLayoutMismatchPanics)
{
    MetricsRegistry registry;
    registry.markDetailLabel("app");
    registry.histogram("mixed_len", {1.0, 2.0}, {{"app", "a"}});
    registry.histogram("mixed_len", {1.0, 3.0}, {{"app", "b"}});
    EXPECT_DEATH(obs::metricsToJson(registry),
                 "different bucket layouts");
    std::ostringstream os;
    EXPECT_DEATH(obs::writePrometheus(registry, os),
                 "different bucket layouts");
}

TEST(ExportFold, NoDetailLabelKeepsEverySeries)
{
    MetricsRegistry registry;
    registry.counter("kept_total", {{"app", "a"}}).inc(1);
    registry.counter("kept_total", {{"app", "b"}}).inc(2);
    EXPECT_TRUE(registry.detailLabels().empty());

    std::ostringstream os;
    obs::writePrometheus(registry, os);
    EXPECT_EQ(os.str(), "# TYPE kept_total counter\n"
                        "kept_total{app=\"a\"} 1\n"
                        "kept_total{app=\"b\"} 2\n");
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
