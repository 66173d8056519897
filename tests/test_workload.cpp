/**
 * @file
 * Workload-model tests: every application generates structurally
 * valid, deterministic traces whose shape matches the behaviour the
 * paper describes (process counts, idle structure, I/O volumes).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "obs/metrics.hpp"
#include "trace/builder.hpp"
#include "workload/app_model.hpp"
#include "workload/apps.hpp"

namespace pcap::workload {
namespace {

Rng
seedFor(const std::string &app, int execution)
{
    Rng base(1234 ^ hashString(app));
    return base.fork(static_cast<std::uint64_t>(execution));
}

TEST(Registry, KnowsAllSixApplications)
{
    const auto names = standardAppNames();
    ASSERT_EQ(names.size(), 6u);
    for (const std::string &name : names) {
        const auto model = makeApp(name);
        ASSERT_NE(model, nullptr) << name;
        EXPECT_EQ(model->info().name, name);
        EXPECT_GT(model->info().executions, 0);
    }
    EXPECT_EQ(makeApp("unknown-app"), nullptr);
}

TEST(Registry, ExecutionCountsMatchTable1)
{
    EXPECT_EQ(makeApp("mozilla")->info().executions, 49);
    EXPECT_EQ(makeApp("writer")->info().executions, 33);
    EXPECT_EQ(makeApp("impress")->info().executions, 19);
    EXPECT_EQ(makeApp("xemacs")->info().executions, 37);
    EXPECT_EQ(makeApp("nedit")->info().executions, 29);
    EXPECT_EQ(makeApp("mplayer")->info().executions, 31);
}

TEST(Registry, MakeStandardAppsBuildsAll)
{
    const auto apps = makeStandardApps();
    ASSERT_EQ(apps.size(), 6u);
    for (const auto &app : apps)
        EXPECT_NE(app, nullptr);
}

class EveryApp : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryApp, GeneratesStructurallyValidTraces)
{
    const auto model = makeApp(GetParam());
    for (int execution = 0; execution < 3; ++execution) {
        const trace::Trace trace =
            model->generate(execution, seedFor(GetParam(),
                                               execution));
        EXPECT_EQ(trace.validate(), "")
            << GetParam() << " execution " << execution;
        EXPECT_EQ(trace.app(), GetParam());
        EXPECT_EQ(trace.execution(), execution);
        EXPECT_GT(trace.ioCount(), 0u);
    }
}

TEST_P(EveryApp, GenerationIsDeterministic)
{
    const auto model = makeApp(GetParam());
    const trace::Trace a = model->generate(0, seedFor(GetParam(), 0));
    const trace::Trace b = model->generate(0, seedFor(GetParam(), 0));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.events()[i], b.events()[i]);
}

TEST_P(EveryApp, DifferentSeedsGiveDifferentTraces)
{
    const auto model = makeApp(GetParam());
    const trace::Trace a = model->generate(0, Rng(1));
    const trace::Trace b = model->generate(0, Rng(2));
    const bool differs =
        a.size() != b.size() ||
        a.endTime() != b.endTime();
    EXPECT_TRUE(differs) << GetParam();
}

TEST_P(EveryApp, ExecutionsVaryWithinAnApplication)
{
    const auto model = makeApp(GetParam());
    const trace::Trace a = model->generate(0, seedFor(GetParam(), 0));
    const trace::Trace b = model->generate(1, seedFor(GetParam(), 1));
    EXPECT_NE(a.endTime(), b.endTime()) << GetParam();
}

TEST_P(EveryApp, PcsAreStableAcrossExecutions)
{
    // The property PCAP exploits: the set of call sites does not
    // change between executions of the same application.
    const auto model = makeApp(GetParam());
    auto pcs_of = [](const trace::Trace &trace) {
        std::set<Address> pcs;
        for (const auto &event : trace.events()) {
            if (trace::isIoEvent(event.type))
                pcs.insert(event.pc);
        }
        return pcs;
    };
    const auto a =
        pcs_of(model->generate(0, seedFor(GetParam(), 0)));
    const auto b =
        pcs_of(model->generate(5, seedFor(GetParam(), 5)));
    // Every call site of execution 5 already existed in execution 0
    // or vice versa: the union is no bigger than the larger set plus
    // a couple of optional activities.
    std::set<Address> both;
    both.insert(a.begin(), a.end());
    both.insert(b.begin(), b.end());
    EXPECT_LE(both.size(), a.size() + 3);
}

INSTANTIATE_TEST_SUITE_P(AllApps, EveryApp,
                         ::testing::Values("mozilla", "writer",
                                           "impress", "xemacs",
                                           "nedit", "mplayer"),
                         [](const auto &info) { return info.param; });

TEST(NeditShape, SingleProcessSingleIdlePeriod)
{
    // Table 1: nedit is the only single-process application and has
    // exactly one long idle period per execution.
    const auto model = makeApp("nedit");
    for (int execution = 0; execution < 5; ++execution) {
        const trace::Trace trace =
            model->generate(execution, seedFor("nedit", execution));
        EXPECT_EQ(trace.pids().size(), 1u);

        int long_gaps = 0;
        TimeUs prev = -1;
        for (const auto &event : trace.events()) {
            if (!trace::isIoEvent(event.type))
                continue;
            if (prev >= 0 && event.time - prev > secondsUs(5.43))
                ++long_gaps;
            prev = event.time;
        }
        EXPECT_EQ(long_gaps, 1) << "execution " << execution;
    }
}

TEST(MozillaShape, ThreeProcesses)
{
    const auto model = makeApp("mozilla");
    const trace::Trace trace =
        model->generate(0, seedFor("mozilla", 0));
    EXPECT_EQ(trace.pids().size(), 3u);
}

TEST(MplayerShape, TwoProcessesAndEndOfMovieDrain)
{
    const auto model = makeApp("mplayer");
    const trace::Trace trace =
        model->generate(0, seedFor("mplayer", 0));
    EXPECT_EQ(trace.pids().size(), 2u);

    // The drain: a >= 30 s silence right before the final config
    // write and exit.
    TimeUs prev = -1;
    TimeUs largest_tail_gap = 0;
    for (const auto &event : trace.events()) {
        if (!trace::isIoEvent(event.type))
            continue;
        if (prev >= 0)
            largest_tail_gap =
                std::max(largest_tail_gap, event.time - prev);
        prev = event.time;
    }
    EXPECT_GE(largest_tail_gap, secondsUs(30.0));
}

TEST(MplayerShape, StreamingVolumeDominates)
{
    // mplayer is by far the most I/O-heavy application in Table 1.
    const auto mplayer = makeApp("mplayer")->generate(
        0, seedFor("mplayer", 0));
    const auto nedit =
        makeApp("nedit")->generate(0, seedFor("nedit", 0));
    EXPECT_GT(mplayer.ioCount(), 20 * nedit.ioCount());
}

TEST(WriterShape, TwoProcessesWithHelper)
{
    const auto model = makeApp("writer");
    const trace::Trace trace =
        model->generate(0, seedFor("writer", 0));
    EXPECT_EQ(trace.pids().size(), 2u);
}

TEST(XemacsShape, MostlySingleProcess)
{
    // Table 1: xemacs' local idle count barely exceeds its global
    // one — the compile helper appears only in some executions.
    const auto model = makeApp("xemacs");
    int multi = 0;
    for (int execution = 0; execution < 10; ++execution) {
        const trace::Trace trace =
            model->generate(execution, seedFor("xemacs", execution));
        multi += trace.pids().size() > 1;
    }
    EXPECT_GT(multi, 0);
    EXPECT_LT(multi, 8);
}

/** Value of pcap_workload_generated_events_total{type=@p type};
 * -1 when the registry has no such series. */
std::int64_t
generatedEvents(const obs::MetricsRegistry &registry,
                const std::string &type)
{
    for (const auto &series : registry.snapshot()) {
        if (series.name != "pcap_workload_generated_events_total")
            continue;
        for (const auto &[key, value] : series.labels) {
            if (key == "type" && value == type)
                return static_cast<std::int64_t>(
                    series.counter->value());
        }
    }
    return -1;
}

/** Events of @p trace with type @p type. */
std::int64_t
eventsOfType(const trace::Trace &trace, trace::EventType type)
{
    return std::count_if(trace.events().begin(), trace.events().end(),
                         [type](const trace::TraceEvent &event) {
                             return event.type == type;
                         });
}

constexpr trace::EventType kAllTypes[] = {
    trace::EventType::Read,  trace::EventType::Write,
    trace::EventType::Open,  trace::EventType::Close,
    trace::EventType::Fork,  trace::EventType::Exit};

TEST(TraceMetrics, CountsEachTypeAndSkipsAbsentTypes)
{
    trace::TraceBuilder builder("app", 0, 10);
    builder.io(secondsUs(1), 10, trace::EventType::Open, 0x1000, 3, 5,
               0, 0);
    builder.fork(secondsUs(2), 10, 11);
    for (int i = 0; i < 5; ++i) {
        builder.io(secondsUs(3 + i), 10 + i % 2,
                   trace::EventType::Read, 0x2000, 3, 5, 4096u * i,
                   4096);
    }
    builder.io(secondsUs(9), 10, trace::EventType::Close, 0x3000, 3, 5,
               0, 0);
    const trace::Trace trace = builder.finish(secondsUs(20));
    ASSERT_EQ(eventsOfType(trace, trace::EventType::Write), 0);

    obs::MetricsRegistry registry;
    recordTraceMetrics(trace, obs::ScopedMetrics(&registry));
    EXPECT_EQ(generatedEvents(registry, "write"), -1);
    EXPECT_EQ(generatedEvents(registry, "read"), 5);
    EXPECT_EQ(generatedEvents(registry, "open"), 1);
    EXPECT_EQ(generatedEvents(registry, "close"), 1);
    EXPECT_EQ(generatedEvents(registry, "fork"), 1);
    EXPECT_EQ(generatedEvents(registry, "exit"), 2);
    EXPECT_EQ(registry.counter("pcap_workload_generated_traces_total")
                  .value(),
              1u);
}

TEST(TraceMetrics, GeneratedTracesAccumulatePerType)
{
    const auto model = makeApp("mplayer");
    const trace::Trace first = model->generate(0, seedFor("mplayer", 0));
    const trace::Trace second =
        model->generate(1, seedFor("mplayer", 1));

    obs::MetricsRegistry registry;
    const obs::ScopedMetrics scope(&registry);
    recordTraceMetrics(first, scope);
    for (const trace::EventType type : kAllTypes) {
        const std::int64_t n = eventsOfType(first, type);
        EXPECT_EQ(generatedEvents(registry, trace::eventTypeName(type)),
                  n > 0 ? n : -1)
            << trace::eventTypeName(type);
    }
    recordTraceMetrics(second, scope);
    for (const trace::EventType type : kAllTypes) {
        const std::int64_t n =
            eventsOfType(first, type) + eventsOfType(second, type);
        EXPECT_EQ(generatedEvents(registry, trace::eventTypeName(type)),
                  n > 0 ? n : -1)
            << trace::eventTypeName(type);
    }
    EXPECT_EQ(registry.counter("pcap_workload_generated_traces_total")
                  .value(),
              2u);
    EXPECT_EQ(
        registry.counter("pcap_workload_generated_span_us_total")
            .value(),
        static_cast<std::uint64_t>(first.endTime() - first.startTime() +
                                   second.endTime() -
                                   second.startTime()));
}

} // namespace
} // namespace pcap::workload
