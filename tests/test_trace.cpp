/**
 * @file
 * Unit tests for the trace substrate: event schema, trace container,
 * structural validation and the lifecycle-enforcing builder.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "trace/builder.hpp"
#include "trace/event.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace pcap::trace {
namespace {

TraceEvent
makeIo(TimeUs time, Pid pid, EventType type = EventType::Read,
       Address pc = 0x1000)
{
    TraceEvent event;
    event.time = time;
    event.pid = pid;
    event.type = type;
    event.pc = pc;
    return event;
}

TEST(EventType, NamesRoundTrip)
{
    for (EventType type :
         {EventType::Read, EventType::Write, EventType::Open,
          EventType::Close, EventType::Fork, EventType::Exit}) {
        EventType parsed;
        ASSERT_TRUE(parseEventType(eventTypeName(type), parsed));
        EXPECT_EQ(parsed, type);
    }
}

TEST(EventType, ParseRejectsUnknownNames)
{
    EventType parsed;
    EXPECT_FALSE(parseEventType("mmap", parsed));
    EXPECT_FALSE(parseEventType("", parsed));
    EXPECT_FALSE(parseEventType("READ", parsed));
}

TEST(EventType, IoClassification)
{
    EXPECT_TRUE(isIoEvent(EventType::Read));
    EXPECT_TRUE(isIoEvent(EventType::Write));
    EXPECT_TRUE(isIoEvent(EventType::Open));
    EXPECT_FALSE(isIoEvent(EventType::Close));
    EXPECT_FALSE(isIoEvent(EventType::Fork));
    EXPECT_FALSE(isIoEvent(EventType::Exit));
}

TEST(TraceEvent, OrdersByTimeThenPid)
{
    const TraceEvent a = makeIo(10, 2);
    const TraceEvent b = makeIo(20, 1);
    const TraceEvent c = makeIo(10, 1);
    EXPECT_LT(a, b);
    EXPECT_LT(c, a);
}

TEST(Trace, SortByTimeIsStable)
{
    Trace trace("app", 0);
    trace.append(makeIo(30, 1));
    trace.append(makeIo(10, 1));
    trace.append(makeIo(20, 1));
    trace.sortByTime();
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.events()[0].time, 10);
    EXPECT_EQ(trace.events()[2].time, 30);
}

TEST(Trace, SortByTimeMatchesStableSortOnTiedRuns)
{
    // Traces of 1-8 ascending runs whose events tie on (time, pid,
    // type) and differ only in pc and offset, so any reordering of
    // equal events shows.
    Rng rng(17);
    for (int round = 0; round < 200; ++round) {
        Trace trace("app", round);
        std::uint64_t payload = 0;
        const std::int64_t runs = rng.uniformInt(1, 8);
        for (std::int64_t r = 0; r < runs; ++r) {
            std::vector<TraceEvent> run;
            const std::int64_t length = rng.uniformInt(0, 40);
            for (std::int64_t i = 0; i < length; ++i) {
                TraceEvent event = makeIo(
                    rng.uniformInt(0, 6),
                    static_cast<Pid>(rng.uniformInt(1, 2)),
                    rng.uniformInt(0, 1) ? EventType::Read
                                         : EventType::Write);
                run.push_back(event);
            }
            std::sort(run.begin(), run.end());
            for (TraceEvent &event : run) {
                event.pc = 0x1000 + payload;
                event.offset = payload++;
                trace.append(event);
            }
        }
        std::vector<TraceEvent> expected = trace.events();
        std::stable_sort(expected.begin(), expected.end());

        trace.sortByTime();
        ASSERT_EQ(trace.events().size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i)
            ASSERT_EQ(trace.events()[i], expected[i])
                << "round " << round << ", event " << i;
    }
}

TEST(Trace, IoCountIgnoresLifecycleAndClose)
{
    Trace trace("app", 0);
    trace.append(makeIo(1, 1, EventType::Open));
    trace.append(makeIo(2, 1, EventType::Read));
    trace.append(makeIo(3, 1, EventType::Write));
    trace.append(makeIo(4, 1, EventType::Close));
    trace.append(makeIo(5, 1, EventType::Exit));
    EXPECT_EQ(trace.ioCount(), 3u);
}

TEST(Trace, PidsIncludeForkedChildren)
{
    Trace trace("app", 0);
    trace.append(makeIo(1, 7));
    TraceEvent fork = makeIo(2, 7, EventType::Fork);
    fork.fd = 9;
    trace.append(fork);
    const auto pids = trace.pids();
    EXPECT_EQ(pids.size(), 2u);
    EXPECT_EQ(pids[0], 7);
    EXPECT_EQ(pids[1], 9);
}

TEST(Trace, EventsOfFiltersByPid)
{
    Trace trace("app", 0);
    trace.append(makeIo(1, 1));
    trace.append(makeIo(2, 2));
    trace.append(makeIo(3, 1));
    EXPECT_EQ(trace.eventsOf(1).size(), 2u);
    EXPECT_EQ(trace.eventsOf(2).size(), 1u);
    EXPECT_TRUE(trace.eventsOf(3).empty());
}

TEST(Trace, StartAndEndTimes)
{
    Trace trace("app", 0);
    EXPECT_EQ(trace.startTime(), 0);
    EXPECT_EQ(trace.endTime(), 0);
    trace.append(makeIo(5, 1));
    trace.append(makeIo(42, 1));
    EXPECT_EQ(trace.startTime(), 5);
    EXPECT_EQ(trace.endTime(), 42);
}

TEST(TraceValidate, AcceptsWellFormedTrace)
{
    TraceBuilder builder("app", 0, 1);
    builder.io(10, 1, EventType::Read, 0x1000, 3, 5, 0, 4096);
    builder.fork(20, 1, 2);
    builder.io(30, 2, EventType::Write, 0x2000, 4, 6, 0, 4096);
    builder.exit(40, 2);
    const Trace trace = builder.finish(50);
    EXPECT_EQ(trace.validate(), "");
}

TEST(TraceValidate, RejectsOutOfOrderEvents)
{
    Trace trace("app", 0);
    trace.append(makeIo(20, 1));
    trace.append(makeIo(10, 1));
    trace.append(makeIo(30, 1, EventType::Exit));
    EXPECT_NE(trace.validate().find("out of order"),
              std::string::npos);
}

TEST(TraceValidate, RejectsActionsFromUnknownPid)
{
    Trace trace("app", 0);
    trace.append(makeIo(10, 1));
    trace.append(makeIo(20, 2)); // pid 2 was never forked
    EXPECT_NE(trace.validate().find("before being forked"),
              std::string::npos);
}

TEST(TraceValidate, RejectsActionsAfterExit)
{
    Trace trace("app", 0);
    trace.append(makeIo(10, 1));
    trace.append(makeIo(20, 1, EventType::Exit));
    trace.append(makeIo(30, 1));
    EXPECT_NE(trace.validate().find("after exit"),
              std::string::npos);
}

TEST(TraceValidate, RejectsDoubleFork)
{
    Trace trace("app", 0);
    trace.append(makeIo(10, 1));
    TraceEvent fork = makeIo(20, 1, EventType::Fork);
    fork.fd = 1; // forking an existing pid
    trace.append(fork);
    EXPECT_NE(trace.validate().find("existing pid"),
              std::string::npos);
}

TEST(TraceValidate, RejectsProcessesThatNeverExit)
{
    Trace trace("app", 0);
    trace.append(makeIo(10, 1));
    EXPECT_NE(trace.validate().find("never exit"),
              std::string::npos);
}

TEST(TraceBuilder, FinishExitsAllLiveProcesses)
{
    TraceBuilder builder("app", 3, 1);
    builder.io(10, 1, EventType::Read, 0x1000, 3, 5, 0, 4096);
    builder.fork(20, 1, 2);
    EXPECT_TRUE(builder.isLive(2));
    const Trace trace = builder.finish(100);
    EXPECT_EQ(trace.validate(), "");
    EXPECT_EQ(trace.app(), "app");
    EXPECT_EQ(trace.execution(), 3);
    // Two exits must have been appended.
    std::size_t exits = 0;
    for (const auto &event : trace.events())
        exits += event.type == EventType::Exit;
    EXPECT_EQ(exits, 2u);
}

TEST(TraceBuilder, TracksLiveness)
{
    TraceBuilder builder("app", 0, 1);
    EXPECT_TRUE(builder.isLive(1));
    EXPECT_FALSE(builder.isLive(2));
    builder.fork(10, 1, 2);
    EXPECT_TRUE(builder.isLive(2));
    builder.exit(20, 2);
    EXPECT_FALSE(builder.isLive(2));
    EXPECT_EQ(builder.livePids().size(), 1u);
    (void)builder.finish(30);
}

TEST(TraceBuilderDeath, IoFromDeadPidPanics)
{
    TraceBuilder builder("app", 0, 1);
    builder.exit(10, 1);
    EXPECT_DEATH(builder.io(20, 1, EventType::Read, 0x1000, 3, 5, 0,
                            4096),
                 "non-live pid");
}

TEST(TraceBuilderDeath, ForkOfUsedPidPanics)
{
    TraceBuilder builder("app", 0, 1);
    EXPECT_DEATH(builder.fork(10, 1, 1), "already used");
}

TEST(TraceBuilderDeath, LifecycleViaIoPanics)
{
    TraceBuilder builder("app", 0, 1);
    EXPECT_DEATH(builder.io(10, 1, EventType::Fork, 0, 2, 0, 0, 0),
                 "lifecycle");
}

} // namespace
} // namespace pcap::trace
