/**
 * @file
 * The replay kernel, its policy drivers and the observer layer.
 *
 *  - Reference parity: every report of the byte-compared suite,
 *    rendered through the kernel/driver path, must match
 *    bench/reference/BENCH_RESULTS.ref.json line for line.
 *  - Report cells: rendering a report after prefetching its declared
 *    cells replays nothing new, and the cache-size ablation renders
 *    the same whether the sweep's inputs were released or pinned.
 *  - Observer ordering: a scripted execution with hand-computable
 *    shutdowns must fire the callbacks in replay order.
 *  - Instrumented parity: the null-observer instantiation of the
 *    replay loop must match the instrumented one, whose records
 *    reconcile with its AccuracyStats, for every registered policy
 *    and every driver kind.
 *  - Same-time order: the file-cache filter emits accesses in
 *    (time, pid, emission) order and every driver replays that order.
 *  - Policy registry: the names resolve, unknown names are rejected.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "reports.hpp"
#include "sim/drivers.hpp"
#include "sim/experiment.hpp"
#include "sim/kernel.hpp"
#include "sim/observer.hpp"
#include "trace/builder.hpp"

namespace pcap::sim {
namespace {

// ---------------------------------------------------------------
// Minimal JSON reader — util/json.hpp is write-only, and the test
// only needs reports.<name>.lines (arrays of strings) from the
// reference file.
// ---------------------------------------------------------------

class MiniJsonReader
{
  public:
    explicit MiniJsonReader(std::string text) : text_(std::move(text))
    {
    }

    /** reports.<name>.lines for every report in the file. */
    std::map<std::string, std::vector<std::string>> referenceLines()
    {
        std::map<std::string, std::vector<std::string>> result;
        expect('{');
        while (peek() != '}') {
            const std::string key = parseString();
            expect(':');
            if (key != "reports") {
                skipValue();
            } else {
                expect('{');
                while (peek() != '}') {
                    const std::string name = parseString();
                    expect(':');
                    result[name] = parseReportLines();
                    if (peek() == ',')
                        ++pos_;
                }
                expect('}');
            }
            if (peek() == ',')
                ++pos_;
        }
        return result;
    }

  private:
    std::vector<std::string> parseReportLines()
    {
        std::vector<std::string> lines;
        expect('{');
        while (peek() != '}') {
            const std::string key = parseString();
            expect(':');
            if (key != "lines") {
                skipValue();
            } else {
                expect('[');
                while (peek() != ']') {
                    lines.push_back(parseString());
                    if (peek() == ',')
                        ++pos_;
                }
                expect(']');
            }
            if (peek() == ',')
                ++pos_;
        }
        expect('}');
        return lines;
    }

    char peek()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\r' || text_[pos_] == '\t'))
            ++pos_;
        EXPECT_LT(pos_, text_.size()) << "unexpected end of JSON";
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void expect(char c)
    {
        ASSERT_EQ(peek(), c) << "at offset " << pos_;
        ++pos_;
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            const char esc = text_[pos_++];
            switch (esc) {
              case 'n': out.push_back('\n'); break;
              case 't': out.push_back('\t'); break;
              case 'r': out.push_back('\r'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'u': {
                // Reference lines are ASCII; decode the low byte.
                const std::string hex = text_.substr(pos_, 4);
                pos_ += 4;
                out.push_back(static_cast<char>(
                    std::stoul(hex, nullptr, 16) & 0x7f));
                break;
              }
              default: out.push_back(esc); break;
            }
        }
        expect('"');
        return out;
    }

    void skipValue()
    {
        const char c = peek();
        if (c == '"') {
            parseString();
        } else if (c == '{' || c == '[') {
            const char close = c == '{' ? '}' : ']';
            ++pos_;
            while (peek() != close) {
                if (c == '{') {
                    parseString();
                    expect(':');
                }
                skipValue();
                if (peek() == ',')
                    ++pos_;
            }
            ++pos_;
        } else {
            // Number / true / false / null: scan to a delimiter.
            while (pos_ < text_.size() && text_[pos_] != ',' &&
                   text_[pos_] != '}' && text_[pos_] != ']')
                ++pos_;
        }
    }

    std::string text_;
    std::size_t pos_ = 0;
};

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    return lines;
}

// ---------------------------------------------------------------
// Reference parity: the kernel/driver path must reproduce the
// committed pre-refactor reference byte for byte.
// ---------------------------------------------------------------

TEST(KernelParity, EveryReportMatchesReference)
{
    std::ifstream ref_file(PCAP_REFERENCE_JSON);
    ASSERT_TRUE(ref_file) << "missing " << PCAP_REFERENCE_JSON;
    std::ostringstream buffer;
    buffer << ref_file.rdbuf();
    MiniJsonReader reader(buffer.str());
    const auto reference = reader.referenceLines();
    ASSERT_EQ(reference.size(), 15u);

    ParallelOptions options;
    options.jobs = 2;
    ParallelEvaluation eval(bench::standardConfig(), options);
    bench::ReportContext ctx{.eval = eval};

    for (const bench::Report &report : bench::allReports()) {
        if (report.optIn) {
            EXPECT_EQ(reference.count(report.name), 0u)
                << report.name
                << " is opt-in but present in the reference";
            continue;
        }
        ASSERT_EQ(reference.count(report.name), 1u) << report.name;
        std::ostringstream text;
        report.run(ctx, text);
        EXPECT_EQ(splitLines(text.str()), reference.at(report.name))
            << "report " << report.name
            << " diverged from the reference";
    }
}

// A cell first computed during a render records fresh labelled
// series, so an unchanged series count proves the render read only
// cells its cells() list declared (and bench_all prefetched).
TEST(ReportCells, RenderReplaysNoUndeclaredCell)
{
    for (const bench::Report &report : bench::allReports()) {
        if (report.optIn)
            continue;
        obs::MetricsRegistry registry;
        ParallelOptions options;
        options.jobs = 2;
        options.metrics = &registry;
        ExperimentConfig config = bench::standardConfig();
        config.maxExecutions = 2;
        ParallelEvaluation eval(config, options);
        bench::ReportContext ctx{.eval = eval};

        eval.prefetchInputs();
        eval.prefetch(report.cells());
        const std::size_t declared = registry.seriesCount();
        std::ostringstream text;
        report.run(ctx, text);
        EXPECT_EQ(registry.seriesCount(), declared)
            << "report " << report.name
            << " replayed a cell its cells() list does not declare";
    }
}

// The cache-size ablation reads the access count the first pass over
// each input recorded, so its text does not depend on whether
// prefetch computed the sweep or the render computed each cell on
// demand.
TEST(ReportCells, AblationCacheRendersTheSamePrefetchedOrOnDemand)
{
    const bench::Report *sweep = nullptr;
    for (const bench::Report &report : bench::allReports()) {
        if (report.name == "ablation_cache")
            sweep = &report;
    }
    ASSERT_NE(sweep, nullptr);
    ExperimentConfig config = bench::standardConfig();
    config.maxExecutions = 2;
    for (unsigned jobs : {1u, 4u}) {
        std::string text[2];
        for (bool prefetched : {false, true}) {
            ParallelOptions options;
            options.jobs = jobs;
            ParallelEvaluation eval(config, options);
            bench::ReportContext ctx{.eval = eval};
            if (prefetched) {
                eval.prefetchInputs();
                eval.prefetch(sweep->cells());
            }
            std::ostringstream os;
            sweep->run(ctx, os);
            text[prefetched] = os.str();
        }
        EXPECT_EQ(text[0], text[1]) << "jobs " << jobs;
    }
}

// ---------------------------------------------------------------
// Observer callback ordering on a scripted execution
// ---------------------------------------------------------------

/** Records every callback as a compact event string. */
class RecordingObserver final : public SimObserver
{
  public:
    std::vector<std::string> events;
    std::vector<IdlePeriodRecord> records;

    void onExecutionBegin(const ExecutionInput &) override
    {
        events.push_back("begin");
    }
    void onExecutionEnd(const ExecutionInput &,
                        const RunResult &) override
    {
        events.push_back("end");
    }
    void onIdlePeriod(const IdlePeriodRecord &record) override
    {
        events.push_back(std::string("idle:") +
                         idleOutcomeName(record.outcome));
        records.push_back(record);
    }
    void onShutdownIssued(TimeUs at) override
    {
        events.push_back("shutdown@" + std::to_string(at));
    }
    void onShutdownIgnored(TimeUs at) override
    {
        events.push_back("ignored@" + std::to_string(at));
    }
    void onDiskStateChange(TimeUs, power::DiskState from,
                           power::DiskState to) override
    {
        events.push_back(std::string("state:") +
                         power::diskStateName(from) + "->" +
                         power::diskStateName(to));
    }
    void onSpinUpServed(TimeUs at, TimeUs) override
    {
        events.push_back("spinup@" + std::to_string(at));
    }

    /** Index of the first event equal to @p needle, or npos. */
    std::size_t indexOf(const std::string &needle) const
    {
        const auto it =
            std::find(events.begin(), events.end(), needle);
        return it == events.end()
                   ? std::string::npos
                   : static_cast<std::size_t>(it - events.begin());
    }
};

/** One process, accesses at 1 s / 2 s / 50 s, end at 100 s. */
ExecutionInput
scriptedInput()
{
    ExecutionInput input;
    input.app = "scripted";
    for (double at : {1.0, 2.0, 50.0}) {
        trace::DiskAccess access;
        access.time = secondsUs(at);
        access.pid = 7;
        access.blocks = 1;
        input.accesses.push_back(access);
    }
    input.processes.push_back({7, 0, secondsUs(100.0)});
    input.endTime = secondsUs(100.0);
    return input;
}

TEST(ObserverOrdering, ScriptedGlobalTimeoutRun)
{
    // TP with a 10 s timer: the 1 s gap is short; the 2 s -> 50 s
    // gap spins down at 12 s (hit); the trailing 50 s -> 100 s gap
    // spins down at 60 s (hit); the 50 s access pays one spin-up.
    RecordingObserver observer;
    SimulationKernel kernel(SimParams{}, observer);
    PolicySession session(policyByName("TP"));
    GlobalDriver driver(session);

    const RunResult result =
        kernel.runExecution(scriptedInput(), driver);

    EXPECT_EQ(result.shutdowns, 2u);
    EXPECT_EQ(result.spinUps, 1u);
    EXPECT_EQ(result.ignoredShutdowns, 0u);
    EXPECT_EQ(result.accuracy.opportunities, 2u);
    EXPECT_EQ(result.accuracy.hitPrimary, 2u);
    EXPECT_EQ(result.accuracy.hits(), 2u);
    EXPECT_EQ(result.accuracy.misses(), 0u);
    EXPECT_EQ(result.accuracy.notPredicted, 0u);

    // One record per idle period, in replay order.
    ASSERT_EQ(observer.records.size(), 3u);
    EXPECT_EQ(observer.records[0].outcome, IdleOutcome::Short);
    EXPECT_EQ(observer.records[0].start, secondsUs(1.0));
    EXPECT_EQ(observer.records[0].end, secondsUs(2.0));
    EXPECT_EQ(observer.records[0].shutdownAt, -1);
    EXPECT_EQ(observer.records[1].outcome, IdleOutcome::HitPrimary);
    EXPECT_EQ(observer.records[1].shutdownAt, secondsUs(12.0));
    EXPECT_EQ(observer.records[1].source,
              pred::DecisionSource::Primary);
    EXPECT_EQ(observer.records[2].outcome, IdleOutcome::HitPrimary);
    EXPECT_EQ(observer.records[2].shutdownAt, secondsUs(60.0));
    for (const IdlePeriodRecord &record : observer.records)
        EXPECT_EQ(record.pid, kMergedStreamPid);

    // Callback ordering: begin first, end last; the hit gap is
    // classified before its shutdown is issued, and the spin-up at
    // 50 s happens after that shutdown.
    ASSERT_FALSE(observer.events.empty());
    EXPECT_EQ(observer.events.front(), "begin");
    EXPECT_EQ(observer.events.back(), "end");
    const std::size_t hit = observer.indexOf("idle:hit_primary");
    const std::size_t down = observer.indexOf(
        "shutdown@" + std::to_string(secondsUs(12.0)));
    const std::size_t up = observer.indexOf(
        "spinup@" + std::to_string(secondsUs(50.0)));
    ASSERT_NE(hit, std::string::npos);
    ASSERT_NE(down, std::string::npos);
    ASSERT_NE(up, std::string::npos);
    EXPECT_LT(hit, down);
    EXPECT_LT(down, up);

    // The disk reported both spin-downs and the spin-up recovery.
    const auto count = [&](const std::string &event) {
        return std::count(observer.events.begin(),
                          observer.events.end(), event);
    };
    EXPECT_EQ(count("state:idle->standby"), 2);
    EXPECT_EQ(count("state:standby->active"), 1);
    EXPECT_EQ(count("ignored@" + std::to_string(secondsUs(12.0))),
              0);
}

TEST(ObserverOrdering, NullObserverRunsMatchObservedRuns)
{
    // Observers are passive: attaching one must not change results.
    const ExecutionInput input = scriptedInput();
    PolicySession session_a(policyByName("PCAP"));
    PolicySession session_b(policyByName("PCAP"));
    GlobalDriver driver_a(session_a);
    GlobalDriver driver_b(session_b);
    RecordingObserver observer;
    SimulationKernel plain{SimParams{}};
    SimulationKernel observed(SimParams{}, observer);

    const RunResult a = plain.runExecution(input, driver_a);
    const RunResult b = observed.runExecution(input, driver_b);
    EXPECT_EQ(a.accuracy.opportunities, b.accuracy.opportunities);
    EXPECT_EQ(a.accuracy.hits(), b.accuracy.hits());
    EXPECT_EQ(a.accuracy.misses(), b.accuracy.misses());
    EXPECT_EQ(a.shutdowns, b.shutdowns);
    EXPECT_EQ(a.spinUps, b.spinUps);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

TEST(ObserverOrdering, HistogramBoundariesMustAscend)
{
    EXPECT_EXIT(
        IdleHistogramObserver({secondsUs(1.0), secondsUs(1.0)}),
        testing::ExitedWithCode(1), "ascending");
}

// ---------------------------------------------------------------
// Instrumented parity: the replay loop is compiled twice, with and
// without observer dispatch. Both instantiations must produce the
// same RunResult for every registered policy and every driver kind.
// ---------------------------------------------------------------

void
expectSameResult(const RunResult &a, const RunResult &b,
                 const std::string &label)
{
    EXPECT_EQ(a.accuracy.opportunities, b.accuracy.opportunities)
        << label;
    EXPECT_EQ(a.accuracy.hitPrimary, b.accuracy.hitPrimary) << label;
    EXPECT_EQ(a.accuracy.hitBackup, b.accuracy.hitBackup) << label;
    EXPECT_EQ(a.accuracy.missPrimary, b.accuracy.missPrimary)
        << label;
    EXPECT_EQ(a.accuracy.missBackup, b.accuracy.missBackup) << label;
    EXPECT_EQ(a.accuracy.notPredicted, b.accuracy.notPredicted)
        << label;
    using power::EnergyCategory;
    for (EnergyCategory category :
         {EnergyCategory::BusyIo, EnergyCategory::IdleShort,
          EnergyCategory::IdleLong, EnergyCategory::PowerCycle})
        EXPECT_DOUBLE_EQ(a.energy.get(category),
                         b.energy.get(category))
            << label;
    EXPECT_EQ(a.shutdowns, b.shutdowns) << label;
    EXPECT_EQ(a.spinUps, b.spinUps) << label;
    EXPECT_EQ(a.ignoredShutdowns, b.ignoredShutdowns) << label;
    EXPECT_EQ(a.totalSpinUpDelay, b.totalSpinUpDelay) << label;
}

std::uint64_t
countEvents(const std::vector<std::string> &events,
            const std::string &needle)
{
    return static_cast<std::uint64_t>(
        std::count(events.begin(), events.end(), needle));
}

/** Outcome counts in the recorded stream must reconcile with the
 * AccuracyStats the same run reported. */
void
expectRecordsReconcile(const RecordingObserver &observer,
                       const RunResult &result,
                       const std::string &label)
{
    const AccuracyStats &stats = result.accuracy;
    EXPECT_EQ(countEvents(observer.events, "idle:hit_primary"),
              stats.hitPrimary)
        << label;
    EXPECT_EQ(countEvents(observer.events, "idle:hit_backup"),
              stats.hitBackup)
        << label;
    EXPECT_EQ(countEvents(observer.events, "idle:miss_primary"),
              stats.missPrimary)
        << label;
    EXPECT_EQ(countEvents(observer.events, "idle:miss_backup"),
              stats.missBackup)
        << label;
    EXPECT_EQ(countEvents(observer.events, "idle:not_predicted"),
              stats.notPredicted)
        << label;
    // Every idle period emits exactly one record; Short periods are
    // recorded but never tallied.
    EXPECT_EQ(observer.records.size(),
              stats.hits() + stats.misses() + stats.notPredicted +
                  countEvents(observer.events, "idle:short"))
        << label;
}

/** Realistic multi-execution inputs (forks, real idle structure)
 * plus the tiny scripted execution. */
std::vector<ExecutionInput>
parityInputs()
{
    static ParallelEvaluation *eval = [] {
        ExperimentConfig config;
        config.maxExecutions = 2;
        return new ParallelEvaluation(config);
    }();
    std::vector<ExecutionInput> inputs;
    eval->forEachExecution("mozilla", 0, [&](const ExecutionInput &input) {
        inputs.push_back(input);
    });
    inputs.push_back(scriptedInput());
    return inputs;
}

TEST(InstrumentedParity, EveryDriverMatchesItsNullObserverReplay)
{
    const std::vector<ExecutionInput> inputs = parityInputs();

    // @p make builds a driver over a fresh @p policy session, once
    // for the null-observer replay and once for the recorded one.
    const auto compare = [&](const std::string &label,
                             const std::string &policy,
                             const auto &make) {
        SimulationKernel plain{SimParams{}};
        RecordingObserver observer;
        SimulationKernel observed(SimParams{}, observer);
        PolicySession plain_session(policyByName(policy));
        PolicySession observed_session(policyByName(policy));
        const auto plain_driver = make(plain_session);
        const auto observed_driver = make(observed_session);
        const RunResult a = plain.run(inputs, *plain_driver);
        const RunResult b = observed.run(inputs, *observed_driver);
        expectSameResult(a, b, label);
        expectRecordsReconcile(observer, b, label);
    };

    for (const std::string &name : policyNames()) {
        compare("global/" + name, name, [](PolicySession &session) {
            return std::make_unique<GlobalDriver>(session);
        });
    }
    compare("local/PCAP", "PCAP", [](PolicySession &session) {
        return std::make_unique<LocalDriver>(session);
    });
    compare("global-multistate/PCAPa", "PCAPa",
            [](PolicySession &session) {
                GlobalDriver::Options options;
                options.multiState = true;
                return std::make_unique<GlobalDriver>(session, options);
            });
    compare("base", "TP", [](PolicySession &) {
        return std::make_unique<BaseDriver>();
    });
    compare("oracle", "TP", [](PolicySession &) {
        return std::make_unique<OracleDriver>();
    });
}

// ---------------------------------------------------------------
// Same-time order: what the file cache emits at one microsecond is
// what every driver replays.
// ---------------------------------------------------------------

/** Records the (pid, file) of every access it is fed. */
class AccessRecorder final : public PolicyDriver
{
  public:
    explicit AccessRecorder(bool disk) : disk_(disk) {}

    std::vector<std::pair<Pid, FileId>> fed;

    bool usesDisk() const override { return disk_; }
    void beginExecution(const ExecutionInput &) override {}
    void onAccess(const trace::DiskAccess &access, TimeUs,
                  IdleSink &) override
    {
        fed.emplace_back(access.pid, access.file);
    }

  private:
    bool disk_;
};

TEST(SameTimeOrder, FilterAndEveryReplayUseTimePidEmissionOrder)
{
    // Pid 20 dirties a block at 1 s; the flush daemon writes it back
    // at the 35 s flush check. At that same microsecond pid 20 reads
    // files 2 and 3 and its child, pid 10, reads file 4 — every read
    // a miss. The builder emits the child's read first; the second
    // trace moves the parent's reads ahead of it.
    constexpr Pid kParent = 20;
    constexpr Pid kChild = 10;
    const TimeUs at = secondsUs(35);
    trace::TraceBuilder builder("same-time", 0, kParent);
    builder.io(secondsUs(1), kParent, trace::EventType::Write, 0x1000,
               3, 1, 0, 4096);
    builder.fork(secondsUs(2), kParent, kChild);
    builder.io(at, kParent, trace::EventType::Read, 0x2000, 4, 2, 0,
               4096);
    builder.io(at, kParent, trace::EventType::Read, 0x3000, 5, 3, 0,
               4096);
    builder.io(at, kChild, trace::EventType::Read, 0x4000, 6, 4, 0,
               4096);
    const trace::Trace child_first = builder.finish(secondsUs(60));
    std::vector<trace::TraceEvent> events = child_first.events();
    std::stable_partition(events.begin(), events.end(),
                          [&](const trace::TraceEvent &event) {
                              return event.time < at ||
                                     (event.time == at &&
                                      event.pid == kParent);
                          });
    trace::Trace parent_first("same-time", 0);
    for (const trace::TraceEvent &event : events)
        parent_first.append(event);

    const std::vector<std::pair<Pid, FileId>> expected = {
        {kFlushDaemonPid, 1}, {kChild, 4}, {kParent, 2}, {kParent, 3}};
    const auto check = [&](const trace::Trace &trace,
                           const std::string &label) {
        const ExecutionInput input =
            ExecutionInput::fromTrace(trace, cache::CacheParams{});
        std::vector<std::pair<Pid, FileId>> array_order, same_time;
        for (const trace::DiskAccess &access : input.accesses) {
            array_order.emplace_back(access.pid, access.file);
            if (access.time == at)
                same_time.emplace_back(access.pid, access.file);
        }
        EXPECT_EQ(same_time, expected) << label;

        // Global-style (disk) and local-style (diskless) replays.
        for (const bool disk : {true, false}) {
            AccessRecorder recorder(disk);
            SimulationKernel(SimParams{}).runExecution(input, recorder);
            EXPECT_EQ(recorder.fed, array_order)
                << label << (disk ? ", disk" : ", diskless");
        }
    };
    check(child_first, "child first");
    check(parent_first, "parent first");
}

// ---------------------------------------------------------------
// Policy registry
// ---------------------------------------------------------------

TEST(PolicyRegistry, NamesInPaperOrder)
{
    const std::vector<std::string> expected = {
        "TP",     "LT",    "LTa", "PCAP", "PCAPh", "PCAPf",
        "PCAPfh", "PCAPa", "EA",  "SB",   "ATP"};
    EXPECT_EQ(policyNames(), expected);
}

TEST(PolicyRegistry, FindPolicyResolvesConfigs)
{
    const auto pcap = findPolicy("PCAP");
    ASSERT_TRUE(pcap.has_value());
    EXPECT_EQ(pcap->label, "PCAP");
    EXPECT_EQ(pcap->kind, PolicyKind::Pcap);

    const auto lta = findPolicy("LTa");
    ASSERT_TRUE(lta.has_value());
    EXPECT_FALSE(lta->reuseTables);

    EXPECT_FALSE(findPolicy("bogus").has_value());
    EXPECT_FALSE(findPolicy("pcap").has_value()) // case-sensitive
        << "registry lookups are exact";
}

TEST(PolicyRegistry, UnknownNameIsRejected)
{
    EXPECT_EXIT(policyByName("no-such-policy"),
                testing::ExitedWithCode(1), "unknown policy");
}

// ---------------------------------------------------------------
// LocalDriver: accesses without a process span are dropped loudly
// but harmlessly (satellite of the refactor).
// ---------------------------------------------------------------

TEST(LocalDriverTest, UnknownPidAccessIsDroppedNotFatal)
{
    ExecutionInput clean = scriptedInput();

    ExecutionInput dirty = scriptedInput();
    trace::DiskAccess stray;
    stray.time = secondsUs(3.0);
    stray.pid = 99; // no process span
    stray.blocks = 1;
    dirty.accesses.insert(dirty.accesses.begin() + 2, stray);

    PolicySession session_a(policyByName("TP"));
    PolicySession session_b(policyByName("TP"));
    const SimParams params;
    LocalDriver driver_a(session_a);
    LocalDriver driver_b(session_b);
    SimulationKernel kernel(params);
    const AccuracyStats a = kernel.runExecution(clean, driver_a).accuracy;
    testing::internal::CaptureStderr();
    const AccuracyStats b = kernel.runExecution(dirty, driver_b).accuracy;
    const std::string log = testing::internal::GetCapturedStderr();

    EXPECT_NE(log.find("pid 99"), std::string::npos)
        << "dropped access must be reported";
    EXPECT_EQ(a.opportunities, b.opportunities);
    EXPECT_EQ(a.hits(), b.hits());
    EXPECT_EQ(a.misses(), b.misses());
    EXPECT_EQ(a.notPredicted, b.notPredicted);
}

} // namespace
} // namespace pcap::sim
