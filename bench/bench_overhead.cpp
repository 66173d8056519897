/**
 * @file
 * Runtime overhead of PCAP (Section 3.2.2) — google-benchmark
 * microbenchmarks.
 *
 * The paper argues the per-I/O work (obtain the PC, add it to the
 * signature, one hash-table lookup) is "about four memory accesses"
 * and insignificant next to the thousands of instructions an I/O
 * takes. These benchmarks measure the actual cost of the
 * signature update + table lookup, the training path, the Learning
 * Tree step, and a full global-predictor access.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "cache/file_cache.hpp"
#include "core/global.hpp"
#include "core/pcap.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "pred/learning_tree.hpp"
#include "pred/timeout.hpp"
#include "sim/drivers.hpp"
#include "sim/input.hpp"
#include "sim/kernel.hpp"
#include "sim/observer.hpp"
#include "sim/policy.hpp"
#include "workload/app_model.hpp"

using namespace pcap;

namespace {

/** Pre-populate a table with n realistic entries. */
std::shared_ptr<core::PredictionTable>
makeTable(std::size_t n)
{
    auto table = std::make_shared<core::PredictionTable>();
    for (std::size_t i = 0; i < n; ++i) {
        core::TableKey key;
        key.signature = static_cast<std::uint32_t>(
            0x08048000u + i * 0x9e3779b9u);
        table->train(key);
    }
    return table;
}

void
BM_PcapOnIo(benchmark::State &state)
{
    const auto table =
        makeTable(static_cast<std::size_t>(state.range(0)));
    core::PcapConfig config;
    core::PcapPredictor predictor(config, table);

    pred::IoContext ctx;
    ctx.time = 0;
    ctx.sincePrev = millisUs(50);
    ctx.pc = 0x08048010;
    ctx.fd = 3;
    for (auto _ : state) {
        ctx.time += millisUs(100);
        ctx.pc += 0x10;
        benchmark::DoNotOptimize(predictor.onIo(ctx));
    }
}
BENCHMARK(BM_PcapOnIo)->Arg(16)->Arg(139)->Arg(4096);

void
BM_PcapTrainingCycle(benchmark::State &state)
{
    const auto table = makeTable(64);
    core::PcapConfig config;
    core::PcapPredictor predictor(config, table);

    pred::IoContext ctx;
    ctx.time = 0;
    ctx.pc = 0x08048010;
    ctx.fd = 3;
    for (auto _ : state) {
        // A long idle period completes: training + path reset.
        ctx.time += secondsUs(10);
        ctx.sincePrev = secondsUs(10);
        ctx.pc += 0x10;
        benchmark::DoNotOptimize(predictor.onIo(ctx));
    }
}
BENCHMARK(BM_PcapTrainingCycle);

void
BM_TableLookup(benchmark::State &state)
{
    const auto table =
        makeTable(static_cast<std::size_t>(state.range(0)));
    core::TableKey key;
    key.signature = 0x08048000u + 7 * 0x9e3779b9u;
    for (auto _ : state)
        benchmark::DoNotOptimize(table->lookup(key));
}
BENCHMARK(BM_TableLookup)->Arg(139)->Arg(4096);

void
BM_LearningTreeOnIo(benchmark::State &state)
{
    pred::LtConfig config;
    auto tree = std::make_shared<pred::LtTree>(config);
    pred::LtPredictor predictor(config, tree);

    pred::IoContext ctx;
    ctx.time = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        ctx.time += secondsUs(4);
        // Alternate short/long so the tree keeps training.
        ctx.sincePrev = (++i % 3) ? secondsUs(2) : secondsUs(8);
        benchmark::DoNotOptimize(predictor.onIo(ctx));
    }
}
BENCHMARK(BM_LearningTreeOnIo);

void
BM_GlobalPredictorAccess(benchmark::State &state)
{
    const auto table = makeTable(64);
    core::GlobalShutdownPredictor gsp(
        [&table](Pid, TimeUs) {
            return std::make_unique<core::PcapPredictor>(
                core::PcapConfig{}, table);
        });
    const int processes = static_cast<int>(state.range(0));
    for (Pid pid = 0; pid < processes; ++pid)
        gsp.processStart(pid, 0);

    trace::DiskAccess access;
    access.pc = 0x08048010;
    access.fd = 3;
    // Round robin every 50 ms: even at 64 processes each process's
    // gap (3.2 s) stays under PCAP's 5.43 s breakeven, so no access
    // trains the table and the cost measured is the access path's.
    std::uint64_t i = 0;
    for (auto _ : state) {
        access.time += millisUs(50);
        access.pid = static_cast<Pid>(++i % processes);
        access.pc += 0x10;
        benchmark::DoNotOptimize(gsp.onAccess(access));
    }
}
BENCHMARK(BM_GlobalPredictorAccess)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

/**
 * Observability hot paths (PR 3): the per-event cost of a resolved
 * counter increment and histogram observe, the resolve (registry
 * lookup) itself, and the end-to-end tax of hanging a
 * MetricsObserver on the idle-period sink versus the NullObserver.
 * The acceptance bar is <5% on the simulation hot path; the
 * per-event costs here are the budget's denominators.
 */
void
BM_MetricsCounterInc(benchmark::State &state)
{
    obs::MetricsRegistry registry;
    obs::Counter &counter = registry.counter("bm_total");
    for (auto _ : state)
        counter.inc();
    benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_MetricsCounterInc);

void
BM_MetricsHistogramObserve(benchmark::State &state)
{
    obs::MetricsRegistry registry;
    obs::Histogram &histogram = registry.histogram(
        "bm_hist", {1e4, 1e5, 1e6, 2e6, 1e7, 3e7, 6e7, 3e8});
    double v = 0.0;
    for (auto _ : state) {
        v = v > 1e8 ? 1.0 : v * 3.0 + 7.0;
        histogram.observe(v);
    }
    benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_MetricsHistogramObserve);

void
BM_MetricsRegistryLookup(benchmark::State &state)
{
    // The once-per-cell resolve path: mutex + hash of the series
    // identity. Hot loops hoist this out; the benchmark documents
    // why.
    obs::MetricsRegistry registry;
    registry.counter("bm_total", {{"app", "x"}});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            &registry.counter("bm_total", {{"app", "x"}}));
    }
}
BENCHMARK(BM_MetricsRegistryLookup);

template <bool WithMetrics>
void
BM_IdleSinkClassify(benchmark::State &state)
{
    obs::MetricsRegistry registry;
    obs::ScopedMetrics scope(&registry, {{"app", "bm"}});
    sim::SimParams params;
    sim::MetricsObserver metrics(scope, params.breakeven());
    sim::SimObserver &observer =
        WithMetrics ? static_cast<sim::SimObserver &>(metrics)
                    : sim::nullObserver();

    sim::AccuracyStats stats;
    sim::IdleSink sink(params.breakeven(), stats, observer);
    TimeUs t = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        const TimeUs gap =
            (++i % 3) ? secondsUs(30.0) : millisUs(100.0);
        sink.classify(0, t, t + gap, (i % 3) ? t + secondsUs(5.0) : -1,
                      pred::DecisionSource::Primary);
        t += gap;
    }
    benchmark::DoNotOptimize(stats.opportunities);
}
BENCHMARK(BM_IdleSinkClassify<false>)->Name("BM_IdleSinkClassify/null");
BENCHMARK(BM_IdleSinkClassify<true>)
    ->Name("BM_IdleSinkClassify/metrics");

/** Provenance sink that keeps only the newest record, so the
 * benchmark below measures the observer, not serialization. */
class LastRecordSink final : public obs::ProvenanceSink
{
  public:
    void write(const obs::ProvenanceRecord &record) override
    {
        last = record;
    }

    obs::ProvenanceRecord last;
};

/**
 * Provenance cost per classified idle period: the same sink loop as
 * BM_IdleSinkClassify, but with a ProvenanceObserver attached.
 * Compare against BM_IdleSinkClassify/null for the per-period tax;
 * the default provenance-off path pays only a null pointer test in
 * the predictor.
 */
void
BM_IdleSinkClassifyProvenance(benchmark::State &state)
{
    sim::SimParams params;
    LastRecordSink records;
    sim::ProvenanceObserver provenance(records, params.disk);

    sim::AccuracyStats stats;
    sim::IdleSink sink(params.breakeven(), stats, provenance);
    TimeUs t = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        const TimeUs gap =
            (++i % 3) ? secondsUs(30.0) : millisUs(100.0);
        sink.classify(0, t, t + gap, (i % 3) ? t + secondsUs(5.0) : -1,
                      pred::DecisionSource::Primary);
        t += gap;
    }
    benchmark::DoNotOptimize(stats.opportunities);
    benchmark::DoNotOptimize(records.last);
}
BENCHMARK(BM_IdleSinkClassifyProvenance)
    ->Name("BM_IdleSinkClassify/provenance");

/**
 * The replay kernel: one full execution replayed through
 * SimulationKernel per iteration, against the NullObserver (the
 * instantiation with instrumentation compiled out) and with an
 * attached observer. The "per_period" counter is seconds per idle
 * period (displayed with an SI suffix, so 2.5n reads as
 * 2.5 ns/period).
 *
 * The input alternates two 100 ms gaps with one 30 s opportunity, so
 * the replay exercises classification, shutdown issuance and the
 * disk model — not just event dispatch.
 */
sim::ExecutionInput
makeReplayInput(std::size_t periods)
{
    sim::ExecutionInput input;
    input.app = "synthetic";
    TimeUs t = 0;
    for (std::size_t i = 0; i < periods; ++i) {
        trace::DiskAccess access;
        access.time = t;
        access.pid = static_cast<Pid>(i % 4);
        access.pc = 0x08048000u + static_cast<std::uint32_t>(i % 97);
        input.accesses.push_back(access);
        t += (i % 3) ? millisUs(100.0) : secondsUs(30.0);
    }
    for (Pid pid = 0; pid < 4; ++pid)
        input.processes.push_back({pid, 0, t});
    input.endTime = t;
    return input;
}

template <bool WithObserver>
void
BM_KernelReplay(benchmark::State &state)
{
    const std::size_t periods =
        static_cast<std::size_t>(state.range(0));
    const sim::ExecutionInput input = makeReplayInput(periods);
    sim::SimParams params;
    sim::IdleHistogramObserver histogram(
        sim::IdleHistogramObserver::defaultBoundaries(
            params.breakeven()));
    sim::SimObserver &observer =
        WithObserver ? static_cast<sim::SimObserver &>(histogram)
                     : sim::nullObserver();
    sim::SimulationKernel kernel(params, observer);
    sim::PolicySession session(sim::policyByName("TP"));
    sim::GlobalDriver driver(session);
    for (auto _ : state)
        benchmark::DoNotOptimize(kernel.runExecution(input, driver));
    state.counters["per_period"] = benchmark::Counter(
        static_cast<double>(periods),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_KernelReplay<false>)
    ->Name("BM_KernelReplay/null")
    ->Arg(65536);
BENCHMARK(BM_KernelReplay<true>)
    ->Name("BM_KernelReplay/observed")
    ->Arg(65536);

/**
 * The input layers: the file-cache filter and the generation
 * metrics, over the first mplayer execution generated at seed 42
 * (the largest application's trace; generated once per process).
 * BM_FilterTrace's argument is the cache capacity in 4 KB blocks:
 * 64 is the paper's 256 KB cache, 1024 the 4 MB row of the cache
 * sweep. Its "per_io" counter is seconds per traced I/O, the unit
 * of the ledger's cache.filter.ns_per_io.
 */
const trace::Trace &
mplayerTrace()
{
    static const trace::Trace trace = [] {
        Rng rng(42 ^ hashString("mplayer"));
        return workload::makeApp("mplayer")->generate(0, rng.fork(0));
    }();
    return trace;
}

void
BM_FilterTrace(benchmark::State &state)
{
    const trace::Trace &trace = mplayerTrace();
    cache::CacheParams params;
    params.capacityBytes =
        static_cast<std::size_t>(state.range(0)) * params.blockSize;
    for (auto _ : state)
        benchmark::DoNotOptimize(cache::filterTrace(trace, params));
    state.counters["per_io"] = benchmark::Counter(
        static_cast<double>(trace.ioCount()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_FilterTrace)->Arg(64)->Arg(1024);

void
BM_RecordTraceMetrics(benchmark::State &state)
{
    const trace::Trace &trace = mplayerTrace();
    obs::MetricsRegistry registry;
    const obs::ScopedMetrics scope(&registry, {{"app", "mplayer"}});
    for (auto _ : state)
        workload::recordTraceMetrics(trace, scope);
    state.counters["per_event"] = benchmark::Counter(
        static_cast<double>(trace.events().size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_RecordTraceMetrics);

void
BM_TimeoutOnIo(benchmark::State &state)
{
    pred::TimeoutPredictor predictor(secondsUs(10.0));
    pred::IoContext ctx;
    for (auto _ : state) {
        ctx.time += millisUs(100);
        benchmark::DoNotOptimize(predictor.onIo(ctx));
    }
}
BENCHMARK(BM_TimeoutOnIo);

} // namespace

BENCHMARK_MAIN();
