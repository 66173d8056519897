/**
 * @file
 * perfbench_ledger — the per-layer cost ledger, measured from outside.
 *
 *   perfbench_ledger --seed N --seconds S --out PATH
 *
 * Each pass times calls into the public functions of one layer at a
 * time, from this file, with the thread CPU clock: a whole execution
 * (or trace, or host) per clock-read pair, never a single access, so
 * the clock costs nothing next to the work. Every layer reports its
 * work count, busy nanoseconds and nanoseconds per unit of work.
 * Passes repeat until S seconds have passed (at least one) and each
 * metric is the median over passes.
 *
 * The layers, in pipeline order:
 *   workload.generate    AppModel::generate, per traced I/O
 *   cache.filter         cache::filterTrace, per traced I/O
 *   sim.input            ExecutionInput::fromTrace minus its filter,
 *                        per post-cache access; heap held per access
 *   core.gsp             GlobalShutdownPredictor over
 *                        PolicySession::makeLocal predictors
 *   power.disk           PowerManagedDisk request/shutdown/finish
 *   sim.kernel           SimulationKernel::runExecution per driver,
 *                        null observer; observer costs as differences
 *   sim.experiment       ParallelEvaluation prefetchInputs/prefetch
 *                        over the default report suite, the
 *                        ablation_cache sweep, and per-cell cost
 *   sim.fleet            FleetDriver::runHost per host, and run()
 *                        minus the hosts (merge and scheduling)
 *   obs.export           metricsToJson + dump of the suite registry
 *
 * Parity: the ledger's global TP and PCAP runs (one PolicySession per
 * app, runExecution per input) must equal
 * EvaluationApi::globalRun for the same seed, so the ledger measures
 * the program the end-to-end workloads run. Each (app, policy) pair
 * is one checked operation.
 *
 * Output: a JSON document at PATH with passes, attempted, failed,
 * problems and metrics ({name: {value, unit}}).
 */

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/file_cache.hpp"
#include "core/global.hpp"
#include "obs/export.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "power/disk.hpp"
#include "reports.hpp"
#include "sim/drivers.hpp"
#include "sim/experiment.hpp"
#include "sim/fleet.hpp"
#include "sim/kernel.hpp"
#include "sim/observer.hpp"
#include "sim/policy.hpp"
#include "suite.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "workload/app_model.hpp"
#include "workload/host_profile.hpp"

using namespace pcap;

namespace {

/** Hosts the fleet layer times per pass (the end-to-end fleet
 * workload runs 1000; the ledger needs per-host costs, not scale). */
constexpr std::uint64_t kLedgerHosts = 128;

/** Worker threads of the suite engine, as in the end-to-end runs. */
constexpr unsigned kJobs = 4;

std::uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec +
                               usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec +
                               usage.ru_stime.tv_usec) *
               1e-6;
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Heap bytes in use (arena plus mmapped chunks). */
std::uint64_t
heapBytes()
{
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
}

/** Work count and busy thread-CPU time of one layer. */
struct Cost
{
    std::uint64_t count = 0;
    std::uint64_t busyNs = 0;

    double nsPerUnit() const
    {
        return count ? static_cast<double>(busyNs) /
                           static_cast<double>(count)
                     : 0.0;
    }
};

/** Time @p body on the calling thread's CPU clock; returns ns. */
template <typename Body>
std::uint64_t
timed(Body &&body)
{
    const std::uint64_t start = threadCpuNs();
    body();
    return threadCpuNs() - start;
}

/** Nearest-rank percentile of @p values (sorted copy). */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

/** Metric values of one pass, in emission order. */
class Pass
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics_.push_back({name, value, unit});
    }

    /** The layer triple: <prefix>.<countName>, .busy_ns and
     * .ns_per_<unit>. */
    void layer(const std::string &prefix, const Cost &cost,
               const std::string &countName, const std::string &unit)
    {
        set(prefix + "." + countName,
            static_cast<double>(cost.count), "count");
        set(prefix + ".busy_ns", static_cast<double>(cost.busyNs),
            "ns");
        set(prefix + ".ns_per_" + unit, cost.nsPerUnit(),
            "ns/" + unit);
    }

    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    const std::vector<Metric> &metrics() const { return metrics_; }

    /** Parity failures found in this pass, and checks made. */
    std::vector<std::string> problems;
    std::uint64_t checked = 0;

  private:
    std::vector<Metric> metrics_;
};

bool
sameRun(const sim::RunResult &a, const sim::RunResult &b)
{
    const sim::AccuracyStats &x = a.accuracy;
    const sim::AccuracyStats &y = b.accuracy;
    bool same = x.opportunities == y.opportunities &&
                x.hitPrimary == y.hitPrimary &&
                x.hitBackup == y.hitBackup &&
                x.missPrimary == y.missPrimary &&
                x.missBackup == y.missBackup &&
                x.notPredicted == y.notPredicted &&
                a.shutdowns == b.shutdowns && a.spinUps == b.spinUps &&
                a.ignoredShutdowns == b.ignoredShutdowns &&
                a.totalSpinUpDelay == b.totalSpinUpDelay;
    for (power::EnergyCategory category :
         {power::EnergyCategory::BusyIo,
          power::EnergyCategory::IdleShort,
          power::EnergyCategory::IdleLong,
          power::EnergyCategory::PowerCycle})
        same = same && a.energy.get(category) == b.energy.get(category);
    return same;
}

/** One global-replay event; same-time events replay in kind order. */
struct ReplayEvent
{
    enum Kind { Start, Access, Exit };

    TimeUs time = 0;
    Kind kind = Access;
    Pid pid = 0;
    std::size_t access = 0; ///< index into accesses (Access only)

    bool operator<(const ReplayEvent &other) const
    {
        if (time != other.time)
            return time < other.time;
        if (kind != other.kind)
            return kind < other.kind;
        if (pid != other.pid)
            return pid < other.pid;
        return access < other.access;
    }
};

/** The input's processes and accesses merged in replay order. */
std::vector<ReplayEvent>
replayOrder(const sim::ExecutionInput &input)
{
    std::vector<ReplayEvent> events;
    events.reserve(input.accesses.size() + 2 * input.processes.size());
    for (const sim::ProcessSpan &span : input.processes) {
        events.push_back({span.start, ReplayEvent::Start, span.pid, 0});
        events.push_back({span.end, ReplayEvent::Exit, span.pid, 0});
    }
    for (std::size_t i = 0; i < input.accesses.size(); ++i)
        events.push_back({input.accesses[i].time, ReplayEvent::Access,
                          input.accesses[i].pid, i});
    std::sort(events.begin(), events.end());
    return events;
}

using Inputs = std::vector<std::vector<sim::ExecutionInput>>;

/** workload.generate, cache.filter, sim.input: build every app's
 * inputs the way the engine does, one layer call at a time. */
Inputs
measureInputs(const sim::ExperimentConfig &config,
              const std::vector<std::string> &apps, Pass &pass)
{
    Cost generate, filter, build;
    std::uint64_t hits = 0, lookups = 0;
    std::uint64_t heap = 0;
    std::uint64_t criticalNs = 0;
    Inputs inputs;
    for (const std::string &app : apps) {
        const auto model = workload::makeApp(app);
        const int executions = model->info().executions;
        Rng app_rng(config.seed ^ hashString(app));
        std::vector<Rng> rngs;
        for (int i = 0; i < executions; ++i)
            rngs.push_back(app_rng.fork(static_cast<std::uint64_t>(i)));

        std::uint64_t appNs = 0;
        const std::uint64_t heapBefore = heapBytes();
        std::vector<sim::ExecutionInput> appInputs;
        appInputs.reserve(static_cast<std::size_t>(executions));
        for (int i = 0; i < executions; ++i) {
            trace::Trace trace;
            const std::uint64_t genNs = timed(
                [&] { trace = model->generate(i, rngs[i]); });
            generate.busyNs += genNs;
            generate.count += trace.ioCount();

            cache::CacheStats stats;
            const std::uint64_t filterNs = timed([&] {
                const auto accesses =
                    cache::filterTrace(trace, config.cache, &stats);
                (void)accesses;
            });
            filter.busyNs += filterNs;
            filter.count += trace.ioCount();
            hits += stats.hits;
            lookups += stats.lookups;

            const std::uint64_t fromNs = timed([&] {
                appInputs.push_back(
                    sim::ExecutionInput::fromTrace(trace, config.cache));
            });
            build.busyNs += fromNs > filterNs ? fromNs - filterNs : 0;
            build.count += appInputs.back().accesses.size();
            appNs += genNs + fromNs;
        }
        const std::uint64_t heapAfter = heapBytes();
        heap += heapAfter > heapBefore ? heapAfter - heapBefore : 0;
        criticalNs = std::max(criticalNs, appNs);
        inputs.push_back(std::move(appInputs));
    }
    pass.layer("workload.generate", generate, "ios", "io");
    pass.layer("cache.filter", filter, "ios", "io");
    pass.set("cache.filter.hit_ratio",
             lookups ? static_cast<double>(hits) /
                           static_cast<double>(lookups)
                     : 0.0,
             "ratio");
    pass.set("sim.input.accesses", static_cast<double>(build.count),
             "count");
    pass.set("sim.input.build_busy_ns",
             static_cast<double>(build.busyNs), "ns");
    pass.set("sim.input.build_ns_per_access", build.nsPerUnit(),
             "ns/access");
    pass.set("sim.input.heap_bytes", static_cast<double>(heap), "B");
    pass.set("sim.input.heap_bytes_per_access",
             build.count ? static_cast<double>(heap) /
                               static_cast<double>(build.count)
                         : 0.0,
             "B/access");
    pass.set("sim.experiment.inputs_critical_s",
             static_cast<double>(criticalNs) * 1e-9, "s");
    return inputs;
}

/** Replay every input of every app through @p makeDriver's driver
 * (one per app, so learned state spans the app's executions). */
Cost
replayAll(const sim::SimParams &params, const Inputs &inputs,
          sim::SimObserver &observer,
          const std::function<std::unique_ptr<sim::PolicyDriver>(
              std::size_t app)> &makeDriver,
          std::vector<sim::RunResult> *perApp = nullptr)
{
    Cost cost;
    sim::SimulationKernel kernel(params, observer);
    for (std::size_t app = 0; app < inputs.size(); ++app) {
        const auto driver = makeDriver(app);
        sim::RunResult total;
        for (const sim::ExecutionInput &input : inputs[app]) {
            cost.busyNs += timed(
                [&] { total.merge(kernel.runExecution(input, *driver)); });
            cost.count += input.accesses.size();
        }
        if (perApp)
            perApp->push_back(total);
    }
    return cost;
}

/** sim.kernel: each driver on the null-observer path, then the
 * observer stacks the engine attaches, as extra cost per access. */
void
measureKernel(const sim::SimParams &params, const Inputs &inputs,
              std::vector<sim::RunResult> &tpRuns,
              std::vector<sim::RunResult> &pcapRuns, Pass &pass)
{
    std::deque<sim::PolicySession> sessions;
    auto session = [&](const char *policy) -> sim::PolicySession & {
        sessions.emplace_back(sim::policyByName(policy));
        return sessions.back();
    };
    auto global = [&](const char *policy) {
        return [&, policy](std::size_t) {
            return std::unique_ptr<sim::PolicyDriver>(
                new sim::GlobalDriver(session(policy)));
        };
    };
    sim::SimObserver &none = sim::nullObserver();

    pass.layer("sim.kernel.base",
               replayAll(params, inputs, none,
                         [](std::size_t) {
                             return std::unique_ptr<sim::PolicyDriver>(
                                 new sim::BaseDriver());
                         }),
               "accesses", "access");
    pass.layer("sim.kernel.oracle",
               replayAll(params, inputs, none,
                         [](std::size_t) {
                             return std::unique_ptr<sim::PolicyDriver>(
                                 new sim::OracleDriver());
                         }),
               "accesses", "access");
    pass.layer("sim.kernel.global_tp",
               replayAll(params, inputs, none, global("TP"), &tpRuns),
               "accesses", "access");
    pass.layer("sim.kernel.global_lt",
               replayAll(params, inputs, none, global("LT")),
               "accesses", "access");
    const Cost pcapNull =
        replayAll(params, inputs, none, global("PCAP"), &pcapRuns);
    pass.layer("sim.kernel.global_pcap", pcapNull, "accesses",
               "access");
    pass.layer("sim.kernel.local_pcap",
               replayAll(params, inputs, none,
                         [&](std::size_t) {
                             return std::unique_ptr<sim::PolicyDriver>(
                                 new sim::LocalDriver(session("PCAP")));
                         }),
               "accesses", "access");
    pass.layer("sim.kernel.multistate_pcap",
               replayAll(params, inputs, none,
                         [&](std::size_t) {
                             return std::unique_ptr<sim::PolicyDriver>(
                                 new sim::GlobalDriver(
                                     session("PCAP"),
                                     {.multiState = true}));
                         }),
               "accesses", "access");

    // Observer stacks of an instrumented cell: metrics alone, then
    // metrics teed with a timeline (the --timeline-dir stack).
    obs::MetricsRegistry registry;
    sim::MetricsObserver metrics(obs::ScopedMetrics(&registry),
                                 params.breakeven());
    const Cost withMetrics =
        replayAll(params, inputs, metrics, global("PCAP"));
    sim::MetricsObserver teeMetrics(
        obs::ScopedMetrics(&registry, {{"tee", "1"}}),
        params.breakeven());
    sim::TimelineObserver timeline(params.disk);
    sim::TeeObserver tee({&teeMetrics, &timeline});
    const Cost withTimeline = replayAll(
        params, inputs, tee, [&](std::size_t) {
            sim::PolicySession &s = session("PCAP");
            timeline.bindTableSize([&s] { return s.tableEntries(); });
            return std::unique_ptr<sim::PolicyDriver>(
                new sim::GlobalDriver(s));
        });
    const double accesses = static_cast<double>(pcapNull.count);
    auto extra = [&](const Cost &over, const Cost &base) {
        return (static_cast<double>(over.busyNs) -
                static_cast<double>(base.busyNs)) /
               accesses;
    };
    pass.set("sim.kernel.metrics_observer_busy_ns",
             static_cast<double>(withMetrics.busyNs), "ns");
    pass.set("sim.kernel.metrics_observer_ns_per_access",
             extra(withMetrics, pcapNull), "ns/access");
    pass.set("sim.kernel.timeline_observer_busy_ns",
             static_cast<double>(withTimeline.busyNs), "ns");
    pass.set("sim.kernel.timeline_observer_ns_per_access",
             extra(withTimeline, withMetrics), "ns/access");
}

/** core.gsp: the Global Shutdown Predictor alone, fed the merged
 * event order, with PolicySession::makeLocal predictors. */
void
measureGsp(const Inputs &inputs, Pass &pass)
{
    const struct
    {
        const char *policy;
        const char *layer;
    } variants[] = {{"TP", "core.gsp.tp"}, {"PCAP", "core.gsp.pcap"}};
    std::uint64_t tableEntries = 0; // TP learns no table
    for (const auto &variant : variants) {
        Cost cost;
        for (const auto &appInputs : inputs) {
            sim::PolicySession session(
                sim::policyByName(variant.policy));
            for (const sim::ExecutionInput &input : appInputs) {
                const std::vector<ReplayEvent> events =
                    replayOrder(input);
                session.beginExecution();
                core::GlobalShutdownPredictor gsp(
                    [&session](Pid pid, TimeUs start) {
                        return session.makeLocal(pid, start);
                    });
                cost.busyNs += timed([&] {
                    for (const ReplayEvent &event : events) {
                        switch (event.kind) {
                        case ReplayEvent::Start:
                            gsp.processStart(event.pid, event.time);
                            break;
                        case ReplayEvent::Access:
                            gsp.onAccess(input.accesses[event.access]);
                            break;
                        case ReplayEvent::Exit:
                            gsp.processExit(event.pid, event.time);
                            break;
                        }
                    }
                });
                cost.count += input.accesses.size();
            }
            tableEntries += session.tableEntries();
        }
        pass.layer(variant.layer, cost, "accesses", "access");
    }
    pass.set("core.table.entries", static_cast<double>(tableEntries),
             "count");
}

/** power.disk: the disk model under a 10 s timeout policy. */
void
measureDisk(const sim::SimParams &params, const Inputs &inputs,
            Pass &pass)
{
    const TimeUs timeout = secondsUs(10.0);
    Cost cost;
    for (const auto &appInputs : inputs) {
        for (const sim::ExecutionInput &input : appInputs) {
            const auto &accesses = input.accesses;
            cost.busyNs += timed([&] {
                power::PowerManagedDisk disk(params.disk);
                for (std::size_t i = 0; i < accesses.size(); ++i) {
                    const TimeUs done = disk.request(
                        accesses[i].time, accesses[i].blocks);
                    const TimeUs next = i + 1 < accesses.size()
                                            ? accesses[i + 1].time
                                            : input.endTime;
                    if (next > done + timeout)
                        disk.shutdown(done + timeout);
                }
                disk.finish(input.endTime);
            });
            cost.count += accesses.size();
        }
    }
    pass.layer("power.disk", cost, "requests", "request");
}

/** sim.experiment and obs.export, plus the parity check. */
void
measureExperiment(const sim::ExperimentConfig &config,
                  const std::vector<std::string> &apps,
                  const std::vector<sim::RunResult> &tpRuns,
                  const std::vector<sim::RunResult> &pcapRuns,
                  Pass &pass)
{
    const std::vector<sim::Cell> cells =
        perfbench::cellsOf(perfbench::defaultReports());
    obs::MetricsRegistry registry;
    const sim::ParallelOptions options =
        perfbench::suiteOptions(kJobs, &registry);
    sim::ParallelEvaluation eval(config, options);

    double start = wallSeconds();
    eval.prefetchInputs();
    pass.set("sim.experiment.inputs_wall_s", wallSeconds() - start,
             "s");

    const double cpuStart = processCpuSeconds();
    start = wallSeconds();
    eval.prefetch(cells);
    const double cellsWall = wallSeconds() - start;
    const double cellsCpu = processCpuSeconds() - cpuStart;
    pass.set("sim.experiment.cells_wall_s", cellsWall, "s");
    pass.set("sim.experiment.cells_cpu_s", cellsCpu, "s");
    pass.set("sim.experiment.parallel_efficiency",
             cellsCpu / (cellsWall * static_cast<double>(kJobs)),
             "ratio");

    bench::ReportContext ctx = perfbench::suiteContext(eval, options);
    for (const auto &report : bench::allReports()) {
        if (report.name != "ablation_cache")
            continue;
        std::ostringstream text;
        start = wallSeconds();
        report.run(ctx, text);
        pass.set("sim.experiment.sweep_wall_s", wallSeconds() - start,
                 "s");
    }

    for (std::size_t app = 0; app < apps.size(); ++app) {
        const struct
        {
            const char *policy;
            const sim::RunResult &ledger;
        } checks[] = {{"TP", tpRuns[app]}, {"PCAP", pcapRuns[app]}};
        for (const auto &check : checks) {
            ++pass.checked;
            const sim::RunResult engine =
                eval.globalRun(apps[app],
                               sim::policyByName(check.policy))
                    .run;
            if (!sameRun(engine, check.ledger))
                pass.problems.push_back(
                    std::string("parity: global ") + check.policy +
                    " on " + apps[app] +
                    " differs from EvaluationApi::globalRun");
        }
    }

    std::string dumped;
    std::size_t series = 0;
    const std::uint64_t exportNs = timed([&] {
        const Json json = obs::metricsToJson(registry);
        std::ostringstream os;
        json.dump(os);
        dumped = os.str();
        if (const Json *list = json.find("series"))
            series = list->size();
    });
    pass.set("obs.export.ms", static_cast<double>(exportNs) * 1e-6,
             "ms");
    pass.set("obs.export.bytes", static_cast<double>(dumped.size()),
             "B");
    pass.set("obs.export.series", static_cast<double>(series),
             "count");

    // Per-cell cost on one thread: a fresh single-job engine with
    // its inputs resident, one distinct cell at a time.
    obs::MetricsRegistry serialRegistry;
    sim::ParallelEvaluation single(
        config, perfbench::suiteOptions(1, &serialRegistry));
    single.prefetchInputs();
    std::set<std::string> seen;
    std::vector<double> cellMs;
    for (const sim::Cell &cell : cells) {
        const std::string key = std::to_string(
                                    static_cast<int>(cell.mode)) +
                                "\x1f" + cell.app + "\x1f" +
                                sim::policyCacheKey(cell.policy);
        if (!seen.insert(key).second)
            continue;
        cellMs.push_back(
            static_cast<double>(timed([&] { single.prefetch({cell}); })) *
            1e-6);
    }
    pass.set("sim.experiment.cells", static_cast<double>(cellMs.size()),
             "count");
    pass.set("sim.experiment.cell_ms_p50", percentile(cellMs, 50), "ms");
    pass.set("sim.experiment.cell_ms_p97", percentile(cellMs, 97), "ms");
}

/** sim.fleet: host cells one by one, then the whole driver. */
void
measureFleet(const sim::ExperimentConfig &config, Pass &pass)
{
    // The fleet report's host shape (bench reportFleet).
    workload::FleetConfig fleet;
    fleet.fleetSeed = config.seed;
    fleet.hosts = kLedgerHosts;
    fleet.maxAppsPerHost = 3;
    fleet.executionsMin = 4;
    fleet.executionsMax = 12;
    fleet.minThinkScale = 0.5;
    fleet.maxThinkScale = 2.0;
    const std::vector<sim::PolicyConfig> policies = {
        sim::policyByName("TP"), sim::policyByName("PCAP")};
    sim::FleetOptions options;
    options.jobs = 1;
    const sim::FleetDriver driver(fleet, config.sim, config.cache,
                                  options);

    Cost hosts;
    std::vector<double> hostMs;
    std::uint64_t accesses = 0;
    for (std::uint64_t h = 0; h < fleet.hosts; ++h) {
        const workload::HostProfile profile =
            workload::hostProfile(fleet, h);
        const std::uint64_t ns = timed([&] {
            accesses += driver.runHost(profile, policies).accesses;
        });
        hosts.busyNs += ns;
        hostMs.push_back(static_cast<double>(ns) * 1e-6);
    }
    hosts.count = accesses;
    const std::uint64_t runNs = timed([&] { driver.run(policies); });

    pass.layer("sim.fleet", hosts, "accesses", "access");
    pass.set("sim.fleet.host_ms_p50", percentile(hostMs, 50), "ms");
    pass.set("sim.fleet.host_ms_p99", percentile(hostMs, 99), "ms");
    pass.set("sim.fleet.merge_ns_per_host",
             (static_cast<double>(runNs) -
              static_cast<double>(hosts.busyNs)) /
                 static_cast<double>(fleet.hosts),
             "ns/host");
}

/** What the ledger's own clock reads cost: an empty span. */
void
measureEmptySpan(Pass &pass)
{
    constexpr int kSpans = 100000;
    const std::uint64_t ns = timed([] {
        for (int i = 0; i < kSpans; ++i)
            timed([] {});
    });
    pass.set("probe.empty_span_ns", static_cast<double>(ns) / kSpans,
             "ns");
}

Pass
runPass(std::uint64_t seed)
{
    sim::ExperimentConfig config = bench::standardConfig();
    config.seed = seed;
    const std::vector<std::string> apps =
        workload::standardAppNames();

    Pass pass;
    measureEmptySpan(pass);
    std::vector<sim::RunResult> tpRuns, pcapRuns;
    {
        const Inputs inputs = measureInputs(config, apps, pass);
        measureKernel(config.sim, inputs, tpRuns, pcapRuns, pass);
        measureGsp(inputs, pass);
        measureDisk(config.sim, inputs, pass);
    }
    measureExperiment(config, apps, tpRuns, pcapRuns, pass);
    measureFleet(config, pass);
    return pass;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = bench::kBenchSeed;
    double seconds = 10.0;
    std::string out;
    bool usage = argc % 2 == 0;
    for (int i = 1; i + 1 < argc && !usage; i += 2) {
        const std::string arg = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (arg == "--seed")
                seed = std::stoull(value);
            else if (arg == "--seconds")
                seconds = std::stod(value);
            else if (arg == "--out")
                out = value;
            else
                usage = true;
        } catch (const std::exception &) {
            usage = true;
        }
    }
    if (usage || out.empty()) {
        error("usage: perfbench_ledger --seed N --seconds S --out PATH");
        return 2;
    }
    setLogLevel(LogLevel::Warn);

    std::vector<Pass> passes;
    const double deadline = wallSeconds() + seconds;
    do {
        passes.push_back(runPass(seed));
    } while (wallSeconds() < deadline);

    Json root = Json::object();
    root["passes"] = passes.size();
    std::uint64_t attempted = 0;
    Json problems = Json::array();
    for (const Pass &pass : passes) {
        attempted += pass.checked;
        for (const std::string &problem : pass.problems)
            problems.push(problem);
    }
    root["attempted"] = attempted;
    root["failed"] = problems.size();
    root["problems"] = std::move(problems);
    // The same build and perf-backend facts a run manifest records.
    const obs::BuildInfo build = obs::collectBuildInfo();
    Json &buildJson = root["build"];
    buildJson = Json::object();
    buildJson["compiler"] = build.compiler;
    buildJson["compiler_version"] = build.compilerVersion;
    buildJson["build_type"] = build.buildType;
    const obs::PerfCapability perf = obs::PerfCounterGroup::probe();
    Json &perfJson = root["perf"];
    perfJson = Json::object();
    perfJson["backend"] = perf.hardware ? "hardware" : "software";
    perfJson["detail"] = perf.detail;
    Json &metrics = root["metrics"];
    metrics = Json::object();
    for (std::size_t m = 0; m < passes.front().metrics().size(); ++m) {
        const auto &first = passes.front().metrics()[m];
        std::vector<double> values;
        for (const Pass &pass : passes)
            values.push_back(pass.metrics()[m].value);
        Json &entry = metrics[first.name];
        entry = Json::object();
        entry["value"] = median(values);
        entry["unit"] = first.unit;
    }
    std::ofstream os(out);
    root.dump(os);
    os << "\n";
    return os ? 0 : 1;
}
