/**
 * @file
 * perfbench_workload — one end-to-end benchmark run in one process.
 *
 *   perfbench_workload --workload paper|observed|fleet --seed N
 *                      --out DIR [--jobs N]
 *                      [--git-describe TEXT] [--setup-only]
 *
 * Workloads:
 *  - paper:    the default report suite (bench_all without --only),
 *              workload cache off, metrics on.
 *  - observed: paper plus per-cell timelines, a Chrome span profile
 *              and the perf profiler (bench_all --timeline-dir
 *              --trace-profile --perf).
 *  - fleet:    the streaming fleet report at kFleetHosts hosts
 *              (bench_all --report fleet --hosts 1000).
 *
 * Unlike bench_all, the workload seed is an argument: the report
 * suite runs against an engine configured with it, and the sweep
 * engines the reports build inherit it.
 *
 * Outputs go to DIR: results.json (pcap-bench-results-v1),
 * results.prom and results.manifest.json, plus timelines/ and
 * profile.json for observed. Standard output carries one line,
 * "perfbench: setup done", printed when set-up ends and the first
 * policy replay is about to start; the caller timestamps it.
 * --setup-only exits right after that line.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/tracing.hpp"
#include "reports.hpp"
#include "suite.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

using namespace pcap;

namespace {

using Clock = std::chrono::steady_clock;

/** Hosts of the fleet workload: the ROADMAP's fleet-1000 shape. */
constexpr std::uint64_t kFleetHosts = 1000;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

struct Args
{
    std::string workload;
    std::uint64_t seed = bench::kBenchSeed;
    std::string out;
    unsigned jobs = 4;
    std::string gitDescribe = "unknown";
    bool setupOnly = false;
};

bool
parseUnsigned(const std::string &text, std::uint64_t &value)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos ||
        text.size() > 19)
        return false;
    value = std::stoull(text);
    return true;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--setup-only") {
            args.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc) {
            error(arg + " needs a value");
            return false;
        }
        const std::string value = argv[++i];
        std::uint64_t number = 0;
        if (arg == "--workload") {
            args.workload = value;
        } else if (arg == "--out") {
            args.out = value;
        } else if (arg == "--git-describe") {
            args.gitDescribe = value;
        } else if (arg == "--seed" && parseUnsigned(value, number)) {
            args.seed = number;
        } else if (arg == "--jobs" && parseUnsigned(value, number) &&
                   number >= 1 && number <= 64) {
            args.jobs = static_cast<unsigned>(number);
        } else {
            error("bad option: " + arg + " " + value);
            return false;
        }
    }
    if (args.workload != "paper" && args.workload != "observed" &&
        args.workload != "fleet") {
        error("--workload needs paper, observed or fleet");
        return false;
    }
    if (args.out.empty()) {
        error("--out is required");
        return false;
    }
    return true;
}

Json
linesJson(const std::string &text)
{
    Json lines = Json::array();
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        lines.push(line);
    return lines;
}

bool
writeJson(const Json &json, const std::string &path)
{
    std::ofstream os(path);
    json.dump(os);
    os << "\n";
    return static_cast<bool>(os);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args))
        return 2;
    const bool fleet = args.workload == "fleet";
    const bool observed = args.workload == "observed";
    const std::string results_path = args.out + "/results.json";
    const std::string prom_path = args.out + "/results.prom";
    const std::string manifest_path =
        args.out + "/results.manifest.json";
    const std::string profile_path = args.out + "/profile.json";

    obs::MetricsRegistry registry;

    // Leaked like bench_all's: winding-down pool threads may still
    // touch the recorder and the per-thread counter groups.
    obs::TraceRecorder *trace_recorder = nullptr;
    obs::PerfProfiler *perf_profiler = nullptr;
    if (observed) {
        trace_recorder = new obs::TraceRecorder();
        obs::setTraceRecorder(trace_recorder);
        obs::installThreadPoolTraceHook();
        perf_profiler = new obs::PerfProfiler();
        obs::setPerfProfiler(perf_profiler);
    }

    sim::ExperimentConfig config = bench::standardConfig();
    config.seed = args.seed;
    sim::ParallelOptions options =
        perfbench::suiteOptions(args.jobs, &registry);
    if (observed)
        options.timelineDir = args.out + "/timelines";

    sim::ParallelEvaluation eval(config, options);
    Json fleet_json;
    bench::ReportContext ctx = perfbench::suiteContext(eval, options);
    ctx.fleet.hosts = kFleetHosts;
    ctx.fleet.seed = args.seed;
    ctx.fleet.jobs = args.jobs;
    ctx.fleet.metrics = &registry;
    ctx.fleetJson = &fleet_json;

    std::vector<const bench::Report *> selected;
    if (fleet) {
        for (const bench::Report &report : bench::allReports()) {
            if (report.name == "fleet")
                selected.push_back(&report);
        }
    } else {
        selected = perfbench::defaultReports();
    }
    const std::vector<sim::Cell> cells = perfbench::cellsOf(selected);

    const Clock::time_point total_start = Clock::now();
    const Clock::time_point inputs_start = Clock::now();
    if (!cells.empty()) {
        obs::Span span("inputs");
        obs::PerfRegion perf("phase:inputs");
        eval.prefetchInputs();
    }
    const double inputs_ms = msSince(inputs_start);

    std::cout << "perfbench: setup done" << std::endl;
    if (args.setupOnly)
        return 0;

    const Clock::time_point cells_start = Clock::now();
    {
        obs::Span span("simulation");
        obs::PerfRegion perf("phase:simulation");
        eval.prefetch(cells);
    }
    const double cells_ms = msSince(cells_start);

    Json report_json = Json::object();
    Json timing_json = Json::object();
    for (const bench::Report *report : selected) {
        const Clock::time_point start = Clock::now();
        std::ostringstream text;
        {
            obs::Span span("report", report->name);
            obs::PerfRegion perf("report:" + report->name);
            report->run(ctx, text);
        }
        const double ms = msSince(start);
        Json &entry = report_json[report->name];
        entry = Json::object();
        entry["binary"] = report->binary;
        entry["ms"] = ms;
        entry["lines"] = linesJson(text.str());
        timing_json[report->name] = ms;
    }
    const double total_ms = msSince(total_start);

    registry
        .timer("pcap_bench_phase_wall_seconds", {{"phase", "inputs"}})
        .addSeconds(inputs_ms / 1e3);
    registry
        .timer("pcap_bench_phase_wall_seconds",
               {{"phase", "simulation"}})
        .addSeconds(cells_ms / 1e3);
    registry
        .timer("pcap_bench_phase_wall_seconds", {{"phase", "total"}})
        .addSeconds(total_ms / 1e3);
    if (perf_profiler)
        obs::recordPerfMetrics(*perf_profiler, registry);
    if (trace_recorder)
        trace_recorder->writeChromeTrace(profile_path);

    Json root = Json::object();
    root["schema"] = "pcap-bench-results-v1";
    root["seed"] = args.seed;
    root["jobs"] = args.jobs;
    Json &timings = root["timings_ms"];
    timings = Json::object();
    timings["inputs"] = inputs_ms;
    timings["simulation"] = cells_ms;
    timings["total"] = total_ms;
    timings["reports"] = std::move(timing_json);
    root["reports"] = std::move(report_json);
    if (fleet)
        root["fleet"] = std::move(fleet_json);
    if (perf_profiler)
        root["perf"] = obs::perfToJson(*perf_profiler);
    root["metrics"] = obs::metricsToJson(registry);
    if (!writeJson(root, results_path)) {
        error("cannot write " + results_path);
        return 1;
    }

    {
        std::ofstream os(prom_path);
        obs::writePrometheus(registry, os);
        if (!os) {
            error("cannot write " + prom_path);
            return 1;
        }
    }

    obs::RunManifest manifest;
    manifest.createdAtUtc = obs::isoTimestampUtc();
    manifest.gitDescribe = args.gitDescribe;
    for (int i = 0; i < argc; ++i) {
        if (i)
            manifest.command += ' ';
        manifest.command += argv[i];
    }
    manifest.seed = args.seed;
    manifest.jobs = args.jobs;
    manifest.maxExecutions = config.maxExecutions;
    if (fleet)
        manifest.fleetHosts = kFleetHosts;
    for (const std::string &app : eval.appNames()) {
        manifest.inputKeys.emplace_back(
            app, config.workloadKey(app).fileName());
    }
    manifest.phaseMs.emplace_back("inputs", inputs_ms);
    manifest.phaseMs.emplace_back("simulation", cells_ms);
    manifest.phaseMs.emplace_back("total", total_ms);
    for (const bench::Report *report : selected)
        manifest.reports.push_back(report->name);
    manifest.resultsPath = results_path;
    manifest.prometheusPath = prom_path;
    manifest.build = obs::collectBuildInfo();
    manifest.perfRequested = observed;
    if (perf_profiler) {
        manifest.perfBackend =
            obs::perfBackendName(perf_profiler->backend());
        manifest.perfDetail = perf_profiler->backendDetail();
    } else {
        const obs::PerfCapability cap = obs::PerfCounterGroup::probe();
        manifest.perfBackend = cap.hardware ? "hardware" : "software";
        manifest.perfDetail = cap.detail;
    }
    const std::string problem =
        obs::writeManifest(manifest, manifest_path);
    if (!problem.empty()) {
        error("manifest: " + problem);
        return 1;
    }
    return 0;
}
