/**
 * @file
 * bench_all — the whole evaluation suite in one process.
 *
 * Every report renders through one shared ParallelEvaluation: the
 * workload is generated once, every (app x policy x mode) simulation
 * cell is computed once — reports overlap heavily in the cells they
 * query — and cells fan out across a thread pool where cores exist. `--only NAME` renders
 * a single report (names from `--list`); `--jobs 1` runs every cell
 * on the calling thread.
 *
 * Output: the report text, plus per-phase wall-clock timings, a
 * machine-readable BENCH_RESULTS.json for tools/compare_bench.py and
 * the metric registry in Prometheus text (<json>.prom), the form
 * tools/metrics_diff.py reads.
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/alerts.hpp"
#include "obs/export.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/tracing.hpp"
#include "reports.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/resource.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace pcap;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** The process's peak resident set so far, in MiB with one
 * decimal. */
std::string
peakRssMib()
{
    return fixedString(
        static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0), 1);
}

void
usage(std::ostream &os)
{
    os << "usage: bench_all [options]\n"
          "  -j, --jobs N      worker threads (default: hardware "
          "cores)\n"
          "      --json PATH   results file (default: "
          "BENCH_RESULTS.json); the metric\n"
          "                    series go beside it to <stem>.prom "
          "and the run\n"
          "                    manifest to <stem>.manifest.json; "
          "'-' disables\n"
          "                    all three\n"
          "      --only NAMES  comma-separated report names to "
          "run\n"
          "                    (opt-in reports, e.g. idle_histogram, "
          "run only when named)\n"
          "      --report NAMES  alias of --only\n"
          "      --hosts N     fleet size for the opt-in fleet "
          "report\n"
          "                    (default: 128; see --report fleet)\n"
          "      --alerts PATH evaluate the pcap-alert-rules-v1 "
          "rules in\n"
          "                    PATH against the finished run; exit "
          "3 when a\n"
          "                    warn rule fires, 4 on critical\n"
          "      --drilldown-dir P  re-simulate MAD-flagged fleet "
          "outlier\n"
          "                    hosts with full instrumentation into "
          "directory\n"
          "                    P (requires --report fleet)\n"
          "      --provenance-dir P  record prediction provenance "
          "per policy\n"
          "                    cell into directory P: one record per "
          "idle\n"
          "                    period, binary (read with "
          "tools/pcap_explain)\n"
          "      --timeline-dir P  write a simulated-time timeline "
          "per cell\n"
          "                    into directory P (pcap-timeline-v1 "
          "JSON;\n"
          "                    see tools/pcap_timeline.py)\n"
          "      --trace-profile PATH  record wall-clock phase "
          "spans and\n"
          "                    write a Chrome trace-event profile "
          "to PATH\n"
          "                    (load in Perfetto / "
          "chrome://tracing)\n"
          "      --perf        profile the run with hardware "
          "counters\n"
          "                    (perf_event_open: cycles, "
          "instructions,\n"
          "                    cache/branch misses); emits a "
          "pcap-perf-v1\n"
          "                    block, pcap_perf_* metrics, and "
          "per-span IPC\n"
          "                    when combined with --trace-profile. "
          "Falls\n"
          "                    back to a software backend (thread "
          "CPU time,\n"
          "                    marked backend=\"software\") where "
          "perf is\n"
          "                    unavailable; PCAP_PERF_BACKEND="
          "software\n"
          "                    forces the fallback\n"
          "      --metrics-detail  export every per-application "
          "series\n"
          "                    (default: cell families summed over "
          "the app\n"
          "                    label; alerts see every series "
          "either way)\n"
          "      --log-level L debug|info|warn|error|silent "
          "(default: info)\n"
          "      --list        list report names and exit\n"
          "  -h, --help        this text\n";
}

/**
 * Parse @p text as a decimal integer in [@p lo, @p hi]. Digits only:
 * stoull accepts "-3" (wrapping it to a huge value) and leading
 * blanks. Anything else is a usage error: print "@p flag needs an
 * integer in @p range, got '<text>'" and exit 2.
 */
std::uint64_t
parseCount(const std::string &text, const char *flag,
           std::uint64_t lo, std::uint64_t hi, const char *range)
{
    std::size_t used = 0;
    unsigned long long parsed = 0;
    const bool digits =
        !text.empty() &&
        text.find_first_not_of("0123456789") == std::string::npos;
    if (digits) {
        try {
            parsed = std::stoull(text, &used);
        } catch (const std::exception &) {
            used = 0;
        }
    }
    if (!digits || used != text.size() || parsed < lo || parsed > hi) {
        error(std::string(flag) + " needs an integer in " + range +
              ", got '" + text + "'");
        std::exit(2);
    }
    return parsed;
}

/** "<stem>.json" -> "<stem><suffix>"; otherwise append @p suffix. */
std::string
derivedPath(const std::string &json_path, const std::string &suffix)
{
    constexpr char kExt[] = ".json";
    const std::size_t ext = sizeof(kExt) - 1;
    if (json_path.size() > ext &&
        json_path.compare(json_path.size() - ext, ext, kExt) == 0)
        return json_path.substr(0, json_path.size() - ext) + suffix;
    return json_path + suffix;
}

/**
 * Process-wide wall metrics owned by bench_all itself: per-phase
 * timings and the thread-pool counters. All names contain "wall" or
 * "thread_pool", so tools/metrics_diff.py ignores them by default.
 */
void
recordBenchMetrics(obs::MetricsRegistry &registry, double inputs_ms,
                   double cells_ms, double total_ms)
{
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

    const ThreadPoolStats pool = threadPoolStats();
    registry.counter("pcap_thread_pool_tasks_submitted_total")
        .inc(pool.tasksSubmitted);
    registry.counter("pcap_thread_pool_tasks_executed_total")
        .inc(pool.tasksExecuted);
    registry.gauge("pcap_thread_pool_task_wall_seconds")
        .set(static_cast<double>(pool.taskNanos) * 1e-9);
    registry.gauge("pcap_thread_pool_peak_queue_depth")
        .set(static_cast<double>(pool.peakQueueDepth));
    registry.gauge("pcap_thread_pool_workers")
        .set(static_cast<double>(pool.workers));
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

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = hardwareJobs();
    bool metrics_detail = false;
    std::string json_path = "BENCH_RESULTS.json";
    std::string provenance_dir;
    std::string timeline_dir;
    std::string trace_profile_path;
    std::vector<std::string> only;
    std::uint64_t fleet_hosts = 128;
    bool fleet_hosts_given = false;
    std::string alerts_path;
    std::string drilldown_dir;
    bool use_perf = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (++i >= argc) {
                error(std::string(flag) + " needs a value");
                std::exit(2);
            }
            return argv[i];
        };
        auto parseJobs = [](const std::string &text) {
            return static_cast<unsigned>(
                parseCount(text, "--jobs", 0, 4096, "[0, 4096]"));
        };
        if (arg == "-h" || arg == "--help") {
            usage(std::cout);
            return 0;
        } else if (arg == "--list") {
            for (const auto &report : bench::allReports())
                std::cout << report.name << "\n";
            return 0;
        } else if (arg == "-j" || arg == "--jobs") {
            jobs = parseJobs(value("--jobs"));
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
            jobs = parseJobs(arg.substr(2));
        } else if (arg == "--json") {
            json_path = value("--json");
        } else if (arg == "--provenance-dir") {
            provenance_dir = value("--provenance-dir");
        } else if (arg == "--timeline-dir") {
            timeline_dir = value("--timeline-dir");
        } else if (arg == "--trace-profile") {
            trace_profile_path = value("--trace-profile");
        } else if (arg == "--metrics-detail") {
            metrics_detail = true;
        } else if (arg == "--log-level") {
            const std::string name = value("--log-level");
            const auto level = logLevelFromName(name);
            if (!level) {
                error("--log-level needs one of debug|info|warn|"
                      "error|silent, got '" +
                      name + "'");
                return 2;
            }
            setLogLevel(*level);
        } else if (arg == "--only" || arg == "--report") {
            std::istringstream names(value(arg.c_str()));
            std::string name;
            const std::size_t before = only.size();
            while (std::getline(names, name, ','))
                if (!name.empty())
                    only.push_back(name);
            if (only.size() == before) {
                error(arg + " needs at least one report name "
                            "(see --list)");
                return 2;
            }
        } else if (arg == "--hosts") {
            // The bound only guards against typos; fleets are O(1)
            // memory anyway.
            fleet_hosts = parseCount(value("--hosts"), "--hosts", 1,
                                     100000000, "[1, 1e8]");
            fleet_hosts_given = true;
        } else if (arg == "--alerts") {
            alerts_path = value("--alerts");
        } else if (arg == "--drilldown-dir") {
            drilldown_dir = value("--drilldown-dir");
        } else if (arg == "--perf") {
            use_perf = true;
        } else {
            error("unknown option: " + arg);
            usage(std::cerr);
            return 2;
        }
    }

    obs::MetricsRegistry registry;

    // Alert rules load before any simulation runs: a malformed
    // rules file is a usage error, not a wasted benchmark.
    std::unique_ptr<obs::AlertEngine> alert_engine;
    if (!alerts_path.empty()) {
        obs::AlertRulesLoad load =
            obs::loadAlertRulesFile(alerts_path);
        if (!load.ok()) {
            error("--alerts: " + load.error);
            return 2;
        }
        alert_engine = std::make_unique<obs::AlertEngine>(
            std::move(load.rules));
        inform("alerts: " + std::to_string(
                                alert_engine->rules().size()) +
               " rules loaded from " + alerts_path);
    }

    // The span recorder (when requested) outlives every traced
    // scope, including those of pool workers, which are never
    // joined — so it is deliberately leaked.
    obs::TraceRecorder *trace_recorder = nullptr;
    if (!trace_profile_path.empty()) {
        trace_recorder = new obs::TraceRecorder();
        obs::setTraceRecorder(trace_recorder);
        obs::installThreadPoolTraceHook();
    }

    // Same lifetime discipline for the counter profiler: per-thread
    // groups may still be touched by winding-down pool threads.
    obs::PerfProfiler *perf_profiler = nullptr;
    if (use_perf) {
        perf_profiler = new obs::PerfProfiler();
        obs::setPerfProfiler(perf_profiler);
        inform(std::string("perf: ") +
               obs::perfBackendName(perf_profiler->backend()) +
               " backend (" + perf_profiler->backendDetail() + ")");
    }

    sim::ParallelOptions options;
    options.jobs = jobs;
    options.provenanceDir = provenance_dir;
    options.timelineDir = timeline_dir;
    options.metrics = &registry;
    options.metricsDetail = metrics_detail;

    sim::ParallelEvaluation eval(bench::standardConfig(), options);
    Json fleet_json;
    bench::ReportContext ctx{.eval = eval};
    ctx.fleet.hosts = fleet_hosts;
    ctx.fleet.jobs = options.jobs;
    ctx.fleet.metrics = options.metrics;
    ctx.fleet.alerts = alert_engine.get();
    ctx.fleet.drilldownDir = drilldown_dir;
    ctx.fleetJson = &fleet_json;

    std::vector<const bench::Report *> selected;
    for (const auto &report : bench::allReports()) {
        // Opt-in reports are skipped by the default selection and
        // must be named explicitly.
        bool wanted = only.empty() && !report.optIn;
        for (const std::string &name : only)
            wanted = wanted || name == report.name;
        if (wanted)
            selected.push_back(&report);
    }
    for (const std::string &name : only) {
        bool known = false;
        for (const bench::Report *report : selected)
            known = known || name == report->name;
        if (!known) {
            error("no report named '" + name + "' (see --list)");
            return 2;
        }
    }
    bool fleet_selected = false;
    for (const bench::Report *report : selected)
        fleet_selected = fleet_selected || report->name == "fleet";
    if (fleet_hosts_given && !fleet_selected)
        warn("--hosts only affects the fleet report "
             "(--report fleet)");
    if (!drilldown_dir.empty() && !fleet_selected)
        warn("--drilldown-dir only affects the fleet report "
             "(--report fleet)");

    const Clock::time_point total_start = Clock::now();

    // Phase 1: fan the union of simulation cells across the pool —
    // reports afterwards only format memoized results. Each app's
    // stream generates its own executions, so the inputs phase is
    // empty; it stays so the footer, the .prom and the manifest keep
    // their phases. A selection that queries no shared-engine cells
    // (e.g. `--report fleet`, which streams its own workload) skips
    // both.
    std::vector<sim::Cell> cells;
    for (const bench::Report *report : selected) {
        const std::vector<sim::Cell> report_cells = report->cells();
        cells.insert(cells.end(), report_cells.begin(),
                     report_cells.end());
    }

    const Clock::time_point inputs_start = Clock::now();
    if (!cells.empty()) {
        obs::Span span("inputs");
        obs::PerfRegion perf("phase:inputs");
        eval.prefetchInputs();
    }
    const double inputs_ms = msSince(inputs_start);

    const Clock::time_point cells_start = Clock::now();
    {
        obs::Span span("simulation");
        obs::PerfRegion perf("phase:simulation");
        eval.prefetch(cells);
    }
    const double cells_ms = msSince(cells_start);

    // Phase 2: render every report, recording its residual cost
    // (cells not covered by the prefetch, plus formatting).
    Json report_json = Json::object();
    Json timing_json = Json::object();
    for (const bench::Report *report : selected) {
        const Clock::time_point start = Clock::now();
        std::ostringstream text;
        {
            obs::Span span("report", report->name);
            obs::PerfRegion perf("report:" +
                                 std::string(report->name));
            report->run(ctx, text);
        }
        const double ms = msSince(start);
        inform("report " + report->name + ": " +
               fixedString(ms / 1e3, 3) + " s wall, peak rss " +
               peakRssMib() + " MiB");

        std::cout << text.str();
        Json &entry = report_json[report->name];
        entry = Json::object();
        entry["lines"] = linesJson(text.str());
        timing_json[report->name] = ms;
    }
    const double total_ms = msSince(total_start);

    std::cout << "\n== bench_all timings ==\n"
              << "jobs:             " << options.jobs << "\n"
              << "inputs phase:     " << fixedString(inputs_ms, 1)
              << " ms\n"
              << "simulation phase: " << fixedString(cells_ms, 1)
              << " ms (" << cells.size() << " cells)\n"
              << "total:            " << fixedString(total_ms, 1)
              << " ms\n"
              << "peak rss:         " << peakRssMib() << " MiB\n";

    recordBenchMetrics(registry, inputs_ms, cells_ms, total_ms);
    if (perf_profiler)
        obs::recordPerfMetrics(*perf_profiler, registry);
    if (trace_recorder) {
        registry.counter("pcap_trace_profile_events_total")
            .inc(trace_recorder->totalEvents());
        registry.counter("pcap_trace_profile_dropped_total")
            .inc(trace_recorder->totalDropped());
        registry.gauge("pcap_trace_profile_threads")
            .set(static_cast<double>(trace_recorder->threadCount()));
    }

    // Alerts settle after every metric above has landed in the
    // registry — the snapshot finalize() takes is the same surface
    // the .prom export writes.
    if (alert_engine) {
        alert_engine->finalize(registry);
        alert_engine->recordMetrics(registry);
        alert_engine->printSummary(std::cout);
    }

    if (trace_recorder) {
        trace_recorder->writeChromeTrace(trace_profile_path);
        std::cout << "trace profile: " << trace_profile_path << " ("
                  << trace_recorder->totalEvents() << " spans";
        if (trace_recorder->totalDropped())
            std::cout << ", " << trace_recorder->totalDropped()
                      << " dropped";
        std::cout << ")\n";
    }

    if (perf_profiler) {
        std::cout << "perf: "
                  << obs::perfBackendName(perf_profiler->backend())
                  << " backend, "
                  << perf_profiler->regions().size()
                  << " regions\n";
    }

    // Fired alerts drive the exit code (0 clean, 3 warn, 4
    // critical) so CI can gate on run health directly.
    const int exit_code = alert_engine ? alert_engine->exitCode() : 0;
    if (json_path == "-")
        return exit_code;

    // The results file, then its companions beside it:
    // <stem>.prom and <stem>.manifest.json.
    Json root = Json::object();
    root["schema"] = "pcap-bench-results-v1";
    root["seed"] = bench::kBenchSeed;
    root["jobs"] = options.jobs;
    Json &timings = root["timings_ms"];
    timings = Json::object();
    timings["inputs"] = inputs_ms;
    timings["simulation"] = cells_ms;
    timings["total"] = total_ms;
    timings["reports"] = std::move(timing_json);
    root["reports"] = std::move(report_json);
    if (fleet_selected)
        root["fleet"] = std::move(fleet_json);
    if (alert_engine)
        root["alerts"] = alert_engine->toJson();
    if (perf_profiler)
        root["perf"] = obs::perfToJson(*perf_profiler);
    {
        std::ofstream os(json_path);
        if (!os) {
            error("cannot write " + json_path);
            return 1;
        }
        root.dump(os);
        os << "\n";
        std::cout << "results: " << json_path << "\n";
    }

    const std::string metrics_path = derivedPath(json_path, ".prom");
    {
        std::ofstream os(metrics_path);
        if (!os) {
            error("cannot write " + metrics_path);
            return 1;
        }
        obs::writePrometheus(registry, os);
        if (!os) {
            error("write failed on " + metrics_path);
            return 1;
        }
        std::cout << "metrics: " << metrics_path << "\n";
    }

    obs::RunManifest manifest;
    manifest.createdAtUtc = obs::isoTimestampUtc();
    manifest.gitDescribe = obs::collectGitDescribe(".");
    for (int i = 0; i < argc; ++i) {
        if (i)
            manifest.command += ' ';
        manifest.command += argv[i];
    }
    manifest.seed = bench::kBenchSeed;
    manifest.jobs = options.jobs;
    manifest.maxExecutions = eval.config().maxExecutions;
    if (fleet_selected)
        manifest.fleetHosts = fleet_hosts;
    for (const std::string &app : eval.appNames()) {
        manifest.inputKeys.emplace_back(
            app, eval.config().workloadKey(app).fileName());
    }
    manifest.phaseMs.emplace_back("inputs", inputs_ms);
    manifest.phaseMs.emplace_back("simulation", cells_ms);
    manifest.phaseMs.emplace_back("total", total_ms);
    for (const bench::Report *report : selected)
        manifest.reports.push_back(report->name);
    manifest.resultsPath = json_path;
    manifest.prometheusPath = metrics_path;
    manifest.build = obs::collectBuildInfo();
    manifest.perfRequested = use_perf;
    if (perf_profiler) {
        manifest.perfBackend =
            obs::perfBackendName(perf_profiler->backend());
        manifest.perfDetail = perf_profiler->backendDetail();
    } else {
        // Record the capability even when --perf is off: the probe
        // is one open+close, and knowing whether counters *would*
        // have been available attributes a missing perf block to
        // choice rather than environment.
        const obs::PerfCapability cap = obs::PerfCounterGroup::probe();
        manifest.perfBackend = cap.hardware ? "hardware" : "software";
        manifest.perfDetail = cap.detail;
    }

    const std::string manifest_path =
        derivedPath(json_path, ".manifest.json");
    const std::string problem =
        obs::writeManifest(manifest, manifest_path);
    if (!problem.empty()) {
        error("manifest: " + problem);
        return 1;
    }
    std::cout << "manifest: " << manifest_path << "\n";
    return exit_code;
}
