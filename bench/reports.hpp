/**
 * @file
 * The paper's tables and figures as reusable report functions.
 *
 * Every report renders through a sim::ParallelEvaluation: bench_all
 * passes one shared engine so the whole suite reuses a single
 * generated workload and memoized simulation cells
 * (`bench_all --only NAME` renders one report).
 *
 * Each report also enumerates the standard-config simulation cells
 * it will query, so bench_all can prefetch the union across the
 * thread pool before rendering.
 */

#ifndef PCAP_BENCH_REPORTS_HPP
#define PCAP_BENCH_REPORTS_HPP

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace pcap {
class Json;
}

namespace pcap::obs {
class AlertEngine;
}

namespace pcap::bench {

/** The fixed seed all benches share (numbers must be reproducible). */
constexpr std::uint64_t kBenchSeed = 42;

/** Standard evaluation: paper parameters, full execution counts. */
inline sim::ExperimentConfig
standardConfig()
{
    sim::ExperimentConfig config;
    config.seed = kBenchSeed;
    return config;
}

/** Average of per-application values (the paper averages across
 * applications, never pooling periods). */
double averageOf(const std::vector<double> &values);

/**
 * Builds an experiment engine for a non-standard config (the
 * file-cache ablation sweeps cache sizes, each a separate workload).
 */
using EvalFactory =
    std::function<std::unique_ptr<sim::ParallelEvaluation>(
        const sim::ExperimentConfig &)>;

/** Settings of the opt-in fleet report (see reportFleet). */
struct FleetSettings
{
    std::uint64_t hosts = 128; ///< --hosts
    std::uint64_t seed = kBenchSeed;
    unsigned jobs = 1; ///< host-cell sharding width
    obs::MetricsRegistry *metrics = nullptr;

    /** Alert engine fed the fleet distributions (--alerts). */
    obs::AlertEngine *alerts = nullptr;

    /** Outlier drill-down output directory (--drilldown-dir);
     * empty disables the instrumented re-simulation pass. */
    std::string drilldownDir;
};

/** Everything a report needs to render. */
struct ReportContext
{
    /** Engine configured with standardConfig(). */
    sim::ParallelEvaluation &eval;

    /** Factory for engines with other configs. */
    EvalFactory makeEval;

    /** Fleet-report knobs (defaults match the CI smoke run). */
    FleetSettings fleet{};

    /** When non-null, the fleet report fills this with its
     * machine-readable pcap-fleet-v1 block. */
    Json *fleetJson = nullptr;

    /**
     * The run's shared trace store, or null. Reports that build
     * sweep engines open a TraceStore::Retention on it so the raw
     * traces they share are dropped once the sweep finishes.
     */
    sim::TraceStore *traceStore = nullptr;
};

/** One table/figure of the evaluation suite. */
struct Report
{
    /** Short name for --only selection and JSON keys. */
    std::string name;

    /**
     * Name of the per-figure binary that rendered this report
     * before bench_all did; no target builds it any more. Kept only
     * because the benchmark harness (perfbench/) copies it into its
     * results file.
     */
    std::string binary;

    /** Render the report. */
    void (*run)(ReportContext &ctx, std::ostream &os);

    /** Standard-config cells the report queries, for prefetching.
     * Empty for reports that use other configs or none. */
    std::vector<sim::Cell> (*cells)();

    /** Opt-in reports run only when named via --only; they are not
     * part of the byte-compared reference suite. */
    bool optIn = false;
};

/** All reports, in the canonical EXPERIMENTS.md order. */
const std::vector<Report> &allReports();

} // namespace pcap::bench

#endif // PCAP_BENCH_REPORTS_HPP
