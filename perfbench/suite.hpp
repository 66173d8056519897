/**
 * @file
 * The paper suite as bench_all wires it, for a seed of the
 * benchmark's choosing: engine options, the sweep-engine factory and
 * the default reports' cells. Shared by perfbench_workload and
 * perfbench_ledger so both measure the same configuration.
 */

#ifndef PCAP_PERFBENCH_SUITE_HPP
#define PCAP_PERFBENCH_SUITE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "reports.hpp"
#include "sim/experiment.hpp"

// The memo stores are optional: a change that deletes a memo layer
// which does not pay for itself must be measurable with this
// benchmark unedited.
#if __has_include("sim/cell_store.hpp")
#include "sim/cell_store.hpp"
#endif
#if __has_include("sim/trace_store.hpp")
#include "sim/trace_store.hpp"
#endif

namespace pcap::perfbench {

/** Give the engine a fresh instance of every memo store it has. */
template <typename Options>
void
attachMemoStores(Options &options)
{
    if constexpr (requires { options.traceStore; }) {
        using Store = typename decltype(options.traceStore)::element_type;
        options.traceStore = std::make_shared<Store>();
    }
    if constexpr (requires { options.cellStore; }) {
        using Store = typename decltype(options.cellStore)::element_type;
        options.cellStore = std::make_shared<Store>();
    }
}

/** Let the reports' sweep engines release the shared trace store's
 * entries, where both sides still have one. */
template <typename Context, typename Options>
void
shareTraceStore(Context &ctx, const Options &options)
{
    if constexpr (requires { ctx.traceStore = options.traceStore.get(); })
        ctx.traceStore = options.traceStore.get();
}

/** bench_all's engine options: no workload cache, metrics into
 * @p metrics (may be null), shared memo stores. */
inline sim::ParallelOptions
suiteOptions(unsigned jobs, obs::MetricsRegistry *metrics)
{
    sim::ParallelOptions options;
    options.jobs = jobs;
    options.metrics = metrics;
    attachMemoStores(options);
    return options;
}

/** Report context over @p eval whose sweep engines (ablation_cache)
 * share @p options and inherit the workload seed, where bench_all's
 * would use the fixed bench seed. @p options must outlive it. */
inline bench::ReportContext
suiteContext(sim::EvaluationApi &eval,
             const sim::ParallelOptions &options)
{
    const std::uint64_t seed = eval.config().seed;
    bench::ReportContext ctx{
        eval, [&options, seed](sim::ExperimentConfig config) {
            config.seed = seed;
            return std::unique_ptr<sim::EvaluationApi>(
                new sim::ParallelEvaluation(config, options));
        }};
    shareTraceStore(ctx, options);
    return ctx;
}

/** The default (not opt-in) reports, in bench_all order. */
inline std::vector<const bench::Report *>
defaultReports()
{
    std::vector<const bench::Report *> reports;
    for (const bench::Report &report : bench::allReports()) {
        if (!report.optIn)
            reports.push_back(&report);
    }
    return reports;
}

/** The union of @p reports' cells, duplicates included, as bench_all
 * prefetches them. */
inline std::vector<sim::Cell>
cellsOf(const std::vector<const bench::Report *> &reports)
{
    std::vector<sim::Cell> cells;
    for (const bench::Report *report : reports) {
        const std::vector<sim::Cell> more = report->cells();
        cells.insert(cells.end(), more.begin(), more.end());
    }
    return cells;
}

} // namespace pcap::perfbench

#endif // PCAP_PERFBENCH_SUITE_HPP
