/**
 * @file
 * Shared raw-trace memoization across evaluations.
 *
 * Workload generation is a deterministic function of (seed, app,
 * maxExecutions) alone — the file-cache parameters only matter to
 * the filter pass that turns a trace into an ExecutionInput. An
 * ablation sweep over cache sizes therefore regenerated the exact
 * same traces once per configuration; the TraceStore splits the two
 * stages so the sweep generates each application's traces once and
 * re-runs only the (cheap) filter per configuration.
 *
 * The store is thread-safe and memoizes by content key, mirroring
 * ParallelEvaluation's call_once slot pattern: concurrent requests
 * for the same key generate once and share the resulting immutable
 * vector. Entries live as long as the store.
 */

#ifndef PCAP_SIM_TRACE_STORE_HPP
#define PCAP_SIM_TRACE_STORE_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cache/file_cache.hpp"
#include "obs/metrics.hpp"
#include "sim/input.hpp"
#include "trace/trace.hpp"

namespace pcap::sim {

/**
 * Generate every execution of @p app from @p seed, exactly as the
 * historical fused generation loop did: per-execution RNGs are
 * forked sequentially from the app RNG before the parallel
 * expansion, so results do not depend on @p jobs.
 *
 * @p maxExecutions caps the paper's execution count when positive
 * (0 runs the full Table 1 count). @p scope receives the
 * pcap_workload_generated_* counters (a disabled scope records
 * nothing).
 */
std::vector<trace::Trace>
generateTraces(std::uint64_t seed, const std::string &app,
               int maxExecutions, unsigned jobs,
               const obs::ScopedMetrics &scope);

/**
 * The cache-dependent half of input generation: filter each trace
 * through a cold file cache with @p params and extract its process
 * spans. Bit-identical to the fused path for equal traces.
 */
std::vector<ExecutionInput>
inputsFromTraces(const std::vector<trace::Trace> &traces,
                 const cache::CacheParams &params, unsigned jobs);

/**
 * Thread-safe memo of generated traces, shared between evaluations
 * (via ParallelOptions::traceStore). Traces are immutable once
 * published and never evicted, so the store may be queried
 * concurrently with ongoing generation.
 */
class TraceStore
{
  public:
    /**
     * The traces of (seed, app, maxExecutions), generating them on
     * first request. Later requests — any thread, any evaluation —
     * share the same vector, valid for the store's lifetime. Only
     * the generating call records workload metrics into its
     * @p scope.
     */
    const std::vector<trace::Trace> &
    traces(std::uint64_t seed, const std::string &app,
           int maxExecutions, unsigned jobs,
           const obs::ScopedMetrics &scope);

    /** Trace-set generations performed (one per distinct key). */
    std::uint64_t generatedSets() const
    {
        return generated_.load(std::memory_order_relaxed);
    }

  private:
    struct Memo
    {
        std::once_flag once;
        std::vector<trace::Trace> value;
    };

    std::mutex mutex_; ///< guards the map (not the memos)
    /** Map nodes never move, so memos are safe to use unlocked. */
    std::map<std::string, Memo> memos_;
    std::atomic<std::uint64_t> generated_{0};
};

} // namespace pcap::sim

#endif // PCAP_SIM_TRACE_STORE_HPP
