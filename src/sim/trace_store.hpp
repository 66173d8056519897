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
 * vector.
 *
 * Entries used to live for the store's whole lifetime; a sweep's
 * worth of raw traces stayed resident long after every evaluation
 * had filtered them into inputs. Retention scopes fix that: a sweep
 * opens a TraceStore::Retention around its prefetch, and when the
 * last open scope closes the store drops every published entry
 * (consumers still holding a shared_ptr keep their vector alive;
 * later requests simply regenerate). Resident bytes are tracked and
 * exported through the pcap_trace_store_bytes gauge.
 */

#ifndef PCAP_SIM_TRACE_STORE_HPP
#define PCAP_SIM_TRACE_STORE_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
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
 * published; callers hold them by shared_ptr so the store can be
 * queried concurrently with ongoing generation.
 */
class TraceStore
{
  public:
    /**
     * RAII retention scope. While any scope is open, published
     * entries stay resident; when the last one closes, every entry
     * is evicted. A store that never sees a scope keeps entries
     * forever (the pre-eviction behaviour — correct for the
     * standard engine, whose inputs are memoized above the store
     * anyway).
     */
    class Retention
    {
      public:
        explicit Retention(TraceStore &store) : store_(&store)
        {
            store_->retain();
        }
        Retention(const Retention &) = delete;
        Retention &operator=(const Retention &) = delete;
        ~Retention() { store_->release(); }

      private:
        TraceStore *store_;
    };

    /**
     * The traces of (seed, app, maxExecutions), generating them on
     * first request. Later requests — any thread, any evaluation —
     * share the same vector. Only the generating call records
     * workload metrics into its @p scope. A request after eviction
     * regenerates (deterministically, so results never change).
     */
    std::shared_ptr<const std::vector<trace::Trace>>
    traces(std::uint64_t seed, const std::string &app,
           int maxExecutions, unsigned jobs,
           const obs::ScopedMetrics &scope);

    /** Trace-set generations performed (one per distinct key;
     * regeneration after eviction counts again). */
    std::uint64_t generatedSets() const
    {
        return generated_.load(std::memory_order_relaxed);
    }

    /** Entries dropped by retention-scope expiry. */
    std::uint64_t evictedSets() const
    {
        return evicted_.load(std::memory_order_relaxed);
    }

    /** Approximate bytes of resident trace data (event payloads). */
    std::uint64_t bytesResident() const
    {
        return bytes_.load(std::memory_order_relaxed);
    }

    /**
     * Mirror bytesResident() into @p gauge on every publish/evict
     * (pcap_trace_store_bytes in bench_all); null detaches. The
     * gauge must outlive the store's last mutation.
     */
    void bindBytesGauge(obs::Gauge *gauge);

  private:
    struct Memo
    {
        std::once_flag once;
        std::shared_ptr<const std::vector<trace::Trace>> value;
        std::uint64_t bytes = 0;
        /** Publication handshake, guarded by the store mutex: only
         * ready entries are safe for release() to account/evict. */
        bool ready = false;
    };

    void retain();
    void release();

    /** Update bytes_ by @p delta and mirror into the bound gauge.
     * Callers hold mutex_. */
    void adjustBytes(std::int64_t delta);

    std::mutex mutex_; ///< guards the map (not the memos)
    std::map<std::string, std::shared_ptr<Memo>> memos_;
    int retentions_ = 0; ///< open Retention scopes (under mutex_)
    obs::Gauge *bytesGauge_ = nullptr; // under mutex_
    std::atomic<std::uint64_t> generated_{0};
    std::atomic<std::uint64_t> evicted_{0};
    std::atomic<std::uint64_t> bytes_{0};
};

} // namespace pcap::sim

#endif // PCAP_SIM_TRACE_STORE_HPP
