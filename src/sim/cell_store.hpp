/**
 * @file
 * Cross-engine memoization of replay cells.
 *
 * The TraceStore (trace_store.hpp) shares raw *traces* between
 * evaluations; the CellStore shares finished *results*. An ablation
 * sweep that instantiates several engines over an identical
 * (config, policy) pair replays the cell once and every other
 * engine gets a lookup.
 *
 * Keys are full canonical strings (configCacheKey + mode + app +
 * policyCacheKey), never hashes, so distinct configurations can
 * never collide into one slot. The store follows the call_once memo
 * idiom of TraceStore: thread-safe, compute-once, immutable values.
 *
 * A store hit skips the replay — and with it the cell's metric,
 * trace, provenance and timeline side effects. ParallelEvaluation
 * therefore bypasses the store whenever per-cell artifacts were
 * requested (traceDir/provenanceDir/timelineDir); plain metric
 * registries accept that a reused cell records its series only in
 * the engine that computed it.
 */

#ifndef PCAP_SIM_CELL_STORE_HPP
#define PCAP_SIM_CELL_STORE_HPP

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "sim/experiment.hpp"

namespace pcap::sim {

/** Thread-safe memo of finished simulation cells, shared between
 * evaluation engines (via ParallelOptions::cellStore). */
class CellStore
{
  public:
    /** The outcome of the cell at @p key: computed once, then
     * shared. */
    GlobalOutcome outcome(const std::string &key,
                          const std::function<GlobalOutcome()> &compute);

    /** Lookups satisfied without replaying. */
    std::uint64_t hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }

    /** Cells actually replayed (first request per key). */
    std::uint64_t computed() const
    {
        return computed_.load(std::memory_order_relaxed);
    }

  private:
    struct Memo
    {
        std::once_flag once;
        GlobalOutcome value;
    };

    std::mutex mutex_; ///< guards the map (not the memos)
    std::map<std::string, std::shared_ptr<Memo>> cells_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> computed_{0};
};

} // namespace pcap::sim

#endif // PCAP_SIM_CELL_STORE_HPP
