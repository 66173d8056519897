/**
 * @file
 * File (page) cache simulator.
 *
 * Models the Linux file cache the way the paper's evaluation does
 * (Section 6): a 256 KB LRU cache in front of the disk, with a 30 s
 * timer between flushes of dirty data. Traced I/O operations are
 * filtered through the cache and only misses — plus dirty write-backs
 * — become disk accesses.
 */

#ifndef PCAP_CACHE_FILE_CACHE_HPP
#define PCAP_CACHE_FILE_CACHE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "trace/event.hpp"
#include "trace/trace.hpp"
#include "util/types.hpp"

namespace pcap::cache {

/** Configuration of the file cache. */
struct CacheParams
{
    std::size_t capacityBytes = 256 * 1024; ///< paper: 256 Kbytes
    std::uint32_t blockSize = 4096;         ///< Linux page size
    TimeUs flushInterval = secondsUs(30);   ///< paper: 30 s timer
    /** How often the flush daemon checks dirty ages (Linux pdflush
     * wakes every five seconds). */
    TimeUs flushCheckPeriod = secondsUs(5);

    /** Number of blocks the cache holds. */
    std::size_t capacityBlocks() const
    {
        return capacityBytes / blockSize;
    }

    /** Empty string when consistent, else a problem description. */
    std::string validate() const;
};

/** Aggregate statistics of one cache run. */
struct CacheStats
{
    std::uint64_t lookups = 0;    ///< block lookups performed
    std::uint64_t hits = 0;       ///< block lookups that hit
    std::uint64_t misses = 0;     ///< block lookups that missed
    std::uint64_t evictions = 0;  ///< blocks evicted
    std::uint64_t writebackBlocks = 0; ///< dirty blocks written back
    std::uint64_t flushRuns = 0;  ///< periodic flush activations

    bool operator==(const CacheStats &other) const = default;

    /** Hit ratio in [0,1]; 0 when there were no lookups. */
    double hitRatio() const
    {
        return lookups ? static_cast<double>(hits) /
                             static_cast<double>(lookups)
                       : 0.0;
    }

    /** Fold another run's statistics into this one. */
    void merge(const CacheStats &other);
};

/**
 * Add @p stats to @p scope's pcap_file_cache_* counters. The stats
 * travel with the cached workload inputs, so the numbers are
 * identical whether the inputs were generated or deserialized.
 */
void recordCacheMetrics(const CacheStats &stats,
                        const obs::ScopedMetrics &scope);

/**
 * LRU file cache with write-back and periodic dirty-data flushes.
 *
 * Reads miss per block and produce disk reads; a write to an
 * uncached block is a read-modify-write fetch and reaches the disk
 * too. Write hits dirty the block without disk traffic; dirty blocks
 * are written back by the flush daemon once their age exceeds the
 * flush interval (checked every flushCheckPeriod, like Linux
 * pdflush) or when they are evicted. Opens probe a per-file metadata
 * block through the same machinery, so a first open of a file costs
 * a disk access while repeated opens are absorbed.
 *
 * Feed events in non-decreasing time order via access(), calling
 * advanceTo() liberally so periodic flushes happen on schedule;
 * flushAll() drains the dirty set at the end of a trace.
 *
 * Storage is allocated once, at construction: a slot array of
 * capacityBlocks() blocks chained MRU→LRU by 32-bit indices, and an
 * open-addressing index (linear probing, backward-shift deletion)
 * from block key to slot. Hits, misses and evictions never touch
 * the heap, and clear() keeps the memory for the next execution.
 */
class FileCache
{
  public:
    explicit FileCache(const CacheParams &params);

    /**
     * Run the periodic flush daemon for all activations due up to
     * @p time, appending write-back accesses to @p out.
     */
    void advanceTo(TimeUs time, std::vector<trace::DiskAccess> &out);

    /**
     * Apply one traced event (advanceTo(event.time) is implied) and
     * append any generated disk accesses to @p out.
     */
    void access(const trace::TraceEvent &event,
                std::vector<trace::DiskAccess> &out);

    /** Write back everything still dirty at @p time. */
    void flushAll(TimeUs time, std::vector<trace::DiskAccess> &out);

    /** Statistics accumulated so far. */
    const CacheStats &stats() const { return stats_; }

    /** Number of blocks currently resident. */
    std::size_t residentBlocks() const { return resident_; }

    /** Number of resident blocks that are dirty. */
    std::size_t dirtyBlocks() const { return dirty_; }

    /** Drop all cached state (used between executions: cold cache). */
    void clear();

  private:
    /** Identity of one cached block: file id + block index. */
    using BlockKey = std::uint64_t;

    /** Slot index; kNil ends a chain and marks an empty index cell. */
    using Slot = std::uint32_t;
    static constexpr Slot kNil = ~Slot{0};

    struct Block
    {
        BlockKey key = 0;
        TimeUs dirtySince = 0; ///< when the block first became dirty
        Slot prev = kNil;      ///< towards the MRU end
        Slot next = kNil;      ///< towards the LRU end (free list link)
        bool dirty = false;
    };

    static BlockKey makeKey(FileId file, std::uint64_t block_index);

    /** Home cell of @p key in index_. */
    std::size_t homeOf(BlockKey key) const;

    /** index_ cell holding @p key, or the empty cell ending its
     * probe run. */
    std::size_t findCell(BlockKey key) const;

    /** Remove index_ cell @p cell, shifting later entries of its
     * probe run back so no tombstone is left. */
    void eraseCell(std::size_t cell);

    void unlink(Slot slot);
    void pushFront(Slot slot);

    /** Clean every dirty block, walking MRU→LRU; returns how many
     * were dirty and sets @p last_file to the LRU-most one's file. */
    std::uint32_t cleanAll(FileId &last_file);

    /** Append one flush-daemon write-back of @p blocks blocks. */
    void emitWriteback(TimeUs time, FileId file, std::uint32_t blocks,
                       std::vector<trace::DiskAccess> &out);

    /**
     * Look up one block; on miss, insert it (evicting as needed and
     * appending eviction write-backs to @p out). Returns true on hit.
     */
    bool touchBlock(BlockKey key, bool dirty, TimeUs time,
                    std::vector<trace::DiskAccess> &out);

    /** Evict the LRU block, appending a write-back if dirty. */
    void evictOne(TimeUs time, std::vector<trace::DiskAccess> &out);

    CacheParams params_;
    CacheStats stats_;
    std::vector<Block> slots_; ///< capacityBlocks() entries
    std::vector<Slot> index_;  ///< power of two >= 2 x capacity
    unsigned indexShift_ = 0;  ///< 64 - log2(index_.size())
    Slot head_ = kNil;         ///< most recently used
    Slot tail_ = kNil;         ///< least recently used
    Slot free_ = kNil;         ///< unused slots, linked by next
    std::size_t resident_ = 0;
    std::size_t dirty_ = 0;
    TimeUs nextFlush_;
};

/**
 * The disk access order filterTrace emits and every replay feeds: by
 * time, then by pid. filterTrace sorts stably, so accesses with equal
 * keys keep the order the cache emitted them in.
 */
inline bool
accessBefore(const trace::DiskAccess &a, const trace::DiskAccess &b)
{
    return a.time != b.time ? a.time < b.time : a.pid < b.pid;
}

/**
 * Convenience pipeline: filter a whole trace through a fresh cache,
 * returning the disk access stream in accessBefore order.
 * @p stats_out, when non-null, receives the cache statistics.
 */
std::vector<trace::DiskAccess>
filterTrace(const trace::Trace &trace, const CacheParams &params,
            CacheStats *stats_out = nullptr);

} // namespace pcap::cache

#endif // PCAP_CACHE_FILE_CACHE_HPP
