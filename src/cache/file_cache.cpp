#include "cache/file_cache.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace pcap::cache {

namespace {

/** Block index used for a file's metadata (inode) probe on open(). */
constexpr std::uint64_t kMetadataBlockIndex = 0xffffffffull;

FileId
fileOfKey(std::uint64_t key)
{
    return static_cast<FileId>(key >> 32);
}

} // namespace

std::string
CacheParams::validate() const
{
    if (blockSize == 0)
        return "blockSize must be positive";
    if (capacityBytes < blockSize)
        return "capacity smaller than one block";
    if (flushInterval <= 0)
        return "flushInterval must be positive";
    if (flushCheckPeriod <= 0 || flushCheckPeriod > flushInterval)
        return "flushCheckPeriod must be in (0, flushInterval]";
    return {};
}

FileCache::FileCache(const CacheParams &params)
    : params_(params), nextFlush_(params.flushCheckPeriod)
{
    const std::string problem = params_.validate();
    if (!problem.empty())
        fatal("FileCache: bad parameters: " + problem);
}

FileCache::BlockKey
FileCache::makeKey(FileId file, std::uint64_t block_index)
{
    if (block_index > kMetadataBlockIndex)
        panic("FileCache: block index exceeds 32 bits");
    return (static_cast<std::uint64_t>(file) << 32) | block_index;
}

std::size_t
FileCache::dirtyBlocks() const
{
    std::size_t count = 0;
    for (const auto &block : lru_) {
        if (block.dirty)
            ++count;
    }
    return count;
}

void
FileCache::clear()
{
    lru_.clear();
    map_.clear();
    nextFlush_ = params_.flushCheckPeriod;
}

void
FileCache::evictOne(TimeUs time, std::vector<trace::DiskAccess> &out)
{
    if (lru_.empty())
        panic("FileCache::evictOne: cache empty");
    const Block victim = lru_.back();
    map_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
    if (victim.dirty) {
        trace::DiskAccess writeback;
        writeback.time = time;
        writeback.pid = kFlushDaemonPid;
        writeback.pc = kFlushDaemonPc;
        writeback.fd = -1;
        writeback.file = fileOfKey(victim.key);
        writeback.isWrite = true;
        writeback.blocks = 1;
        out.push_back(writeback);
        ++stats_.writebackBlocks;
    }
}

bool
FileCache::touchBlock(BlockKey key, bool dirty, TimeUs time,
                      std::vector<trace::DiskAccess> &out)
{
    ++stats_.lookups;
    auto it = map_.find(key);
    if (it != map_.end()) {
        ++stats_.hits;
        // Move to MRU position.
        lru_.splice(lru_.begin(), lru_, it->second);
        if (dirty) {
            // Re-dirtying refreshes the write-back timer, so data
            // being actively overwritten chases forward to the next
            // quiet period (the flush-timer behaviour the paper
            // notes was being tuned in the Linux community).
            it->second->dirty = true;
            it->second->dirtySince = time;
        }
        return true;
    }

    ++stats_.misses;
    while (map_.size() >= params_.capacityBlocks())
        evictOne(time, out);
    lru_.push_front(Block{key, dirty, time});
    map_[key] = lru_.begin();
    return false;
}

void
FileCache::advanceTo(TimeUs time, std::vector<trace::DiskAccess> &out)
{
    while (nextFlush_ <= time) {
        const TimeUs flush_time = nextFlush_;
        nextFlush_ += params_.flushCheckPeriod;
        ++stats_.flushRuns;

        // Age-based write-back, like Linux pdflush: once any block
        // has been dirty for the full flush interval, the daemon
        // syncs the whole dirty set in one batch (coalescing avoids
        // back-to-back partial flushes).
        bool expired = false;
        for (const auto &block : lru_) {
            if (block.dirty &&
                flush_time - block.dirtySince >=
                    params_.flushInterval) {
                expired = true;
                break;
            }
        }
        std::uint32_t flushed = 0;
        FileId any_file = 0;
        if (expired) {
            for (auto &block : lru_) {
                if (block.dirty) {
                    block.dirty = false;
                    ++flushed;
                    any_file = fileOfKey(block.key);
                }
            }
        }
        if (flushed > 0) {
            trace::DiskAccess writeback;
            writeback.time = flush_time;
            writeback.pid = kFlushDaemonPid;
            writeback.pc = kFlushDaemonPc;
            writeback.fd = -1;
            writeback.file = any_file;
            writeback.isWrite = true;
            writeback.blocks = flushed;
            out.push_back(writeback);
            stats_.writebackBlocks += flushed;
        }
    }
}

void
FileCache::access(const trace::TraceEvent &event,
                  std::vector<trace::DiskAccess> &out)
{
    advanceTo(event.time, out);

    std::uint32_t missed = 0;
    const bool is_write = event.type == trace::EventType::Write;

    switch (event.type) {
      case trace::EventType::Read:
      case trace::EventType::Write: {
        const std::uint64_t first = event.offset / params_.blockSize;
        const std::uint64_t span = event.size == 0 ? 1 : event.size;
        const std::uint64_t last =
            (event.offset + span - 1) / params_.blockSize;
        for (std::uint64_t block = first; block <= last; ++block) {
            const bool hit = touchBlock(makeKey(event.file, block),
                                        is_write, event.time, out);
            // A miss reaches the disk for reads and for writes alike
            // (a write to an uncached block is a read-modify-write
            // fetch); a write *hit* is absorbed and written back
            // later by the flush daemon.
            if (!hit)
                ++missed;
        }
        break;
      }
      case trace::EventType::Open: {
        const bool hit =
            touchBlock(makeKey(event.file, kMetadataBlockIndex),
                       false, event.time, out);
        if (!hit)
            ++missed;
        break;
      }
      case trace::EventType::Close:
      case trace::EventType::Fork:
      case trace::EventType::Exit:
        return;
    }

    if (missed > 0) {
        trace::DiskAccess access;
        access.time = event.time;
        access.pid = event.pid;
        access.pc = event.pc;
        access.fd = event.fd;
        access.file = event.file;
        access.isWrite = is_write;
        access.blocks = missed;
        out.push_back(access);
    }
}

void
FileCache::flushAll(TimeUs time, std::vector<trace::DiskAccess> &out)
{
    advanceTo(time, out);
    std::uint32_t flushed = 0;
    FileId any_file = 0;
    for (auto &block : lru_) {
        if (block.dirty) {
            block.dirty = false;
            ++flushed;
            any_file = fileOfKey(block.key);
        }
    }
    if (flushed > 0) {
        trace::DiskAccess writeback;
        writeback.time = time;
        writeback.pid = kFlushDaemonPid;
        writeback.pc = kFlushDaemonPc;
        writeback.fd = -1;
        writeback.file = any_file;
        writeback.isWrite = true;
        writeback.blocks = flushed;
        out.push_back(writeback);
        stats_.writebackBlocks += flushed;
    }
}

std::vector<trace::DiskAccess>
filterTrace(const trace::Trace &trace, const CacheParams &params,
            CacheStats *stats_out)
{
    FileCache cache(params);
    std::vector<trace::DiskAccess> accesses;
    for (const auto &event : trace.events())
        cache.access(event, accesses);
    cache.flushAll(trace.endTime(), accesses);

    std::stable_sort(accesses.begin(), accesses.end(), accessBefore);
    if (stats_out)
        *stats_out = cache.stats();
    return accesses;
}

void
CacheStats::merge(const CacheStats &other)
{
    lookups += other.lookups;
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    writebackBlocks += other.writebackBlocks;
    flushRuns += other.flushRuns;
}

void
recordCacheMetrics(const CacheStats &stats,
                   const obs::ScopedMetrics &scope)
{
    scope.counter("pcap_file_cache_lookups_total").inc(stats.lookups);
    scope.counter("pcap_file_cache_hits_total").inc(stats.hits);
    scope.counter("pcap_file_cache_misses_total").inc(stats.misses);
    scope.counter("pcap_file_cache_evictions_total")
        .inc(stats.evictions);
    scope.counter("pcap_file_cache_writeback_blocks_total")
        .inc(stats.writebackBlocks);
    scope.counter("pcap_file_cache_flush_runs_total")
        .inc(stats.flushRuns);
}

} // namespace pcap::cache
