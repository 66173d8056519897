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
    const std::size_t capacity = params_.capacityBlocks();
    if (capacity >= kNil)
        fatal("FileCache: capacity exceeds 32-bit slot indices");
    std::size_t cells = 2;
    indexShift_ = 63;
    while (cells < 2 * capacity) {
        cells *= 2;
        --indexShift_;
    }
    slots_.resize(capacity);
    index_.resize(cells);
    clear();
}

FileCache::BlockKey
FileCache::makeKey(FileId file, std::uint64_t block_index)
{
    if (block_index > kMetadataBlockIndex)
        panic("FileCache: block index exceeds 32 bits");
    return (static_cast<std::uint64_t>(file) << 32) | block_index;
}

std::size_t
FileCache::homeOf(BlockKey key) const
{
    // Fibonacci hashing: the multiply spreads file ids (high half)
    // and block indices (low half) into the top bits.
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                    indexShift_);
}

std::size_t
FileCache::findCell(BlockKey key) const
{
    const std::size_t mask = index_.size() - 1;
    std::size_t cell = homeOf(key);
    while (index_[cell] != kNil && slots_[index_[cell]].key != key)
        cell = (cell + 1) & mask;
    return cell;
}

void
FileCache::eraseCell(std::size_t cell)
{
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = cell;
    for (std::size_t next = (hole + 1) & mask; index_[next] != kNil;
         next = (next + 1) & mask) {
        // The entry at next may fill the hole only if the hole lies
        // on its probe path, i.e. between its home cell and next.
        const std::size_t home = homeOf(slots_[index_[next]].key);
        if (((next - home) & mask) >= ((next - hole) & mask)) {
            index_[hole] = index_[next];
            hole = next;
        }
    }
    index_[hole] = kNil;
}

void
FileCache::unlink(Slot slot)
{
    Block &block = slots_[slot];
    if (block.prev != kNil)
        slots_[block.prev].next = block.next;
    else
        head_ = block.next;
    if (block.next != kNil)
        slots_[block.next].prev = block.prev;
    else
        tail_ = block.prev;
}

void
FileCache::pushFront(Slot slot)
{
    Block &block = slots_[slot];
    block.prev = kNil;
    block.next = head_;
    if (head_ != kNil)
        slots_[head_].prev = slot;
    else
        tail_ = slot;
    head_ = slot;
}

void
FileCache::clear()
{
    std::fill(index_.begin(), index_.end(), kNil);
    for (std::size_t i = 0; i < slots_.size(); ++i)
        slots_[i].next = i + 1 < slots_.size() ? static_cast<Slot>(i + 1)
                                               : kNil;
    free_ = 0;
    head_ = kNil;
    tail_ = kNil;
    resident_ = 0;
    dirty_ = 0;
    nextFlush_ = params_.flushCheckPeriod;
}

void
FileCache::emitWriteback(TimeUs time, FileId file, std::uint32_t blocks,
                         std::vector<trace::DiskAccess> &out)
{
    trace::DiskAccess writeback;
    writeback.time = time;
    writeback.pid = kFlushDaemonPid;
    writeback.pc = kFlushDaemonPc;
    writeback.fd = -1;
    writeback.file = file;
    writeback.isWrite = true;
    writeback.blocks = blocks;
    out.push_back(writeback);
    stats_.writebackBlocks += blocks;
}

void
FileCache::evictOne(TimeUs time, std::vector<trace::DiskAccess> &out)
{
    if (tail_ == kNil)
        panic("FileCache::evictOne: cache empty");
    const Slot victim = tail_;
    const Block &block = slots_[victim];
    eraseCell(findCell(block.key));
    unlink(victim);
    slots_[victim].next = free_;
    free_ = victim;
    --resident_;
    ++stats_.evictions;
    if (block.dirty) {
        --dirty_;
        emitWriteback(time, fileOfKey(block.key), 1, out);
    }
}

bool
FileCache::touchBlock(BlockKey key, bool dirty, TimeUs time,
                      std::vector<trace::DiskAccess> &out)
{
    ++stats_.lookups;
    std::size_t cell = findCell(key);
    if (index_[cell] != kNil) {
        ++stats_.hits;
        const Slot slot = index_[cell];
        // Move to MRU position.
        if (slot != head_) {
            unlink(slot);
            pushFront(slot);
        }
        if (dirty) {
            // Re-dirtying refreshes the write-back timer, so data
            // being actively overwritten chases forward to the next
            // quiet period (the flush-timer behaviour the paper
            // notes was being tuned in the Linux community).
            Block &block = slots_[slot];
            if (!block.dirty)
                ++dirty_;
            block.dirty = true;
            block.dirtySince = time;
        }
        return true;
    }

    ++stats_.misses;
    if (resident_ >= slots_.size()) {
        evictOne(time, out);
        // The backward shift may have moved entries into the probe
        // run this key's search ended on.
        cell = findCell(key);
    }
    const Slot slot = free_;
    Block &block = slots_[slot];
    free_ = block.next;
    block.key = key;
    block.dirty = dirty;
    block.dirtySince = time;
    pushFront(slot);
    index_[cell] = slot;
    ++resident_;
    if (dirty)
        ++dirty_;
    return false;
}

std::uint32_t
FileCache::cleanAll(FileId &last_file)
{
    std::uint32_t cleaned = 0;
    for (Slot slot = head_; slot != kNil; slot = slots_[slot].next) {
        Block &block = slots_[slot];
        if (block.dirty) {
            block.dirty = false;
            ++cleaned;
            last_file = fileOfKey(block.key);
        }
    }
    dirty_ = 0;
    return cleaned;
}

void
FileCache::advanceTo(TimeUs time, std::vector<trace::DiskAccess> &out)
{
    while (nextFlush_ <= time) {
        const TimeUs flush_time = nextFlush_;
        nextFlush_ += params_.flushCheckPeriod;
        ++stats_.flushRuns;
        if (dirty_ == 0)
            continue;

        // Age-based write-back, like Linux pdflush: once any block
        // has been dirty for the full flush interval, the daemon
        // syncs the whole dirty set in one batch (coalescing avoids
        // back-to-back partial flushes).
        bool expired = false;
        for (Slot slot = head_; slot != kNil;
             slot = slots_[slot].next) {
            const Block &block = slots_[slot];
            if (block.dirty &&
                flush_time - block.dirtySince >=
                    params_.flushInterval) {
                expired = true;
                break;
            }
        }
        if (expired) {
            FileId last_file = 0;
            const std::uint32_t flushed = cleanAll(last_file);
            emitWriteback(flush_time, last_file, flushed, out);
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
    if (dirty_ == 0)
        return;
    FileId last_file = 0;
    const std::uint32_t flushed = cleanAll(last_file);
    emitWriteback(time, last_file, flushed, out);
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

    // The cache emits in time order; only same-time accesses of
    // different pids can be out of accessBefore order.
    if (!std::is_sorted(accesses.begin(), accesses.end(), accessBefore))
        std::stable_sort(accesses.begin(), accesses.end(),
                         accessBefore);
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
