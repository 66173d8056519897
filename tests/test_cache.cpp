/**
 * @file
 * File-cache tests: LRU behaviour, write-allocate semantics,
 * age-based coalesced flushes, eviction write-backs, the
 * trace-filter pipeline, and a differential check of FileCache
 * against a straightforward list + hash-map LRU reference.
 */

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>

#include "cache/file_cache.hpp"
#include "trace/builder.hpp"
#include "util/rng.hpp"

namespace pcap::cache {
namespace {

trace::TraceEvent
readEvent(TimeUs time, FileId file, std::uint64_t offset,
          std::uint32_t size, Pid pid = 10, Address pc = 0x1000)
{
    trace::TraceEvent event;
    event.time = time;
    event.pid = pid;
    event.type = trace::EventType::Read;
    event.pc = pc;
    event.fd = 3;
    event.file = file;
    event.offset = offset;
    event.size = size;
    return event;
}

trace::TraceEvent
writeEvent(TimeUs time, FileId file, std::uint64_t offset,
           std::uint32_t size)
{
    trace::TraceEvent event = readEvent(time, file, offset, size);
    event.type = trace::EventType::Write;
    return event;
}

CacheParams
smallCache(std::size_t blocks = 4)
{
    CacheParams params;
    params.blockSize = 4096;
    params.capacityBytes = blocks * 4096;
    return params;
}

TEST(CacheParams, DefaultsMatchPaper)
{
    const CacheParams params;
    EXPECT_EQ(params.capacityBytes, 256u * 1024u);
    EXPECT_EQ(params.blockSize, 4096u);
    EXPECT_EQ(params.flushInterval, secondsUs(30));
    EXPECT_EQ(params.capacityBlocks(), 64u);
    EXPECT_EQ(params.validate(), "");
}

TEST(CacheParams, ValidateCatchesBadConfigs)
{
    CacheParams params;
    params.blockSize = 0;
    EXPECT_NE(params.validate(), "");

    params = CacheParams{};
    params.capacityBytes = 100;
    EXPECT_NE(params.validate(), "");

    params = CacheParams{};
    params.flushCheckPeriod = params.flushInterval + 1;
    EXPECT_NE(params.validate(), "");
}

TEST(FileCache, FirstReadMissesSecondHits)
{
    FileCache cache(smallCache());
    std::vector<trace::DiskAccess> out;

    cache.access(readEvent(100, 5, 0, 4096), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].blocks, 1u);
    EXPECT_FALSE(out[0].isWrite);
    EXPECT_EQ(out[0].pid, 10);
    EXPECT_EQ(out[0].pc, 0x1000u);

    out.clear();
    cache.access(readEvent(200, 5, 0, 4096), out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(FileCache, MultiBlockReadCountsEveryBlock)
{
    FileCache cache(smallCache(8));
    std::vector<trace::DiskAccess> out;
    cache.access(readEvent(100, 5, 0, 3 * 4096), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].blocks, 3u);
    EXPECT_EQ(cache.residentBlocks(), 3u);
}

TEST(FileCache, UnalignedAccessSpansBlocks)
{
    FileCache cache(smallCache(8));
    std::vector<trace::DiskAccess> out;
    // 2 bytes straddling a block boundary touch two blocks.
    cache.access(readEvent(100, 5, 4095, 2), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].blocks, 2u);
}

TEST(FileCache, LruEvictsLeastRecentlyUsed)
{
    FileCache cache(smallCache(2));
    std::vector<trace::DiskAccess> out;
    cache.access(readEvent(100, 1, 0, 4096), out);
    cache.access(readEvent(200, 2, 0, 4096), out);
    // Touch file 1 so file 2 becomes LRU.
    cache.access(readEvent(300, 1, 0, 4096), out);
    cache.access(readEvent(400, 3, 0, 4096), out); // evicts file 2

    out.clear();
    cache.access(readEvent(500, 1, 0, 4096), out);
    EXPECT_TRUE(out.empty()); // still resident
    cache.access(readEvent(600, 2, 0, 4096), out);
    EXPECT_EQ(out.size(), 1u); // was evicted
}

TEST(FileCache, NeverExceedsCapacity)
{
    FileCache cache(smallCache(4));
    std::vector<trace::DiskAccess> out;
    for (int i = 0; i < 100; ++i)
        cache.access(readEvent(100 * (i + 1), i, 0, 4096), out);
    EXPECT_EQ(cache.residentBlocks(), 4u);
    EXPECT_EQ(cache.stats().evictions, 96u);
}

TEST(FileCache, WriteMissFetchesFromDisk)
{
    FileCache cache(smallCache());
    std::vector<trace::DiskAccess> out;
    cache.access(writeEvent(100, 5, 0, 4096), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].isWrite);
    EXPECT_EQ(cache.dirtyBlocks(), 1u);
}

TEST(FileCache, WriteHitIsAbsorbed)
{
    FileCache cache(smallCache());
    std::vector<trace::DiskAccess> out;
    cache.access(readEvent(100, 5, 0, 4096), out);
    out.clear();
    cache.access(writeEvent(200, 5, 0, 4096), out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(cache.dirtyBlocks(), 1u);
}

TEST(FileCache, DirtyBlockFlushesAfterInterval)
{
    CacheParams params = smallCache();
    FileCache cache(params);
    std::vector<trace::DiskAccess> out;
    cache.access(writeEvent(secondsUs(1), 5, 0, 4096), out);
    out.clear();

    // Just before expiry: nothing flushed.
    cache.advanceTo(secondsUs(1) + params.flushInterval -
                        secondsUs(1),
                    out);
    EXPECT_TRUE(out.empty());

    // After expiry (next 5 s check): the write-back appears,
    // attributed to the flush daemon.
    cache.advanceTo(secondsUs(40), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].pid, kFlushDaemonPid);
    EXPECT_EQ(out[0].pc, kFlushDaemonPc);
    EXPECT_TRUE(out[0].isWrite);
    EXPECT_EQ(cache.dirtyBlocks(), 0u);
}

TEST(FileCache, RedirtyRefreshesWriteBackTimer)
{
    FileCache cache(smallCache());
    std::vector<trace::DiskAccess> out;
    cache.access(writeEvent(secondsUs(1), 5, 0, 4096), out);
    // Re-dirty at 20 s: the write-back clock restarts.
    cache.access(writeEvent(secondsUs(20), 5, 0, 4096), out);
    out.clear();
    cache.advanceTo(secondsUs(40), out);
    EXPECT_TRUE(out.empty()); // 40 - 20 < 30
    cache.advanceTo(secondsUs(55), out);
    EXPECT_EQ(out.size(), 1u);
}

TEST(FileCache, FlushCoalescesWholeDirtySet)
{
    FileCache cache(smallCache(8));
    std::vector<trace::DiskAccess> out;
    cache.access(writeEvent(secondsUs(1), 5, 0, 4096), out);
    cache.access(writeEvent(secondsUs(28), 6, 0, 4096), out);
    out.clear();
    // At ~31 s the first block expires; the second (only 3 s dirty)
    // must be written back in the same batch.
    cache.advanceTo(secondsUs(36), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].blocks, 2u);
    EXPECT_EQ(cache.dirtyBlocks(), 0u);
}

TEST(FileCache, EvictionWritesBackDirtyVictim)
{
    FileCache cache(smallCache(1));
    std::vector<trace::DiskAccess> out;
    cache.access(writeEvent(100, 5, 0, 4096), out);
    out.clear();
    cache.access(readEvent(200, 6, 0, 4096), out);
    // Two accesses: the eviction write-back of file 5 and the read
    // miss of file 6.
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].isWrite);
    EXPECT_EQ(out[0].pid, kFlushDaemonPid);
    EXPECT_EQ(out[0].file, 5u);
    EXPECT_FALSE(out[1].isWrite);
}

TEST(FileCache, OpenProbesMetadataOnce)
{
    FileCache cache(smallCache());
    std::vector<trace::DiskAccess> out;
    trace::TraceEvent open = readEvent(100, 5, 0, 0);
    open.type = trace::EventType::Open;
    cache.access(open, out);
    EXPECT_EQ(out.size(), 1u);
    out.clear();
    open.time = 200;
    cache.access(open, out);
    EXPECT_TRUE(out.empty()); // metadata now cached
}

TEST(FileCache, MetadataAndDataBlocksAreDistinct)
{
    FileCache cache(smallCache());
    std::vector<trace::DiskAccess> out;
    cache.access(readEvent(100, 5, 0, 4096), out);
    out.clear();
    trace::TraceEvent open = readEvent(200, 5, 0, 0);
    open.type = trace::EventType::Open;
    cache.access(open, out);
    EXPECT_EQ(out.size(), 1u); // inode probe still misses
}

TEST(FileCache, LifecycleEventsAreIgnored)
{
    FileCache cache(smallCache());
    std::vector<trace::DiskAccess> out;
    trace::TraceEvent fork = readEvent(100, 5, 0, 0);
    fork.type = trace::EventType::Fork;
    cache.access(fork, out);
    trace::TraceEvent close = readEvent(200, 5, 0, 0);
    close.type = trace::EventType::Close;
    cache.access(close, out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(cache.stats().lookups, 0u);
}

TEST(FileCache, FlushAllDrainsEverything)
{
    FileCache cache(smallCache(8));
    std::vector<trace::DiskAccess> out;
    cache.access(writeEvent(100, 5, 0, 2 * 4096), out);
    out.clear();
    cache.flushAll(secondsUs(2), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].blocks, 2u);
    EXPECT_EQ(cache.dirtyBlocks(), 0u);
}

TEST(FileCache, ClearColdStartsTheCache)
{
    FileCache cache(smallCache());
    std::vector<trace::DiskAccess> out;
    cache.access(readEvent(100, 5, 0, 4096), out);
    cache.clear();
    EXPECT_EQ(cache.residentBlocks(), 0u);
    out.clear();
    cache.access(readEvent(200, 5, 0, 4096), out);
    EXPECT_EQ(out.size(), 1u); // misses again
}

TEST(FilterTrace, ProducesSortedAccessesAndStats)
{
    trace::TraceBuilder builder("app", 0, 10);
    builder.io(secondsUs(1), 10, trace::EventType::Read, 0x1000, 3,
               5, 0, 8192);
    builder.io(secondsUs(2), 10, trace::EventType::Write, 0x2000, 3,
               5, 0, 4096);
    builder.io(secondsUs(3), 10, trace::EventType::Read, 0x3000, 3,
               6, 0, 4096);
    const trace::Trace trace = builder.finish(secondsUs(60));

    CacheStats stats;
    const auto accesses = filterTrace(trace, smallCache(8), &stats);

    for (std::size_t i = 1; i < accesses.size(); ++i)
        EXPECT_LE(accesses[i - 1].time, accesses[i].time);
    EXPECT_GT(stats.lookups, 0u);
    EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
    // The write at 2 s hits blocks read at 1 s (absorbed), then the
    // final flush at 60 s writes it back.
    EXPECT_GE(stats.writebackBlocks, 1u);
    EXPECT_TRUE(accesses.back().isWrite);
    EXPECT_EQ(accesses.back().pid, kFlushDaemonPid);
}

TEST(FilterTrace, HitRatioReflectsRereads)
{
    trace::TraceBuilder builder("app", 0, 10);
    for (int i = 0; i < 10; ++i) {
        builder.io(secondsUs(i + 1), 10, trace::EventType::Read,
                   0x1000, 3, 5, 0, 4096);
    }
    const trace::Trace trace = builder.finish(secondsUs(20));
    CacheStats stats;
    filterTrace(trace, smallCache(8), &stats);
    EXPECT_DOUBLE_EQ(stats.hitRatio(), 0.9);
}

/**
 * Reference LRU with FileCache's flush rules, kept deliberately
 * plain: a std::list in MRU→LRU order and a hash map from block key
 * to list position. The differential tests below require FileCache
 * to match it event for event.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheParams &params)
        : params_(params), nextFlush_(params.flushCheckPeriod)
    {
    }

    void advanceTo(TimeUs time, std::vector<trace::DiskAccess> &out)
    {
        while (nextFlush_ <= time) {
            const TimeUs flush_time = nextFlush_;
            nextFlush_ += params_.flushCheckPeriod;
            ++stats_.flushRuns;
            bool expired = false;
            for (const Block &block : lru_) {
                if (block.dirty &&
                    flush_time - block.dirtySince >=
                        params_.flushInterval)
                    expired = true;
            }
            if (expired)
                writeBackAll(flush_time, out);
        }
    }

    void access(const trace::TraceEvent &event,
                std::vector<trace::DiskAccess> &out)
    {
        advanceTo(event.time, out);
        const bool is_write = event.type == trace::EventType::Write;
        std::uint32_t missed = 0;
        if (event.type == trace::EventType::Read || is_write) {
            const std::uint64_t span = event.size == 0 ? 1 : event.size;
            for (std::uint64_t block = event.offset / params_.blockSize;
                 block <= (event.offset + span - 1) / params_.blockSize;
                 ++block) {
                if (!touch(key(event.file, block), is_write,
                           event.time, out))
                    ++missed;
            }
        } else if (event.type == trace::EventType::Open) {
            if (!touch(key(event.file, 0xffffffffull), false,
                       event.time, out))
                ++missed;
        } else {
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

    void flushAll(TimeUs time, std::vector<trace::DiskAccess> &out)
    {
        advanceTo(time, out);
        writeBackAll(time, out);
    }

    void clear()
    {
        lru_.clear();
        map_.clear();
        nextFlush_ = params_.flushCheckPeriod;
    }

    const CacheStats &stats() const { return stats_; }
    std::size_t residentBlocks() const { return map_.size(); }
    std::size_t dirtyBlocks() const
    {
        std::size_t count = 0;
        for (const Block &block : lru_)
            count += block.dirty ? 1 : 0;
        return count;
    }

  private:
    struct Block
    {
        std::uint64_t key;
        bool dirty;
        TimeUs dirtySince;
    };

    static std::uint64_t key(FileId file, std::uint64_t block)
    {
        return (static_cast<std::uint64_t>(file) << 32) | block;
    }

    static trace::DiskAccess writeback(TimeUs time, std::uint64_t key,
                                       std::uint32_t blocks)
    {
        trace::DiskAccess access;
        access.time = time;
        access.pid = kFlushDaemonPid;
        access.pc = kFlushDaemonPc;
        access.fd = -1;
        access.file = static_cast<FileId>(key >> 32);
        access.isWrite = true;
        access.blocks = blocks;
        return access;
    }

    /** Clean the whole dirty set as one write-back naming the
     * LRU-most dirty block's file. */
    void writeBackAll(TimeUs time, std::vector<trace::DiskAccess> &out)
    {
        std::uint32_t flushed = 0;
        std::uint64_t last_key = 0;
        for (Block &block : lru_) {
            if (block.dirty) {
                block.dirty = false;
                ++flushed;
                last_key = block.key;
            }
        }
        if (flushed > 0) {
            out.push_back(writeback(time, last_key, flushed));
            stats_.writebackBlocks += flushed;
        }
    }

    bool touch(std::uint64_t block_key, bool dirty, TimeUs time,
               std::vector<trace::DiskAccess> &out)
    {
        ++stats_.lookups;
        const auto it = map_.find(block_key);
        if (it != map_.end()) {
            ++stats_.hits;
            lru_.splice(lru_.begin(), lru_, it->second);
            if (dirty) {
                it->second->dirty = true;
                it->second->dirtySince = time;
            }
            return true;
        }
        ++stats_.misses;
        if (map_.size() >= params_.capacityBlocks()) {
            const Block victim = lru_.back();
            map_.erase(victim.key);
            lru_.pop_back();
            ++stats_.evictions;
            if (victim.dirty) {
                out.push_back(writeback(time, victim.key, 1));
                ++stats_.writebackBlocks;
            }
        }
        lru_.push_front(Block{block_key, dirty, time});
        map_[block_key] = lru_.begin();
        return false;
    }

    CacheParams params_;
    CacheStats stats_;
    std::list<Block> lru_;
    std::unordered_map<std::uint64_t, std::list<Block>::iterator> map_;
    TimeUs nextFlush_;
};

/** One random event over @p files, touching block indices below
 * @p blocks: multi-block and unaligned reads and writes, opens and
 * closes, separated mostly by short gaps and now and then by gaps
 * that cross several flush periods. */
trace::TraceEvent
randomEvent(Rng &rng, TimeUs &now, const std::vector<FileId> &files,
            std::uint64_t blocks)
{
    const double gap = rng.uniform01();
    if (gap < 0.05)
        now += secondsUs(rng.uniformReal(5.0, 70.0));
    else if (gap < 0.3)
        now += millisUs(rng.uniformReal(0.0, 2000.0));
    // else: same microsecond as the previous event.

    const FileId file = files[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(files.size()) - 1))];
    const std::uint64_t offset =
        static_cast<std::uint64_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(blocks) - 1)) *
            4096 +
        (rng.chance(0.3) ? static_cast<std::uint64_t>(
                               rng.uniformInt(1, 4095))
                         : 0);
    const std::uint32_t size =
        static_cast<std::uint32_t>(rng.uniformInt(0, 4 * 4096));

    trace::TraceEvent event = readEvent(now, file, offset, size);
    const double kind = rng.uniform01();
    if (kind < 0.45)
        event.type = trace::EventType::Read;
    else if (kind < 0.8)
        event.type = trace::EventType::Write;
    else if (kind < 0.92)
        event.type = trace::EventType::Open;
    else
        event.type = trace::EventType::Close;
    event.pid = static_cast<Pid>(10 + rng.uniformInt(0, 2));
    return event;
}

/** Drive a FileCache and the reference with the same events,
 * checking output, stats, residency and dirtiness after each. */
void
expectSameAsReference(std::size_t capacity, std::uint64_t seed,
                      const std::vector<FileId> &files,
                      std::uint64_t blocks, int events)
{
    const CacheParams params = smallCache(capacity);
    FileCache cache(params);
    ReferenceCache reference(params);
    Rng rng(seed);
    TimeUs now = 0;
    std::vector<trace::DiskAccess> got;
    std::vector<trace::DiskAccess> want;

    const auto check = [&](int step) {
        ASSERT_EQ(got, want) << "capacity " << capacity << " seed "
                             << seed << " step " << step;
        got.clear();
        want.clear();
        ASSERT_EQ(cache.stats(), reference.stats()) << step;
        ASSERT_EQ(cache.residentBlocks(), reference.residentBlocks())
            << step;
        ASSERT_EQ(cache.dirtyBlocks(), reference.dirtyBlocks())
            << step;
    };

    for (int round = 0; round < 2; ++round) {
        // The second round reuses the cache after clear().
        for (int step = 0; step < events; ++step) {
            if (rng.chance(0.02)) {
                now += secondsUs(rng.uniformReal(0.0, 20.0));
                cache.advanceTo(now, got);
                reference.advanceTo(now, want);
            } else {
                const trace::TraceEvent event =
                    randomEvent(rng, now, files, blocks);
                cache.access(event, got);
                reference.access(event, want);
            }
            check(step);
            if (testing::Test::HasFatalFailure())
                return;
        }
        now += secondsUs(1.0);
        cache.flushAll(now, got);
        reference.flushAll(now, want);
        check(events);
        if (testing::Test::HasFatalFailure())
            return;
        cache.clear();
        reference.clear();
        now = 0;
        ASSERT_EQ(cache.residentBlocks(), 0u);
        ASSERT_EQ(cache.dirtyBlocks(), 0u);
    }
}

TEST(FileCacheDifferential, MatchesReferenceLruAtEveryCapacity)
{
    const std::vector<FileId> files = {1, 2, 3, 7, 42};
    for (const std::size_t capacity : {1u, 2u, 3u, 64u, 1024u}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            // Block ranges around the capacity give a mix of hits,
            // misses and evictions.
            expectSameAsReference(capacity, seed * 7919 + capacity,
                                  files, capacity / 2 + 3, 3000);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(FileCacheDifferential, CollidingKeysChurnThroughTheIndex)
{
    // File ids that differ only in high bits and dense low block
    // indices: many keys share their low bits, so probe runs grow
    // long and deletes shift entries across the index's end.
    const std::vector<FileId> files = {1u << 8, 1u << 16, 1u << 24,
                                       (1u << 16) | (1u << 24), 0};
    for (const std::size_t capacity : {2u, 3u, 64u, 1024u}) {
        expectSameAsReference(capacity, 99 + capacity, files,
                              2 * capacity + 1, 6000);
        if (HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace pcap::cache
