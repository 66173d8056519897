/**
 * @file
 * Prediction-table tests: lookup/training semantics, entry metadata,
 * LRU replacement under a capacity bound, and persistence.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/prediction_table.hpp"

namespace pcap::core {
namespace {

TableKey
key(std::uint32_t signature, std::uint16_t history = 0,
    std::uint8_t history_length = 0, Fd fd = -1)
{
    TableKey k;
    k.signature = signature;
    k.historyBits = history;
    k.historyLength = history_length;
    k.fd = fd;
    return k;
}

TEST(TableKey, EqualityCoversAllFields)
{
    EXPECT_EQ(key(1), key(1));
    EXPECT_NE(key(1), key(2));
    EXPECT_NE(key(1, 0b1), key(1, 0b0));
    EXPECT_NE(key(1, 0, 3), key(1, 0, 4));
    EXPECT_NE(key(1, 0, 0, 3), key(1, 0, 0, 4));
}

TEST(TableKey, HashDiscriminates)
{
    TableKeyHash hash;
    EXPECT_NE(hash(key(1)), hash(key(2)));
    EXPECT_NE(hash(key(1, 1, 1)), hash(key(1, 2, 1)));
    EXPECT_EQ(hash(key(7, 3, 2, 5)), hash(key(7, 3, 2, 5)));
}

TEST(PredictionTable, LookupMissesUntilTrained)
{
    PredictionTable table;
    EXPECT_FALSE(table.lookup(key(42)));
    EXPECT_TRUE(table.train(key(42)));
    EXPECT_TRUE(table.lookup(key(42)));
    EXPECT_EQ(table.size(), 1u);
}

TEST(PredictionTable, RetrainingBumpsCountNotSize)
{
    PredictionTable table;
    EXPECT_TRUE(table.train(key(42)));
    EXPECT_FALSE(table.train(key(42)));
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(table.entryOf(key(42)).trainings, 2u);
}

TEST(PredictionTable, LookupCountsHits)
{
    PredictionTable table;
    table.train(key(42));
    table.lookup(key(42));
    table.lookup(key(42));
    table.lookup(key(7)); // miss: no entry touched
    EXPECT_EQ(table.entryOf(key(42)).hits, 2u);
}

TEST(PredictionTable, ContainsDoesNotMutate)
{
    PredictionTable table;
    table.train(key(42));
    EXPECT_TRUE(table.contains(key(42)));
    EXPECT_FALSE(table.contains(key(43)));
    EXPECT_EQ(table.entryOf(key(42)).hits, 0u);
}

TEST(PredictionTable, EraseRemoves)
{
    PredictionTable table;
    table.train(key(42));
    EXPECT_TRUE(table.erase(key(42)));
    EXPECT_FALSE(table.erase(key(42)));
    EXPECT_FALSE(table.contains(key(42)));
}

TEST(PredictionTable, CapacityEnforcedWithLru)
{
    PredictionTable table(2);
    table.train(key(1));
    table.train(key(2));
    table.lookup(key(1)); // key 2 becomes LRU
    table.train(key(3));  // evicts key 2
    EXPECT_EQ(table.size(), 2u);
    EXPECT_TRUE(table.contains(key(1)));
    EXPECT_FALSE(table.contains(key(2)));
    EXPECT_TRUE(table.contains(key(3)));
    EXPECT_EQ(table.evictions(), 1u);
}

TEST(PredictionTable, EachEvictionRemovesTheLruKey)
{
    PredictionTable table(2);
    table.train(key(1));
    table.train(key(2));
    EXPECT_EQ(table.evictions(), 0u); // capacity not yet exceeded
    table.lookup(key(1));             // key 2 becomes LRU
    table.train(key(3));              // evicts key 2
    EXPECT_FALSE(table.contains(key(2)));
    EXPECT_TRUE(table.contains(key(1)));
    EXPECT_TRUE(table.contains(key(3)));
    EXPECT_EQ(table.evictions(), 1u);

    table.train(key(4)); // key 1 is now LRU
    EXPECT_FALSE(table.contains(key(1)));
    EXPECT_TRUE(table.contains(key(3)));
    EXPECT_TRUE(table.contains(key(4)));
    EXPECT_EQ(table.evictions(), 2u);
}

TEST(PredictionTable, TrainingRefreshesLruOrder)
{
    PredictionTable table(2);
    table.train(key(1));
    table.train(key(2));
    table.train(key(1)); // refresh key 1
    table.train(key(3)); // should evict key 2
    EXPECT_TRUE(table.contains(key(1)));
    EXPECT_FALSE(table.contains(key(2)));
}

TEST(PredictionTable, UnboundedByDefault)
{
    PredictionTable table;
    for (std::uint32_t i = 0; i < 1000; ++i)
        table.train(key(i));
    EXPECT_EQ(table.size(), 1000u);
    EXPECT_EQ(table.evictions(), 0u);
    EXPECT_EQ(table.capacity(), 0u);
}

TEST(PredictionTable, ClearEmpties)
{
    PredictionTable table;
    table.train(key(1));
    table.clear();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_FALSE(table.contains(key(1)));
}

TEST(PredictionTable, KeysReturnsAllEntries)
{
    PredictionTable table;
    table.train(key(1));
    table.train(key(2, 5, 3, 7));
    const auto keys = table.keys();
    EXPECT_EQ(keys.size(), 2u);
}

TEST(PredictionTable, StorageBytesMatchPaperPacking)
{
    // Section 6.4.2: each entry encodes into one 4-byte word;
    // 139 entries -> 556 bytes.
    PredictionTable table;
    for (std::uint32_t i = 0; i < 139; ++i)
        table.train(key(i));
    EXPECT_EQ(table.storageBytes(), 556u);
}

TEST(PredictionTable, SaveLoadRoundTrip)
{
    PredictionTable table;
    table.train(key(0x12345678));
    table.train(key(42, 0b101101, 6, 3));
    table.train(key(7, 0, 0, -1));

    std::stringstream buffer;
    table.save(buffer);

    PredictionTable loaded;
    ASSERT_EQ(loaded.load(buffer), "");
    EXPECT_EQ(loaded.size(), 3u);
    EXPECT_TRUE(loaded.contains(key(0x12345678)));
    EXPECT_TRUE(loaded.contains(key(42, 0b101101, 6, 3)));
    EXPECT_TRUE(loaded.contains(key(7, 0, 0, -1)));
}

/** Train 40 keys, then re-touch every third one. */
void
trainAndTouch(PredictionTable &table)
{
    for (std::uint32_t i = 0; i < 40; ++i)
        table.train(key(i * 2654435761u, i & 0xff, 8, 3));
    for (std::uint32_t i = 0; i < 40; i += 3)
        table.lookup(key(i * 2654435761u, i & 0xff, 8, 3));
}

TEST(PredictionTable, SaveIsIndependentOfBucketCount)
{
    // Capacity 0 reserves 256 buckets, capacity 5000 reserves
    // thousands: the saved bytes must not follow hash layout.
    PredictionTable unbounded(0);
    PredictionTable large(5000);
    trainAndTouch(unbounded);
    trainAndTouch(large);
    std::ostringstream a, b;
    unbounded.save(a);
    large.save(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(PredictionTable, ReloadKeepsRecencyOrder)
{
    PredictionTable table;
    for (std::uint32_t i = 1; i <= 8; ++i)
        table.train(key(i));
    // Recency from oldest: 2 3 4 6 7 8 5 1.
    table.lookup(key(5));
    table.lookup(key(1));

    std::stringstream buffer;
    table.save(buffer);
    PredictionTable small(3);
    ASSERT_EQ(small.load(buffer), "");
    EXPECT_EQ(small.size(), 3u);
    EXPECT_TRUE(small.contains(key(8)));
    EXPECT_TRUE(small.contains(key(5)));
    EXPECT_TRUE(small.contains(key(1)));

    const std::uint64_t evictions = small.evictions();
    small.train(key(9)); // key 8 is the LRU of the three
    EXPECT_EQ(small.evictions(), evictions + 1);
    EXPECT_FALSE(small.contains(key(8)));
    EXPECT_TRUE(small.contains(key(5)));
    EXPECT_TRUE(small.contains(key(1)));
    EXPECT_TRUE(small.contains(key(9)));
}

TEST(PredictionTable, LoadReplacesExistingContents)
{
    PredictionTable source;
    source.train(key(1));
    std::stringstream buffer;
    source.save(buffer);

    PredictionTable loaded;
    loaded.train(key(99));
    ASSERT_EQ(loaded.load(buffer), "");
    EXPECT_FALSE(loaded.contains(key(99)));
    EXPECT_TRUE(loaded.contains(key(1)));
}

TEST(PredictionTable, LoadRejectsGarbage)
{
    PredictionTable table;
    std::stringstream empty;
    EXPECT_NE(table.load(empty), "");

    std::stringstream bad_header("nonsense\n");
    EXPECT_NE(table.load(bad_header), "");

    std::stringstream bad_entry("# pcap-table v1 entries=1\nx y\n");
    EXPECT_NE(table.load(bad_entry), "");
}

TEST(PredictionTableDeath, EntryOfMissingKeyPanics)
{
    PredictionTable table;
    EXPECT_DEATH(table.entryOf(key(1)), "not present");
}

} // namespace
} // namespace pcap::core
