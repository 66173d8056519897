/**
 * @file
 * The PCAP prediction table: the set of path signatures (optionally
 * augmented with idle-history bits and file descriptors, Section 4.1)
 * that were observed to precede idle periods longer than the
 * breakeven time.
 */

#ifndef PCAP_CORE_PREDICTION_TABLE_HPP
#define PCAP_CORE_PREDICTION_TABLE_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/types.hpp"

namespace pcap::core {

/**
 * Lookup key of one prediction-table entry.
 *
 * The base PCAP key is the 4-byte path signature alone. PCAPh adds
 * the idle-period history bit-vector (packed bits plus its current
 * length, so a warming-up history never aliases a full one), and
 * PCAPf adds the file descriptor of the triggering I/O. Unused
 * context fields hold fixed neutral values, so the same struct
 * serves all four variants.
 */
struct TableKey
{
    std::uint32_t signature = 0;
    std::uint16_t historyBits = 0;
    std::uint8_t historyLength = 0;
    Fd fd = -1;

    bool operator==(const TableKey &other) const = default;
};

/** Hash functor so TableKey can live in unordered containers. */
struct TableKeyHash
{
    std::size_t operator()(const TableKey &key) const;
};

/**
 * The prediction table of one application (shared by all its
 * processes, and by all executions when table reuse is enabled).
 *
 * Entries carry usage metadata so the table can be bounded with LRU
 * replacement (Section 4.2 suggests "a simple LRU mechanism" for
 * removing stale entries) and so reports can show training/hit
 * counts.
 */
class PredictionTable
{
  public:
    /** Per-entry bookkeeping. */
    struct Entry
    {
        std::uint64_t lastUsed = 0; ///< logical tick of last touch
        std::uint32_t trainings = 0; ///< long idles that (re)inserted
        std::uint32_t hits = 0;      ///< lookups that matched
    };

    /**
     * @param capacity Maximum number of entries; 0 means unbounded
     *        (the paper's tables stay tiny — Table 3 tops out at 139
     *        entries).
     */
    explicit PredictionTable(std::size_t capacity = 0);

    /**
     * Look up @p key, recording a hit and refreshing LRU order on
     * match. @return true when the signature is in the table, i.e.
     * PCAP predicts a long idle period.
     */
    bool lookup(const TableKey &key);

    /** Non-mutating membership probe (no stats, no LRU refresh). */
    bool contains(const TableKey &key) const;

    /**
     * Train on @p key after observing a long idle period: insert it
     * (evicting the LRU entry if at capacity), or bump its training
     * count when already present.
     * @return true when the key was newly inserted.
     */
    bool train(const TableKey &key);

    /** Remove one key. @return true when it was present. */
    bool erase(const TableKey &key);

    /** Number of entries. */
    std::size_t size() const { return entries_.size(); }

    /** Capacity (0 = unbounded). */
    std::size_t capacity() const { return capacity_; }

    /** Entries evicted by LRU replacement so far. */
    std::uint64_t evictions() const { return evictions_; }

    /** Discard all entries (PCAPa: no reuse between executions). */
    void clear();

    /** All keys currently stored, in unspecified order. */
    std::vector<TableKey> keys() const;

    /** Metadata of one entry; panics when absent. */
    const Entry &entryOf(const TableKey &key) const;

    /**
     * Bytes this table would occupy when persisted: the paper packs
     * each entry into one 4-byte word per context field in use
     * (Section 6.4.2: 139 entries -> 556 bytes for PCAPfh).
     */
    std::size_t storageBytes() const { return size() * 4; }

    /**
     * Serialize as text, one entry per line:
     * `signature historyBits historyLength fd`, least recently
     * used first.
     */
    void save(std::ostream &os) const;

    /**
     * Load entries from text produced by save(), replacing current
     * contents. @return empty string on success, else a parse error.
     */
    std::string load(std::istream &is);

  private:
    void touch(Entry &entry) { entry.lastUsed = ++tick_; }
    void evictLru();

    std::size_t capacity_;
    std::uint64_t tick_ = 0;
    std::uint64_t evictions_ = 0;
    std::unordered_map<TableKey, Entry, TableKeyHash> entries_;
};

} // namespace pcap::core

#endif // PCAP_CORE_PREDICTION_TABLE_HPP
