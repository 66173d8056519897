#include "core/prediction_table.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/logging.hpp"

namespace pcap::core {

std::size_t
TableKeyHash::operator()(const TableKey &key) const
{
    // Mix the fields with distinct odd multipliers (Fibonacci-style
    // hashing); cheap and good enough for tables of O(100) entries.
    std::uint64_t h = key.signature;
    h = h * 0x9e3779b97f4a7c15ull +
        (static_cast<std::uint64_t>(key.historyBits) << 8 |
         key.historyLength);
    h = h * 0xbf58476d1ce4e5b9ull +
        static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(key.fd));
    return static_cast<std::size_t>(h ^ (h >> 32));
}

PredictionTable::PredictionTable(std::size_t capacity)
    : capacity_(capacity)
{
    // The paper's tables stay small (Table 3 tops out at 139
    // entries), but every table starts life with a burst of
    // trainings; pre-sizing the buckets keeps the hot lookup/train
    // path free of incremental rehashes. A load factor of 0.5
    // trades a few KB for shorter probe chains on the per-access
    // lookup path.
    entries_.max_load_factor(0.5f);
    entries_.reserve(capacity_ != 0 ? capacity_ : 256);
}

bool
PredictionTable::lookup(const TableKey &key)
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return false;
    ++it->second.hits;
    touch(it->second);
    return true;
}

bool
PredictionTable::contains(const TableKey &key) const
{
    return entries_.count(key) > 0;
}

bool
PredictionTable::train(const TableKey &key)
{
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        ++it->second.trainings;
        touch(it->second);
        return false;
    }
    if (capacity_ != 0 && entries_.size() >= capacity_)
        evictLru();
    Entry entry;
    entry.trainings = 1;
    touch(entry);
    entries_.emplace(key, entry);
    return true;
}

bool
PredictionTable::erase(const TableKey &key)
{
    return entries_.erase(key) > 0;
}

void
PredictionTable::evictLru()
{
    if (entries_.empty())
        panic("PredictionTable::evictLru: table empty");
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.lastUsed < victim->second.lastUsed)
            victim = it;
    }
    entries_.erase(victim);
    ++evictions_;
}

void
PredictionTable::clear()
{
    entries_.clear();
    tick_ = 0;
}

std::vector<TableKey>
PredictionTable::keys() const
{
    std::vector<TableKey> result;
    result.reserve(entries_.size());
    for (const auto &[key, entry] : entries_)
        result.push_back(key);
    return result;
}

const PredictionTable::Entry &
PredictionTable::entryOf(const TableKey &key) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        panic("PredictionTable::entryOf: key not present");
    return it->second;
}

void
PredictionTable::save(std::ostream &os) const
{
    // Oldest touch first: load() re-trains in file order, so the
    // reloaded table has the same recency order, and the bytes do
    // not depend on hash layout. Ticks are unique, so the order is
    // total.
    std::vector<const std::pair<const TableKey, Entry> *> order;
    order.reserve(entries_.size());
    for (const auto &item : entries_)
        order.push_back(&item);
    std::sort(order.begin(), order.end(),
              [](const auto *a, const auto *b) {
                  return a->second.lastUsed < b->second.lastUsed;
              });
    os << "# pcap-table v1 entries=" << entries_.size() << '\n';
    for (const auto *item : order) {
        const TableKey &key = item->first;
        os << key.signature << ' ' << key.historyBits << ' '
           << static_cast<unsigned>(key.historyLength) << ' '
           << key.fd << '\n';
    }
}

std::string
PredictionTable::load(std::istream &is)
{
    std::string line;
    if (!std::getline(is, line))
        return "empty table file";
    if (line.rfind("# pcap-table v1", 0) != 0)
        return "bad table header: " + line;

    clear();
    std::size_t line_number = 1;
    while (std::getline(is, line)) {
        ++line_number;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        TableKey key;
        unsigned history_length = 0;
        if (!(fields >> key.signature >> key.historyBits >>
              history_length >> key.fd) ||
            history_length > 255) {
            return "line " + std::to_string(line_number) +
                   ": malformed table entry";
        }
        key.historyLength = static_cast<std::uint8_t>(history_length);
        train(key);
    }
    return {};
}

} // namespace pcap::core
