#include "sim/cell_store.hpp"

namespace pcap::sim {

GlobalOutcome
CellStore::outcome(const std::string &key,
                   const std::function<GlobalOutcome()> &compute)
{
    std::shared_ptr<Memo> memo;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &entry = cells_[key];
        if (!entry)
            entry = std::make_shared<Memo>();
        memo = entry;
    }
    bool mine = false;
    std::call_once(memo->once, [&] {
        memo->value = compute();
        mine = true;
        computed_.fetch_add(1, std::memory_order_relaxed);
    });
    if (!mine)
        hits_.fetch_add(1, std::memory_order_relaxed);
    return memo->value;
}

} // namespace pcap::sim
