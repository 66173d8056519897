#include "power/energy.hpp"

#include "util/logging.hpp"

namespace pcap::power {

const char *
energyCategoryName(EnergyCategory category)
{
    switch (category) {
      case EnergyCategory::BusyIo: return "Busy I/O";
      case EnergyCategory::IdleShort: return "Idle < Breakeven";
      case EnergyCategory::IdleLong: return "Idle > Breakeven";
      case EnergyCategory::PowerCycle: return "Power cycle";
    }
    return "unknown";
}

double
EnergyLedger::total() const
{
    return joules_[0] + joules_[1] + joules_[2] + joules_[3];
}

double
EnergyLedger::normalizedTo(const EnergyLedger &baseline) const
{
    const double base = baseline.total();
    return base > 0.0 ? total() / base : 0.0;
}

void
EnergyLedger::clear()
{
    joules_ = {};
}

void
EnergyLedger::merge(const EnergyLedger &other)
{
    for (std::size_t i = 0; i < joules_.size(); ++i)
        joules_[i] += other.joules_[i];
}

void
panicEnergy(const char *message)
{
    panic(message);
}

const char *
energyCategorySlug(EnergyCategory category)
{
    switch (category) {
      case EnergyCategory::BusyIo: return "busy_io";
      case EnergyCategory::IdleShort: return "idle_short";
      case EnergyCategory::IdleLong: return "idle_long";
      case EnergyCategory::PowerCycle: return "power_cycle";
    }
    return "unknown";
}

void
recordLedgerMetrics(const EnergyLedger &ledger,
                    const obs::ScopedMetrics &scope)
{
    static constexpr EnergyCategory kCategories[] = {
        EnergyCategory::BusyIo,
        EnergyCategory::IdleShort,
        EnergyCategory::IdleLong,
        EnergyCategory::PowerCycle,
    };
    for (EnergyCategory category : kCategories) {
        scope
            .gauge("pcap_energy_joules",
                   {{"category", energyCategorySlug(category)}})
            .add(ledger.get(category));
    }
}

} // namespace pcap::power
