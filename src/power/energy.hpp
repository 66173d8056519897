/**
 * @file
 * Energy ledger: accumulates joules into the four categories the
 * paper's Figure 8 reports — busy I/O, idle below breakeven, idle
 * above breakeven, and power-cycle (spin-down + spin-up) energy.
 */

#ifndef PCAP_POWER_ENERGY_HPP
#define PCAP_POWER_ENERGY_HPP

#include <array>
#include <string>

#include "obs/metrics.hpp"
#include "power/disk_params.hpp"
#include "util/types.hpp"

namespace pcap::power {

/** The four energy categories of Figure 8. */
enum class EnergyCategory {
    BusyIo,        ///< disk servicing requests
    IdleShort,     ///< spinning idle inside gaps <= breakeven
    IdleLong,      ///< spinning idle or standby inside gaps > breakeven
    PowerCycle,    ///< spin-down + spin-up transitions
};

/** Human-readable category name as used in Figure 8 legends. */
const char *energyCategoryName(EnergyCategory category);

/** The panic of add() and energyJ(), out of their inlined bodies. */
[[noreturn]] void panicEnergy(const char *message);

/**
 * Per-category energy totals for one simulated policy run.
 *
 * All values are joules. The ledger is policy-agnostic: the simulator
 * decides which category a joule belongs to and calls add().
 */
class EnergyLedger
{
  public:
    /** Add @p joules to @p category. Negative amounts panic. */
    void add(EnergyCategory category, double joules)
    {
        if (joules < 0.0) [[unlikely]]
            panicEnergy("EnergyLedger::add: negative energy");
        joules_[static_cast<std::size_t>(category)] += joules;
    }

    /** Energy accumulated in one category. */
    double get(EnergyCategory category) const
    {
        return joules_[static_cast<std::size_t>(category)];
    }

    /** Sum over all categories. */
    double total() const;

    /** This ledger's total as a fraction of @p baseline's total.
     * Returns 0 when the baseline is empty. */
    double normalizedTo(const EnergyLedger &baseline) const;

    /** Reset all categories to zero. */
    void clear();

    /** Merge another ledger into this one. */
    void merge(const EnergyLedger &other);

  private:
    std::array<double, 4> joules_{}; ///< indexed by EnergyCategory
};

/**
 * Helpers converting (power, duration) into joules. Durations are in
 * simulated microseconds.
 */
inline double
energyJ(double power_w, TimeUs duration)
{
    if (duration < 0) [[unlikely]]
        panicEnergy("energyJ: negative duration");
    return power_w * usToSeconds(duration);
}

/** Metric-friendly category slug ("busy_io", "idle_short", ...). */
const char *energyCategorySlug(EnergyCategory category);

/**
 * Add @p ledger's per-category joules to @p scope's
 * pcap_energy_joules{category=...} gauges (Figure 8 breakdown as a
 * metric).
 */
void recordLedgerMetrics(const EnergyLedger &ledger,
                         const obs::ScopedMetrics &scope);

} // namespace pcap::power

#endif // PCAP_POWER_ENERGY_HPP
