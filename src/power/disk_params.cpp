#include "power/disk_params.hpp"

#include <cmath>
#include <sstream>

namespace pcap::power {

double
DiskParams::derivedBreakevenSeconds() const
{
    const double cycle_energy = spinUpEnergyJ + shutdownEnergyJ;
    const double transitions =
        usToSeconds(spinUpTime + shutdownTime);
    // idle * T = cycleE + standby * (T - transitions)
    // =>  T = (cycleE - standby * transitions) / (idle - standby)
    return (cycle_energy - standbyPowerW * transitions) /
           (idlePowerW - standbyPowerW);
}

std::string
DiskParams::validate() const
{
    // Every disk model validates its parameters, so the valid path
    // formats nothing.
    if (busyPowerW <= 0 || idlePowerW <= 0 || standbyPowerW < 0)
        return "powers must be positive";
    if (standbyPowerW >= idlePowerW)
        return "standby power must be below idle power";
    if (idlePowerW > busyPowerW)
        return "idle power must not exceed busy power";
    if (spinUpTime <= 0 || shutdownTime <= 0 || breakevenTime <= 0 ||
        serviceTimePerBlock <= 0)
        return "times must be positive";
    if (lowPowerIdleW < standbyPowerW || lowPowerIdleW > idlePowerW ||
        lowPowerExitEnergyJ < 0 || lowPowerExitTime < 0)
        return "low-power idle mode must sit between standby and idle";
    const double derived = derivedBreakevenSeconds();
    const double quoted = usToSeconds(breakevenTime);
    if (std::abs(derived - quoted) > 0.05 * quoted) {
        std::ostringstream error;
        error << "quoted breakeven " << quoted
              << "s inconsistent with derived " << derived << "s";
        return error.str();
    }
    return {};
}

DiskParams
fujitsuMhf2043at()
{
    return DiskParams{};
}

} // namespace pcap::power
