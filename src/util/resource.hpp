/**
 * @file
 * Process resource introspection for status reporting: bench_all
 * logs peak RSS next to per-report wall time so memory regressions
 * show up in plain log output, not only in external profilers.
 */

#ifndef PCAP_UTIL_RESOURCE_HPP
#define PCAP_UTIL_RESOURCE_HPP

#include <cstdint>

namespace pcap {

/**
 * Peak resident set size of this process in bytes, from
 * getrusage(2); 0 when the platform cannot report it. Monotone over
 * the process lifetime (the kernel high-water mark never resets).
 */
std::uint64_t peakRssBytes();

} // namespace pcap

#endif // PCAP_UTIL_RESOURCE_HPP
