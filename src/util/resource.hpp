/**
 * @file
 * Process resource introspection for status reporting: bench_all
 * logs peak RSS next to per-report wall time so memory regressions
 * show up in plain log output, not only in external profilers. Also
 * the one place that asks the allocator to give memory back.
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

/**
 * Hand the allocator's free pages back to the system (glibc's
 * malloc_trim; a no-op elsewhere). glibc keeps memory freed on a
 * worker thread in that thread's arena, so without this a large
 * release lowers nothing and later allocations raise the peak.
 */
void returnFreedMemory();

} // namespace pcap

#endif // PCAP_UTIL_RESOURCE_HPP
