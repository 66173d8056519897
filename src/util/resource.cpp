#include "util/resource.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace pcap {

std::uint64_t
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    // macOS reports ru_maxrss in bytes.
    return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
    // Linux (and the BSDs) report kilobytes.
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
#endif
#else
    return 0;
#endif
}

} // namespace pcap
