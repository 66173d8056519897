/**
 * @file
 * Trace explorer: generate an application's synthetic trace, push it
 * through the file cache, and inspect what the power manager will
 * actually see — event mix, per-process streams, the idle-period
 * length distribution (as an ASCII histogram around the wait-window
 * / breakeven / timeout thresholds), and cache statistics. Also
 * demonstrates saving the trace to disk as text.
 *
 *   ./trace_explorer [app] [execution] [--save DIR]
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cache/file_cache.hpp"
#include "sim/input.hpp"
#include "trace/io.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "workload/app_model.hpp"

using namespace pcap;

namespace {

void
printHistogram(const std::vector<double> &gaps)
{
    struct Bucket
    {
        const char *label;
        double lo, hi;
    };
    const Bucket buckets[] = {
        {"< 0.1 s (burst internal)", 0.0, 0.1},
        {"0.1 - 1 s (wait-window filters)", 0.1, 1.0},
        {"1 - 5.43 s (medium: aliasing zone)", 1.0, 5.43},
        {"5.43 - 15.43 s (TP cannot profit)", 5.43, 15.43},
        {"15.43 - 60 s (everyone profits)", 15.43, 60.0},
        {"> 60 s (long user absences)", 60.0, 1e18},
    };
    std::cout << "\ndisk idle-gap distribution (" << gaps.size()
              << " gaps):\n";
    for (const Bucket &bucket : buckets) {
        std::size_t hits = 0;
        for (double gap : gaps)
            hits += gap >= bucket.lo && gap < bucket.hi;
        const double fraction =
            gaps.empty() ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(gaps.size());
        const int bars = static_cast<int>(fraction * 50 + 0.5);
        std::cout << "  " << percentString(fraction, 1) << "  ";
        for (int i = 0; i < bars; ++i)
            std::cout << '#';
        std::cout << "  " << bucket.label << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string app = argc > 1 ? argv[1] : "mozilla";
    const int execution = argc > 2 ? std::atoi(argv[2]) : 0;
    std::string save_dir;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--save") == 0)
            save_dir = argv[i + 1];
    }

    const auto model = workload::makeApp(app);
    if (!model) {
        error("unknown application '" + app + "'");
        return 1;
    }

    Rng rng(42 ^ hashString(app));
    const trace::Trace trace =
        model->generate(execution, rng.fork(execution));
    std::cout << "application: " << app << " (execution "
              << execution << ")\n"
              << model->info().summary << "\n\n";

    // --- Raw trace statistics.
    std::map<trace::EventType, std::uint64_t> mix;
    for (const auto &event : trace.events())
        ++mix[event.type];
    TextTable events;
    events.setHeader({"event type", "count"});
    for (const auto &[type, count] : mix)
        events.addRow({trace::eventTypeName(type),
                       std::to_string(count)});
    events.addRow({"total", std::to_string(trace.size())});
    events.print(std::cout);

    std::cout << "\nduration: "
              << fixedString(usToSeconds(trace.endTime() -
                                         trace.startTime()),
                             1)
              << " s, processes:";
    for (Pid pid : trace.pids())
        std::cout << ' ' << pid << " ("
                  << trace.eventsOf(pid).size() << " events)";
    std::cout << "\n";

    // --- Through the file cache.
    const sim::ExecutionInput input =
        sim::ExecutionInput::fromTrace(trace, cache::CacheParams{});
    std::cout << "\nafter the 256 KB file cache: "
              << input.accesses.size() << " disk accesses ("
              << percentString(input.cacheStats.hitRatio())
              << " cache hit ratio, "
              << input.cacheStats.writebackBlocks
              << " write-back blocks)\n";

    std::vector<double> gaps;
    TimeUs prev = -1;
    for (const auto &access : input.accesses) {
        if (prev >= 0)
            gaps.push_back(usToSeconds(access.time - prev));
        prev = access.time;
    }
    printHistogram(gaps);

    std::cout << "\nidle periods long enough to save energy "
                 "(> 5.43 s): global "
              << input.countGlobalOpportunities(secondsUs(5.43))
              << ", local "
              << input.countLocalOpportunities(secondsUs(5.43))
              << "\n";

    // --- Optional: persist the trace.
    if (!save_dir.empty()) {
        const std::string path = save_dir + "/" + app + ".trace";
        const std::string error = trace::saveTraceFile(trace, path);
        if (!error.empty()) {
            pcap::error("save failed: " + error);
            return 1;
        }
        std::cout << "\nsaved " << path << "\n";
    }
    return 0;
}
