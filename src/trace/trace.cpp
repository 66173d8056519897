#include "trace/trace.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace pcap::trace {

void
Trace::sortByTime()
{
    // Builders append one actor's events at a time, so a trace is a
    // few ascending runs. Merging adjacent runs stably keeps equal
    // events in append order, giving exactly std::stable_sort's
    // output without its n log n on a nearly sorted trace.
    std::vector<std::size_t> bounds{0};
    for (std::size_t i = 1; i < events_.size(); ++i) {
        if (events_[i] < events_[i - 1])
            bounds.push_back(i);
    }
    if (bounds.size() == 1)
        return;
    bounds.push_back(events_.size());

    const auto at = [this](std::size_t i) { return events_.begin() + i; };
    while (bounds.size() > 2) {
        // Merge runs pairwise; an odd last run waits for next pass.
        std::size_t kept = 1;
        for (std::size_t r = 0; r + 2 < bounds.size(); r += 2) {
            // Only the overlap of the two runs moves: the left run's
            // events not after the right run's first stay in place,
            // as do the right run's events not before the left run's
            // last.
            const auto mid = at(bounds[r + 1]);
            const auto first = std::upper_bound(at(bounds[r]), mid, *mid);
            const auto last =
                std::lower_bound(mid, at(bounds[r + 2]), *(mid - 1));
            std::inplace_merge(first, mid, last);
            bounds[kept++] = bounds[r + 2];
        }
        if (bounds.size() % 2 == 0)
            bounds[kept++] = bounds.back();
        bounds.resize(kept);
    }
}

std::vector<TraceEvent>
Trace::releaseEvents()
{
    std::vector<TraceEvent> events;
    events.swap(events_);
    return events;
}

std::size_t
Trace::ioCount() const
{
    std::size_t count = 0;
    for (const auto &event : events_) {
        if (isIoEvent(event.type))
            ++count;
    }
    return count;
}

std::vector<Pid>
Trace::pids() const
{
    std::set<Pid> seen;
    for (const auto &event : events_) {
        seen.insert(event.pid);
        if (event.type == EventType::Fork)
            seen.insert(static_cast<Pid>(event.fd));
    }
    return {seen.begin(), seen.end()};
}

std::vector<TraceEvent>
Trace::eventsOf(Pid pid) const
{
    std::vector<TraceEvent> result;
    for (const auto &event : events_) {
        if (event.pid == pid)
            result.push_back(event);
    }
    return result;
}

TimeUs
Trace::startTime() const
{
    return events_.empty() ? 0 : events_.front().time;
}

TimeUs
Trace::endTime() const
{
    return events_.empty() ? 0 : events_.back().time;
}

std::string
Trace::validate() const
{
    std::ostringstream error;

    TimeUs last_time = 0;
    bool first = true;
    // The initial process of the execution is the pid of the first
    // event; every other pid must be introduced by a Fork.
    std::set<Pid> live;
    std::set<Pid> exited;

    for (std::size_t i = 0; i < events_.size(); ++i) {
        const TraceEvent &event = events_[i];

        if (!first && event.time < last_time) {
            error << "event " << i << " out of order: " << event.time
                  << " < " << last_time;
            return error.str();
        }
        last_time = event.time;

        if (first) {
            live.insert(event.pid);
            first = false;
        }

        if (!live.count(event.pid)) {
            if (exited.count(event.pid)) {
                error << "event " << i << ": pid " << event.pid
                      << " acts after exit";
            } else {
                error << "event " << i << ": pid " << event.pid
                      << " acts before being forked";
            }
            return error.str();
        }

        switch (event.type) {
          case EventType::Fork: {
            const Pid child = static_cast<Pid>(event.fd);
            if (live.count(child) || exited.count(child)) {
                error << "event " << i << ": fork of existing pid "
                      << child;
                return error.str();
            }
            live.insert(child);
            break;
          }
          case EventType::Exit:
            live.erase(event.pid);
            exited.insert(event.pid);
            break;
          default:
            break;
        }
    }

    if (!events_.empty() && !live.empty()) {
        error << live.size() << " process(es) never exit";
        return error.str();
    }

    return {};
}

} // namespace pcap::trace
