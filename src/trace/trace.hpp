/**
 * @file
 * Trace container: all the events of one execution of one
 * application, plus metadata and integrity checks.
 */

#ifndef PCAP_TRACE_TRACE_HPP
#define PCAP_TRACE_TRACE_HPP

#include <string>
#include <vector>

#include "trace/event.hpp"
#include "util/types.hpp"

namespace pcap::trace {

/**
 * The events of a single execution of an application, time-sorted.
 *
 * The paper traced each application separately, producing an
 * independent trace per application; each application was executed
 * many times (Table 1), so a full workload is a vector of Trace
 * objects per application.
 */
class Trace
{
  public:
    Trace() = default;

    /** @param app Application name. @param execution Execution index. */
    Trace(std::string app, int execution)
        : app_(std::move(app)), execution_(execution)
    {}

    /**
     * Adopt @p events as the trace's events, as they are: a caller
     * that reuses an earlier trace's storage (releaseEvents()) clears
     * it first.
     */
    Trace(std::string app, int execution,
          std::vector<TraceEvent> events)
        : app_(std::move(app)), execution_(execution),
          events_(std::move(events))
    {}

    /** Application this trace belongs to. */
    const std::string &app() const { return app_; }

    /** Which execution of the application this trace records. */
    int execution() const { return execution_; }

    /** Append an event. Events may be appended out of order; call
     * sortByTime() once after building. */
    void append(const TraceEvent &event) { events_.push_back(event); }

    /**
     * Stable-sort events by (time, pid, type): a stable merge of the
     * ascending runs, so an already sorted trace costs one pass.
     */
    void sortByTime();

    /** All events, time-sorted if sortByTime() was called. */
    const std::vector<TraceEvent> &events() const { return events_; }

    /**
     * Move the event storage out, leaving the trace empty. Handing it
     * to a later trace keeps its capacity, so a stream of traces
     * reallocates only when one outgrows every earlier one.
     */
    std::vector<TraceEvent> releaseEvents();

    /** Number of events of any type. */
    std::size_t size() const { return events_.size(); }

    /** True when no events have been recorded. */
    bool empty() const { return events_.empty(); }

    /** Number of I/O events (read/write/open). */
    std::size_t ioCount() const;

    /** Distinct pids that issued any event. */
    std::vector<Pid> pids() const;

    /** Events belonging to one pid, preserving order. */
    std::vector<TraceEvent> eventsOf(Pid pid) const;

    /** Time of the first event (0 when empty). */
    TimeUs startTime() const;

    /** Time of the last event (0 when empty). */
    TimeUs endTime() const;

    /**
     * Validate structural invariants: events sorted by time, every
     * I/O issued by a forked-or-initial pid that has not exited, every
     * forked pid eventually exits. Returns an empty string when valid,
     * otherwise a description of the first violation.
     */
    std::string validate() const;

  private:
    std::string app_;
    int execution_ = 0;
    std::vector<TraceEvent> events_;
};

} // namespace pcap::trace

#endif // PCAP_TRACE_TRACE_HPP
