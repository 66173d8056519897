/**
 * @file
 * Convenience builder that assembles structurally valid traces:
 * it tracks live processes so forks/exits stay consistent and events
 * can be appended from interleaved per-process generators.
 */

#ifndef PCAP_TRACE_BUILDER_HPP
#define PCAP_TRACE_BUILDER_HPP

#include <set>

#include "trace/trace.hpp"

namespace pcap::trace {

/**
 * Builds a Trace while enforcing process-lifecycle invariants. All
 * methods panic on misuse (events from dead pids, double forks), so a
 * workload-model bug surfaces at generation time instead of as a
 * mysteriously invalid trace downstream.
 */
class TraceBuilder
{
  public:
    /**
     * @param app Application name.
     * @param execution Execution index.
     * @param initial_pid First process of the execution (live from
     *        the start).
     * @param storage Cleared and reused for the trace's events, so a
     *        caller that hands back an earlier trace's storage
     *        (Trace::releaseEvents) keeps its capacity.
     */
    TraceBuilder(std::string app, int execution, Pid initial_pid,
                 std::vector<TraceEvent> storage = {});

    /** Record an I/O event (read/write/open/close). */
    void io(TimeUs time, Pid pid, EventType type, Address pc, Fd fd,
            FileId file, std::uint64_t offset, std::uint32_t size);

    /** Record that @p parent forks @p child at @p time. */
    void fork(TimeUs time, Pid parent, Pid child);

    /** Record that @p pid exits at @p time. */
    void exit(TimeUs time, Pid pid);

    /** True when @p pid is currently live. */
    bool isLive(Pid pid) const { return live_.count(pid) > 0; }

    /** Pids currently live. */
    const std::set<Pid> &livePids() const { return live_; }

    /**
     * Exit every still-live process at @p time, sort the trace by
     * time and return it. The builder must not be used afterwards.
     */
    Trace finish(TimeUs time);

  private:
    void requireLive(Pid pid, const char *operation) const;

    Trace trace_;
    std::set<Pid> live_;
    std::set<Pid> everSeen_;
    bool finished_ = false;
};

} // namespace pcap::trace

#endif // PCAP_TRACE_BUILDER_HPP
