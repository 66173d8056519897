#include "trace/builder.hpp"

#include <string>

#include "util/logging.hpp"

namespace pcap::trace {

TraceBuilder::TraceBuilder(std::string app, int execution,
                           Pid initial_pid,
                           std::vector<TraceEvent> storage)
{
    storage.clear();
    trace_ = Trace(std::move(app), execution, std::move(storage));
    live_.insert(initial_pid);
    everSeen_.insert(initial_pid);
}

void
TraceBuilder::requireLive(Pid pid, const char *operation) const
{
    if (finished_)
        panic("TraceBuilder: used after finish()");
    if (!live_.count(pid)) {
        panic(std::string("TraceBuilder: ") + operation +
              " from non-live pid " + std::to_string(pid));
    }
}

void
TraceBuilder::io(TimeUs time, Pid pid, EventType type, Address pc,
                 Fd fd, FileId file, std::uint64_t offset,
                 std::uint32_t size)
{
    requireLive(pid, "io");
    if (type == EventType::Fork || type == EventType::Exit)
        panic("TraceBuilder::io: use fork()/exit() for lifecycle");
    TraceEvent event;
    event.time = time;
    event.pid = pid;
    event.type = type;
    event.pc = pc;
    event.fd = fd;
    event.file = file;
    event.offset = offset;
    event.size = size;
    trace_.append(event);
}

void
TraceBuilder::fork(TimeUs time, Pid parent, Pid child)
{
    requireLive(parent, "fork");
    if (everSeen_.count(child)) {
        panic("TraceBuilder::fork: pid " + std::to_string(child) +
              " already used");
    }
    TraceEvent event;
    event.time = time;
    event.pid = parent;
    event.type = EventType::Fork;
    event.fd = static_cast<Fd>(child);
    trace_.append(event);
    live_.insert(child);
    everSeen_.insert(child);
}

void
TraceBuilder::exit(TimeUs time, Pid pid)
{
    requireLive(pid, "exit");
    TraceEvent event;
    event.time = time;
    event.pid = pid;
    event.type = EventType::Exit;
    trace_.append(event);
    live_.erase(pid);
}

Trace
TraceBuilder::finish(TimeUs time)
{
    if (finished_)
        panic("TraceBuilder: finish() called twice");
    // Exit remaining processes in pid order for determinism.
    while (!live_.empty())
        exit(time, *live_.begin());
    finished_ = true;
    trace_.sortByTime();
    return std::move(trace_);
}

} // namespace pcap::trace
