#include "obs/tracing.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace pcap::obs {

namespace {

std::atomic<TraceRecorder *> gRecorder{nullptr};

std::int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
writeEscaped(std::ostream &os, std::string_view text)
{
    os << '"';
    for (const char ch : text) {
        const unsigned char c = static_cast<unsigned char>(ch);
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                os << buf;
            } else {
                os << ch;
            }
        }
    }
    os << '"';
}

/** Microseconds with sub-µs fraction, as Chrome's "ts" expects. */
void
writeMicros(std::ostream &os, std::uint64_t ns)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%llu.%03u",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned>(ns % 1000));
    os << buf;
}

} // namespace

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(capacity), epochNs_(steadyNowNs())
{
    if (capacity == 0)
        panic("TraceRecorder capacity must be positive");
}

std::uint64_t
TraceRecorder::nowNs() const
{
    return static_cast<std::uint64_t>(steadyNowNs() - epochNs_);
}

void
TraceRecorder::append(const char *name, std::string_view detail,
                      std::uint64_t startNs, std::uint64_t durNs,
                      const PerfCounts *perf)
{
    TraceEvent event;
    event.startNs = startNs;
    event.durNs = durNs;
    event.name = name;
    event.detail = detail;
    if (perf)
        event.perf = *perf;

    const std::thread::id self = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(mutex_);
    if (events_.size() >= capacity_) {
        ++dropped_;
        return;
    }
    event.tid = static_cast<std::size_t>(
        std::find(threads_.begin(), threads_.end(), self) -
        threads_.begin());
    if (event.tid == threads_.size())
        threads_.push_back(self);
    events_.push_back(std::move(event));
}

std::uint64_t
TraceRecorder::totalEvents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::uint64_t
TraceRecorder::totalDropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

std::size_t
TraceRecorder::threadCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_.size();
}

void
TraceRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        fatal("cannot open trace profile " + path);

    std::lock_guard<std::mutex> lock(mutex_);
    // A full list silently truncates the profile's tail; surface
    // that once, at write time, so a "why is this phase missing"
    // hunt starts from the drop count instead of the rendered file.
    if (dropped_ > 0 && !dropWarned_) {
        dropWarned_ = true;
        warn("trace profile dropped " + std::to_string(dropped_) +
             " spans (capacity " + std::to_string(capacity_) +
             "); raise TraceRecorder capacity or trace less");
    }

    os << "{\n  \"displayTimeUnit\": \"ms\",\n"
       << "  \"traceEvents\": [";
    for (std::size_t tid = 0; tid < threads_.size(); ++tid) {
        os << (tid == 0 ? "\n" : ",\n");
        os << "    {\"name\": \"thread_name\", \"ph\": \"M\", "
              "\"pid\": 1, \"tid\": "
           << tid << ", \"args\": {\"name\": ";
        writeEscaped(os, tid == 0 ? std::string("main")
                                  : "worker-" + std::to_string(tid));
        os << "}}";
        for (const TraceEvent &event : events_) {
            if (event.tid != tid)
                continue;
            os << ",\n    {\"name\": ";
            writeEscaped(os, event.name);
            os << ", \"cat\": \"pcap\", \"ph\": \"X\", \"ts\": ";
            writeMicros(os, event.startNs);
            os << ", \"dur\": ";
            writeMicros(os, event.durNs);
            os << ", \"pid\": 1, \"tid\": " << tid;
            if (!event.detail.empty() || event.perf) {
                os << ", \"args\": {";
                bool firstArg = true;
                if (!event.detail.empty()) {
                    os << "\"detail\": ";
                    writeEscaped(os, event.detail);
                    firstArg = false;
                }
                if (event.perf) {
                    const PerfCounts &perf = *event.perf;
                    char num[64];
                    const auto arg =
                        [&](const char *key,
                            unsigned long long value) {
                            os << (firstArg ? "" : ", ") << '"'
                               << key << "\": " << value;
                            firstArg = false;
                        };
                    arg("cycles", perf.cycles);
                    arg("instructions", perf.instructions);
                    arg("cache_misses", perf.cacheMisses);
                    arg("branch_misses", perf.branchMisses);
                    std::snprintf(num, sizeof num, "%.4f",
                                  perf.ipc());
                    os << ", \"ipc\": " << num;
                    std::snprintf(
                        num, sizeof num, "%.3f",
                        static_cast<double>(perf.taskClockNs) /
                            1000.0);
                    os << ", \"task_clock_us\": " << num;
                }
                os << "}";
            }
            os << "}";
        }
    }
    os << "\n  ]\n}\n";
    os.flush();
    if (!os)
        fatal("write failed for trace profile " + path);
}

void
setTraceRecorder(TraceRecorder *recorder)
{
    gRecorder.store(recorder, std::memory_order_release);
}

TraceRecorder *
traceRecorder()
{
    return gRecorder.load(std::memory_order_acquire);
}

bool
traceEnabled()
{
    return traceRecorder() != nullptr;
}

Span::Span(const char *name, std::string_view detail)
    : recorder_(traceRecorder()), name_(name)
{
    if (!recorder_)
        return;
    detail_ = detail;
    // Counter attribution rides the same opt-in: spans pick up
    // hardware deltas only when both --trace-profile and --perf
    // installed their process-global sinks.
    if (PerfProfiler *profiler = perfProfiler()) {
        perfStart_ = profiler->snapshot();
        perfArmed_ = true;
    }
    startNs_ = recorder_->nowNs();
}

Span::~Span()
{
    if (!recorder_)
        return;
    const std::uint64_t end = recorder_->nowNs();
    PerfCounts delta;
    bool hasDelta = false;
    if (perfArmed_) {
        if (PerfProfiler *profiler = perfProfiler()) {
            delta = profiler->snapshot().since(perfStart_);
            hasDelta = true;
        }
    }
    recorder_->append(name_, detail_, startNs_,
                      end - startNs_,
                      hasDelta ? &delta : nullptr);
}

void
installThreadPoolTraceHook()
{
    ThreadPoolTaskHook hook;
    hook.begin = []() -> void * {
        if (!traceEnabled())
            return nullptr;
        return new Span("pool-task");
    };
    hook.end = [](void *token) {
        delete static_cast<Span *>(token);
    };
    setThreadPoolTaskHook(hook);
}

} // namespace pcap::obs
