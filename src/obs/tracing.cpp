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

/** Source of TraceRecorder::generation_ ids. Never reused, so a
 * thread slot left behind by a destroyed recorder can never match a
 * new one — even when the stack hands the new recorder the old
 * recorder's address. */
std::atomic<std::uint64_t> gRecorderGeneration{0};

std::int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Per-thread buffer cache, keyed by the owning recorder's
 * generation id so a fresh recorder never sees a stale pointer. */
struct ThreadSlot
{
    std::uint64_t owner = 0; ///< recorder generation, 0 = none
    void *buffer = nullptr;
};

thread_local ThreadSlot tSlot;

void
copyDetail(std::array<char, kSpanDetailBytes> &dst,
           std::string_view src)
{
    // copy_n, not memcpy: an empty detail may carry a null data()
    // pointer, which memcpy must not be given even for zero bytes.
    const std::size_t n =
        std::min(src.size(), kSpanDetailBytes - 1);
    std::copy_n(src.data(), n, dst.data());
    dst[n] = '\0';
}

void
writeEscaped(std::ostream &os, const char *text)
{
    os << '"';
    for (const char *p = text; *p; ++p) {
        const unsigned char c = static_cast<unsigned char>(*p);
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
                os << *p;
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
    : generation_(
          gRecorderGeneration.fetch_add(1,
                                        std::memory_order_relaxed) +
          1),
      capacity_(capacity), epochNs_(steadyNowNs())
{
    if (capacity == 0)
        panic("TraceRecorder capacity must be positive");
}

std::uint64_t
TraceRecorder::nowNs() const
{
    return static_cast<std::uint64_t>(steadyNowNs() - epochNs_);
}

TraceRecorder::ThreadBuffer &
TraceRecorder::threadBuffer()
{
    if (tSlot.owner != generation_) {
        std::lock_guard<std::mutex> lock(mutex_);
        // Perf side arrays exist only when counter attribution is
        // armed at registration time; bench_all installs both
        // sinks before any span runs.
        auto buffer = std::make_unique<ThreadBuffer>(capacity_,
                                                     perfEnabled());
        buffer->name = buffers_.empty()
                           ? "main"
                           : "worker-" +
                                 std::to_string(buffers_.size());
        tSlot.owner = generation_;
        tSlot.buffer = buffer.get();
        buffers_.push_back(std::move(buffer));
    }
    return *static_cast<ThreadBuffer *>(tSlot.buffer);
}

void
TraceRecorder::append(const char *name, std::string_view detail,
                      std::uint64_t startNs, std::uint64_t durNs,
                      const PerfCounts *perf)
{
    ThreadBuffer &buffer = threadBuffer();
    const std::uint64_t used =
        buffer.size.load(std::memory_order_relaxed);
    if (used >= capacity_) {
        buffer.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    std::unique_ptr<Chunk> &chunk =
        buffer.chunks[used / kTraceChunkEvents];
    if (!chunk) {
        chunk = std::make_unique<Chunk>();
        if (buffer.withPerf)
            chunk->perf =
                std::make_unique<PerfCounts[]>(kTraceChunkEvents);
    }
    const std::size_t offset = used % kTraceChunkEvents;
    TraceEvent &event = chunk->events[offset];
    event.startNs = startNs;
    event.durNs = durNs;
    event.name = name;
    copyDetail(event.detail, detail);
    if (perf && chunk->perf) {
        chunk->perf[offset] = *perf;
        event.hasPerf = true;
    }
    // Publish after the payload so a post-join reader never sees a
    // half-written event.
    buffer.size.store(used + 1, std::memory_order_release);
}

std::uint64_t
TraceRecorder::totalEvents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto &buffer : buffers_)
        total += buffer->size.load(std::memory_order_acquire);
    return total;
}

std::uint64_t
TraceRecorder::totalDropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto &buffer : buffers_)
        total += buffer->dropped.load(std::memory_order_relaxed);
    return total;
}

std::size_t
TraceRecorder::threadCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return buffers_.size();
}

void
TraceRecorder::writeChromeTrace(const std::string &path) const
{
    // A full buffer silently truncates the profile's tail; surface
    // that once, at write time, so a "why is this phase missing"
    // hunt starts from the drop count instead of the rendered file.
    const std::uint64_t dropped = totalDropped();
    if (dropped > 0 &&
        !dropWarned_.exchange(true, std::memory_order_relaxed)) {
        warn("trace profile dropped " + std::to_string(dropped) +
             " spans (per-thread buffer capacity " +
             std::to_string(capacity_) +
             "); raise TraceRecorder capacity or trace less");
    }

    std::ofstream os(path, std::ios::trunc);
    if (!os)
        fatal("cannot open trace profile " + path);

    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\n  \"displayTimeUnit\": \"ms\",\n"
       << "  \"traceEvents\": [";
    bool first = true;
    for (std::size_t tid = 0; tid < buffers_.size(); ++tid) {
        const ThreadBuffer &buffer = *buffers_[tid];
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\"name\": \"thread_name\", \"ph\": \"M\", "
              "\"pid\": 1, \"tid\": "
           << tid << ", \"args\": {\"name\": ";
        writeEscaped(os, buffer.name.c_str());
        os << "}}";
        const std::uint64_t count =
            buffer.size.load(std::memory_order_acquire);
        for (std::uint64_t i = 0; i < count; ++i) {
            const Chunk &chunk = *buffer.chunks[i / kTraceChunkEvents];
            const TraceEvent &event =
                chunk.events[i % kTraceChunkEvents];
            os << ",\n    {\"name\": ";
            writeEscaped(os, event.name);
            os << ", \"cat\": \"pcap\", \"ph\": \"X\", \"ts\": ";
            writeMicros(os, event.startNs);
            os << ", \"dur\": ";
            writeMicros(os, event.durNs);
            os << ", \"pid\": 1, \"tid\": " << tid;
            if (event.detail[0] != '\0' || event.hasPerf) {
                os << ", \"args\": {";
                bool firstArg = true;
                if (event.detail[0] != '\0') {
                    os << "\"detail\": ";
                    writeEscaped(os, event.detail.data());
                    firstArg = false;
                }
                if (event.hasPerf) {
                    const PerfCounts &perf =
                        chunk.perf[i % kTraceChunkEvents];
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
    copyDetail(detail_, detail);
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
    recorder_->append(name_, detail_.data(), startNs_,
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
