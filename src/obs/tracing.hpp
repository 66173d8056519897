/**
 * @file
 * Wall-clock span tracing for the harness itself.
 *
 * Timelines (timeline.hpp) resolve *simulated* time; this layer
 * resolves *wall* time: where does a bench run actually spend its
 * seconds — workload generation, per-cell replay, report rendering,
 * fleet shards, thread-pool tasks. RAII Spans record into per-thread
 * bounded buffers (single-writer, no locks on the hot path, storage
 * allocated lazily in fixed chunks, overflow drops the newest spans
 * and counts them) and the whole recorder serializes to Chrome
 * trace-event JSON, loadable in Perfetto or chrome://tracing.
 *
 * Tracing is opt-in and process-global: bench_all installs a
 * recorder via setTraceRecorder for --trace-profile; with none
 * installed a Span construction is two loads and a branch.
 */

#ifndef PCAP_OBS_TRACING_HPP
#define PCAP_OBS_TRACING_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/perf.hpp"

namespace pcap::obs {

/** Inline payload bytes per span (truncating, NUL-terminated). */
constexpr std::size_t kSpanDetailBytes = 48;

/** Spans per storage chunk of a thread's trace buffer. */
constexpr std::size_t kTraceChunkEvents = 1024;

/** One completed span: a Chrome "X" (complete) event. */
struct TraceEvent
{
    std::uint64_t startNs = 0; ///< since recorder construction
    std::uint64_t durNs = 0;
    const char *name = nullptr; ///< string literal (category label)
    std::array<char, kSpanDetailBytes> detail{}; ///< arg, may be ""

    /** True when a counter delta was recorded over the span (a
     * PerfProfiler installed alongside the recorder:
     * --trace-profile --perf). The delta itself lives at this
     * event's index in its chunk's perf side array — embedding
     * the ~80-byte PerfCounts here would double every trace chunk
     * even with --perf off. Rendered as ipc/cycles/miss args on the
     * trace event. */
    bool hasPerf = false;
};

/**
 * Collects spans from any number of threads.
 *
 * Each thread gets its own buffer of up to `capacity` spans on first
 * use (registration takes a mutex once per thread; appends are plain
 * single-writer stores with a release size publish). A buffer is a
 * chunk-pointer table sized at registration; the writer allocates
 * each kTraceChunkEvents-span chunk when it first reaches it, so a
 * thread that records a handful of spans costs one chunk, not the
 * whole capacity. Chunks never move, so readers may walk them after
 * the writers go idle.
 */
class TraceRecorder
{
  public:
    /** @p capacity spans per thread; overflow counts as dropped. */
    explicit TraceRecorder(std::size_t capacity = 1 << 16);

    /** Record one completed span from the calling thread;
     * @p perf (optional) is the counter delta over the span. */
    void append(const char *name, std::string_view detail,
                std::uint64_t startNs, std::uint64_t durNs,
                const PerfCounts *perf = nullptr);

    /** Nanoseconds since this recorder was constructed. */
    std::uint64_t nowNs() const;

    std::uint64_t totalEvents() const;
    std::uint64_t totalDropped() const;
    std::size_t threadCount() const;

    /** Serialize everything recorded so far as Chrome trace-event
     * JSON ({"traceEvents": [...]}); fatal() on I/O failure. */
    void writeChromeTrace(const std::string &path) const;

  private:
    struct Chunk
    {
        std::array<TraceEvent, kTraceChunkEvents> events;
        /** Counter deltas parallel to events, allocated with the
         * chunk only when a PerfProfiler was installed at
         * registration; null — and deltas dropped — otherwise. */
        std::unique_ptr<PerfCounts[]> perf;
    };

    struct ThreadBuffer
    {
        ThreadBuffer(std::size_t capacity, bool withPerf)
            : chunks((capacity + kTraceChunkEvents - 1) /
                     kTraceChunkEvents),
              withPerf(withPerf)
        {
        }

        /** Span i lives in chunks[i / kTraceChunkEvents]; written by
         * the owning thread before the size publish that covers i. */
        std::vector<std::unique_ptr<Chunk>> chunks;
        const bool withPerf;
        std::atomic<std::uint64_t> size{0}; ///< published count
        std::atomic<std::uint64_t> dropped{0};
        std::string name;
    };

    ThreadBuffer &threadBuffer();

    /** Process-unique id keying per-thread buffer slots. Slots must
     * not key on the recorder's address: successive stack-local
     * recorders reuse it, and a stale slot would hand the new
     * recorder a freed buffer. */
    const std::uint64_t generation_;
    std::size_t capacity_;
    std::int64_t epochNs_;
    mutable std::mutex mutex_; ///< guards buffers_ registration
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;

    /** One overflow warning per recorder, however many times the
     * profile is written. */
    mutable std::atomic<bool> dropWarned_{false};
};

/** Install @p recorder as the process-wide span sink (nullptr
 * disables tracing). The recorder is not owned and must outlive
 * every span started while it is installed. */
void setTraceRecorder(TraceRecorder *recorder);

/** The installed recorder, or nullptr when tracing is off. */
TraceRecorder *traceRecorder();

/** True when a recorder is installed. */
bool traceEnabled();

/**
 * RAII wall-clock span. Captures the installed recorder and a
 * timestamp at construction, appends one complete event at
 * destruction. @p name must be a string literal (it is stored by
 * pointer); per-instance data goes in @p detail, which is copied
 * (and truncated) into the event.
 */
class Span
{
  public:
    explicit Span(const char *name) : Span(name, {}) {}

    Span(const char *name, std::string_view detail);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    TraceRecorder *recorder_;
    std::uint64_t startNs_ = 0;
    const char *name_;
    std::array<char, kSpanDetailBytes> detail_{};
    /** Counter snapshot at construction; only taken when a
     * PerfProfiler is installed alongside the recorder. */
    PerfCounts perfStart_;
    bool perfArmed_ = false;
};

/**
 * Wire the thread pool's task hook to the tracer: every pool lane
 * runs under a "pool-task" span while a recorder is installed.
 * Idempotent; call once at startup when --trace-profile is
 * requested.
 */
void installThreadPoolTraceHook();

} // namespace pcap::obs

#endif // PCAP_OBS_TRACING_HPP
