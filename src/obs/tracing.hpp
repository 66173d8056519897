/**
 * @file
 * Wall-clock span tracing for the harness itself.
 *
 * Timelines (timeline.hpp) resolve *simulated* time; this layer
 * resolves *wall* time: where does a bench run actually spend its
 * seconds — workload generation, per-cell replay, report rendering,
 * fleet shards, thread-pool tasks. RAII Spans append to one bounded
 * list under the recorder's mutex (overflow drops the newest spans
 * and counts them) and the whole recorder serializes to Chrome
 * trace-event JSON, loadable in Perfetto or chrome://tracing.
 *
 * Tracing is opt-in and process-global: bench_all installs a
 * recorder via setTraceRecorder for --trace-profile; with none
 * installed a Span construction is two loads and a branch.
 */

#ifndef PCAP_OBS_TRACING_HPP
#define PCAP_OBS_TRACING_HPP

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/perf.hpp"

namespace pcap::obs {

/** One completed span: a Chrome "X" (complete) event. */
struct TraceEvent
{
    std::uint64_t startNs = 0; ///< since recorder construction
    std::uint64_t durNs = 0;
    const char *name = nullptr; ///< string literal (category label)
    std::string detail;         ///< arg, may be ""
    std::size_t tid = 0;        ///< recording thread, see TraceRecorder

    /** Counter delta over the span, when a PerfProfiler was
     * installed alongside the recorder (--trace-profile --perf);
     * rendered as ipc/cycles/miss args on the trace event. */
    std::optional<PerfCounts> perf;
};

/**
 * Collects spans from any number of threads into one list.
 *
 * Spans are per cell, shard, phase or pool lane — a few hundred per
 * run — so every append simply takes the mutex. Each thread that
 * records gets a tid in first-append order (tid 0 is "main", the
 * others "worker-N").
 */
class TraceRecorder
{
  public:
    /** @p capacity spans in total; overflow counts as dropped. */
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
    std::size_t capacity_;
    std::int64_t epochNs_;
    mutable std::mutex mutex_; ///< guards every member below
    std::vector<TraceEvent> events_;
    std::vector<std::thread::id> threads_; ///< indexed by tid
    std::uint64_t dropped_ = 0;

    /** One overflow warning per recorder, however many times the
     * profile is written. */
    mutable bool dropWarned_ = false;
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
 * whole into the event.
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
    std::string detail_; ///< copied only while a recorder is installed
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
