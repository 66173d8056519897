/**
 * @file
 * Metrics registry: the observability core every simulation layer
 * records into.
 *
 * Four metric kinds cover the evaluation's needs — monotone Counters
 * (events, idle periods, cache hits), Gauges (table occupancy,
 * energy joules), fixed-bucket Histograms (idle-period lengths) and
 * PhaseTimers (wall time per phase or cell). All four are lock-free
 * atomics on the hot path: instrumented code resolves its metric
 * once (one mutex-guarded registry lookup) and afterwards pays only
 * relaxed atomic operations per event.
 *
 * Series identity is (name, sorted label set), Prometheus-style.
 * Per-run scoping for the parallel experiment engine comes from
 * labels: every simulation cell instruments through a ScopedMetrics
 * carrying its (config, mode, app, policy) labels, so concurrent
 * cells touch disjoint metric objects and never contend or
 * cross-contaminate. A label can be marked as detail: the exporters
 * (obs/export.hpp) then sum the series that differ only in it, while
 * snapshot() and everything reading the registry live still see each
 * series on its own.
 */

#ifndef PCAP_OBS_METRICS_HPP
#define PCAP_OBS_METRICS_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pcap::obs {

/** One (key, value) label; series carry a sorted set of these. */
using Label = std::pair<std::string, std::string>;
using Labels = std::vector<Label>;

/** Monotone event counter. inc() is one relaxed atomic add. */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Point-in-time or accumulating floating-point value. */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    void
    add(double v)
    {
        value_.fetch_add(v, std::memory_order_relaxed);
    }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram with Prometheus "le" semantics: a sample v
 * lands in the first bucket whose upper bound satisfies v <= upper;
 * an open overflow bucket is appended automatically. Buckets are
 * fixed at construction, so observe() is a short scan plus relaxed
 * atomic increments — no allocation, no locks.
 */
class Histogram
{
  public:
    /** @param uppers Strictly ascending inclusive upper bounds. */
    explicit Histogram(std::vector<double> uppers);

    void observe(double v);

    /** Bucket count including the open overflow bucket. */
    std::size_t bucketCount() const { return buckets_.size(); }

    /** Inclusive upper bound of bucket @p i (+inf for the last). */
    double upper(std::size_t i) const;

    /** Samples in bucket @p i alone (not cumulative). */
    std::uint64_t bucketValue(std::size_t i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    /**
     * Fold a pre-bucketed batch in: per-bucket counts (same layout,
     * overflow last), total count and sum. Lets single-threaded
     * collectors accumulate into plain locals and pay the atomics
     * once per batch instead of per sample. Panics on a layout
     * mismatch.
     */
    void merge(const std::vector<std::uint64_t> &bucketCounts,
               std::uint64_t count, double sum);

  private:
    std::vector<double> uppers_;
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/** Accumulated wall time of one repeatedly-entered phase. */
class PhaseTimer
{
  public:
    /** RAII lap: adds the scope's lifetime to the timer. */
    class Scope
    {
      public:
        explicit Scope(PhaseTimer &timer)
            : timer_(&timer),
              start_(std::chrono::steady_clock::now())
        {
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        ~Scope()
        {
            const auto elapsed =
                std::chrono::steady_clock::now() - start_;
            timer_->addSeconds(
                std::chrono::duration<double>(elapsed).count());
        }

      private:
        PhaseTimer *timer_;
        std::chrono::steady_clock::time_point start_;
    };

    /** Start one RAII-measured lap. */
    Scope measure() { return Scope(*this); }

    void
    addSeconds(double s)
    {
        seconds_.fetch_add(s, std::memory_order_relaxed);
        laps_.fetch_add(1, std::memory_order_relaxed);
    }

    double seconds() const
    {
        return seconds_.load(std::memory_order_relaxed);
    }

    std::uint64_t laps() const
    {
        return laps_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> seconds_{0.0};
    std::atomic<std::uint64_t> laps_{0};
};

/** What kind of metric a series is (drives export formatting). */
enum class MetricKind { Counter, Gauge, Histogram, Timer };

/** Stable lower-case kind name ("counter", ...). */
const char *metricKindName(MetricKind kind);

/**
 * Thread-safe create-or-get store of metric series.
 *
 * Any thread may call the accessors at any time; the first call for
 * a given (name, labels) identity creates the series, later calls
 * return the same object. Returned references stay valid for the
 * registry's lifetime, so hot paths resolve once and then operate
 * lock-free. Requesting an existing series with a different kind
 * panics — that is a programming error, not a runtime condition.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter &counter(const std::string &name,
                     const Labels &labels = {});
    Gauge &gauge(const std::string &name, const Labels &labels = {});

    /** @p uppers only applies when the series is created; a second
     * caller gets the existing buckets. */
    Histogram &histogram(const std::string &name,
                         const std::vector<double> &uppers,
                         const Labels &labels = {});
    PhaseTimer &timer(const std::string &name,
                      const Labels &labels = {});

    /** Attach help text to a metric name (first writer wins). */
    void describe(const std::string &name, const std::string &help);

    /** Help text of @p name; empty when never described. */
    std::string helpFor(const std::string &name) const;

    /** One exported series (pointers into the registry). */
    struct Series
    {
        std::string name;
        Labels labels; ///< canonically sorted by key
        MetricKind kind = MetricKind::Counter;
        const Counter *counter = nullptr;
        const Gauge *gauge = nullptr;
        const Histogram *histogram = nullptr;
        const PhaseTimer *timer = nullptr;
    };

    /**
     * Deterministic view of every series, sorted by (name, labels)
     * — independent of registration order, so exports from parallel
     * runs diff cleanly.
     */
    std::vector<Series> snapshot() const;

    /**
     * Every series, in no particular order and without copying: the
     * pointers stay valid for the registry's lifetime. For readers
     * that sort only part of what snapshot() would.
     */
    std::vector<const Series *> series() const;

    /** Number of registered series. */
    std::size_t seriesCount() const;

    /**
     * Mark @p label as a detail label: metricsToJson and
     * writePrometheus fold it out of every series and sum the series
     * it alone told apart. Recording and snapshot() are unaffected.
     */
    void markDetailLabel(const std::string &label);

    /** The detail labels, sorted; empty exports every series. */
    std::vector<std::string> detailLabels() const;

  private:
    struct Entry
    {
        Series series; ///< identity, kind and the metric below
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
        std::unique_ptr<PhaseTimer> timer;
    };

    /** Find-or-create the entry of (name, labels); panics when an
     * existing entry has a different kind. */
    Entry &entry(const std::string &name, const Labels &labels,
                 MetricKind kind,
                 const std::vector<double> *uppers);

    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;
    std::map<std::string, std::string> help_;
    std::vector<std::string> detailLabels_; ///< sorted, unique
};

/**
 * A registry handle carrying an implicit label set — the per-run
 * scope of one simulation cell or layer. Scopes are cheap values:
 * copy them, extend them with with(), pass them down. A
 * default-constructed scope is disabled: metrics resolve against a
 * process-wide scratch registry that is never exported, so
 * instrumented code needs no null checks.
 */
class ScopedMetrics
{
  public:
    ScopedMetrics() = default;
    explicit ScopedMetrics(MetricsRegistry *registry,
                           Labels labels = {})
        : registry_(registry), labels_(std::move(labels))
    {
    }

    /** False for default-constructed (scratch-backed) scopes. */
    bool enabled() const { return registry_ != nullptr; }

    /** The scope's label set. */
    const Labels &labels() const { return labels_; }

    /** A child scope with @p extra labels appended. */
    ScopedMetrics with(const Labels &extra) const;

    Counter &counter(const std::string &name,
                     const Labels &extra = {}) const;
    Gauge &gauge(const std::string &name,
                 const Labels &extra = {}) const;
    Histogram &histogram(const std::string &name,
                         const std::vector<double> &uppers,
                         const Labels &extra = {}) const;
    PhaseTimer &timer(const std::string &name,
                      const Labels &extra = {}) const;

  private:
    MetricsRegistry &registry() const;
    Labels merged(const Labels &extra) const;

    MetricsRegistry *registry_ = nullptr;
    Labels labels_;
};

} // namespace pcap::obs

#endif // PCAP_OBS_METRICS_HPP
