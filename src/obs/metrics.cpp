#include "obs/metrics.hpp"

#include <algorithm>
#include <limits>

#include "util/logging.hpp"

namespace pcap::obs {

namespace {

/** Canonical sorted copy of a label set (stable series identity). */
Labels
canonical(Labels labels)
{
    std::sort(labels.begin(), labels.end());
    return labels;
}

/** Registry key of one series: name + sorted labels, separated by
 * characters that cannot appear in metric names. */
std::string
seriesKey(const std::string &name, const Labels &labels)
{
    std::string key = name;
    for (const Label &label : labels) {
        key += '\x1f';
        key += label.first;
        key += '\x1e';
        key += label.second;
    }
    return key;
}

} // namespace

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "histogram";
      case MetricKind::Timer: return "timer";
    }
    return "unknown";
}

// ---------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> uppers)
    : uppers_(std::move(uppers)), buckets_(uppers_.size() + 1)
{
    for (std::size_t i = 1; i < uppers_.size(); ++i) {
        if (uppers_[i] <= uppers_[i - 1])
            panic("Histogram: bucket bounds must be strictly "
                  "ascending");
    }
}

void
Histogram::observe(double v)
{
    std::size_t index = 0;
    while (index < uppers_.size() && v > uppers_[index])
        ++index;
    buckets_[index].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
}

void
Histogram::merge(const std::vector<std::uint64_t> &bucketCounts,
                 std::uint64_t count, double sum)
{
    if (bucketCounts.size() != buckets_.size())
        panic("Histogram::merge: bucket layout mismatch");
    for (std::size_t i = 0; i < bucketCounts.size(); ++i) {
        if (bucketCounts[i]) {
            buckets_[i].fetch_add(bucketCounts[i],
                                  std::memory_order_relaxed);
        }
    }
    count_.fetch_add(count, std::memory_order_relaxed);
    sum_.fetch_add(sum, std::memory_order_relaxed);
}

double
Histogram::upper(std::size_t i) const
{
    if (i < uppers_.size())
        return uppers_[i];
    return std::numeric_limits<double>::infinity();
}

// ---------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------

MetricsRegistry::Entry &
MetricsRegistry::entry(const std::string &name, const Labels &labels,
                       MetricKind kind,
                       const std::vector<double> *uppers)
{
    const Labels sorted = canonical(labels);
    const std::string key = seriesKey(name, sorted);

    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = entries_[key];
    if (!slot) {
        slot = std::make_unique<Entry>();
        Series &series = slot->series;
        series.name = name;
        series.labels = sorted;
        series.kind = kind;
        switch (kind) {
          case MetricKind::Counter:
            slot->counter = std::make_unique<Counter>();
            series.counter = slot->counter.get();
            break;
          case MetricKind::Gauge:
            slot->gauge = std::make_unique<Gauge>();
            series.gauge = slot->gauge.get();
            break;
          case MetricKind::Histogram:
            slot->histogram = std::make_unique<Histogram>(
                uppers ? *uppers : std::vector<double>{});
            series.histogram = slot->histogram.get();
            break;
          case MetricKind::Timer:
            slot->timer = std::make_unique<PhaseTimer>();
            series.timer = slot->timer.get();
            break;
        }
    } else if (slot->series.kind != kind) {
        panic("MetricsRegistry: series '" + name +
              "' requested as " + metricKindName(kind) +
              " but registered as " +
              metricKindName(slot->series.kind));
    }
    return *slot;
}

Counter &
MetricsRegistry::counter(const std::string &name,
                         const Labels &labels)
{
    return *entry(name, labels, MetricKind::Counter, nullptr)
                .counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const Labels &labels)
{
    return *entry(name, labels, MetricKind::Gauge, nullptr).gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::vector<double> &uppers,
                           const Labels &labels)
{
    return *entry(name, labels, MetricKind::Histogram, &uppers)
                .histogram;
}

PhaseTimer &
MetricsRegistry::timer(const std::string &name, const Labels &labels)
{
    return *entry(name, labels, MetricKind::Timer, nullptr).timer;
}

void
MetricsRegistry::describe(const std::string &name,
                          const std::string &help)
{
    std::lock_guard<std::mutex> lock(mutex_);
    help_.try_emplace(name, help);
}

std::string
MetricsRegistry::helpFor(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = help_.find(name);
    return it == help_.end() ? std::string() : it->second;
}

std::vector<const MetricsRegistry::Series *>
MetricsRegistry::series() const
{
    std::vector<const Series *> series;
    std::lock_guard<std::mutex> lock(mutex_);
    series.reserve(entries_.size());
    for (const auto &[key, entry] : entries_) {
        (void)key;
        series.push_back(&entry->series);
    }
    return series;
}

std::vector<MetricsRegistry::Series>
MetricsRegistry::snapshot() const
{
    std::vector<Series> series;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        series.reserve(entries_.size());
        for (const auto &[key, entry] : entries_) {
            (void)key;
            series.push_back(entry->series);
        }
    }
    std::sort(series.begin(), series.end(),
              [](const Series &a, const Series &b) {
                  if (a.name != b.name)
                      return a.name < b.name;
                  return a.labels < b.labels;
              });
    return series;
}

std::size_t
MetricsRegistry::seriesCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
MetricsRegistry::markDetailLabel(const std::string &label)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = std::lower_bound(detailLabels_.begin(),
                                     detailLabels_.end(), label);
    if (it == detailLabels_.end() || *it != label)
        detailLabels_.insert(it, label);
}

std::vector<std::string>
MetricsRegistry::detailLabels() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return detailLabels_;
}

// ---------------------------------------------------------------
// ScopedMetrics
// ---------------------------------------------------------------

MetricsRegistry &
ScopedMetrics::registry() const
{
    if (registry_)
        return *registry_;
    // Disabled scopes record into a process-wide scratch registry
    // that nothing ever exports, so callers need no null checks.
    static MetricsRegistry scratch;
    return scratch;
}

Labels
ScopedMetrics::merged(const Labels &extra) const
{
    if (extra.empty())
        return labels_;
    Labels all = labels_;
    all.insert(all.end(), extra.begin(), extra.end());
    return all;
}

ScopedMetrics
ScopedMetrics::with(const Labels &extra) const
{
    return ScopedMetrics(registry_, merged(extra));
}

Counter &
ScopedMetrics::counter(const std::string &name,
                       const Labels &extra) const
{
    return registry().counter(name, merged(extra));
}

Gauge &
ScopedMetrics::gauge(const std::string &name,
                     const Labels &extra) const
{
    return registry().gauge(name, merged(extra));
}

Histogram &
ScopedMetrics::histogram(const std::string &name,
                         const std::vector<double> &uppers,
                         const Labels &extra) const
{
    return registry().histogram(name, uppers, merged(extra));
}

PhaseTimer &
ScopedMetrics::timer(const std::string &name,
                     const Labels &extra) const
{
    return registry().timer(name, merged(extra));
}

} // namespace pcap::obs
