#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <ostream>

#include "util/logging.hpp"

namespace pcap::obs {

namespace {

/** Prometheus-compatible number: integers without a decimal point,
 * everything else shortest-round-trip-ish %.12g (matching the JSON
 * writer so the two exports agree). */
std::string
formatNumber(double value)
{
    if (std::isinf(value))
        return value > 0 ? "+Inf" : "-Inf";
    if (std::isnan(value))
        return "NaN";
    char buffer[40];
    if (value == std::floor(value) && std::fabs(value) < 9.0e15) {
        std::snprintf(buffer, sizeof(buffer), "%lld",
                      static_cast<long long>(value));
    } else {
        std::snprintf(buffer, sizeof(buffer), "%.12g", value);
    }
    return buffer;
}

/** Escape a Prometheus label value (backslash, quote, newline). */
std::string
escapeLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

/** Render one label set as {k="v",...}; extra pairs appended last
 * (used for the histogram "le" label). Empty set renders as "". */
std::string
labelBlock(const Labels &labels, const Labels &extra = {})
{
    if (labels.empty() && extra.empty())
        return "";
    std::string out = "{";
    bool first = true;
    auto append = [&](const Label &label) {
        if (!first)
            out += ',';
        first = false;
        out += label.first;
        out += "=\"";
        out += escapeLabelValue(label.second);
        out += '"';
    };
    for (const Label &label : labels)
        append(label);
    for (const Label &label : extra)
        append(label);
    out += '}';
    return out;
}

Json
labelsJson(const Labels &labels)
{
    Json object = Json::object();
    for (const Label &label : labels)
        object[label.first] = label.second;
    return object;
}

/** Timer series name with the seconds unit, avoiding "_seconds"
 * stutter when the registered name already carries it. */
std::string
timerSecondsName(const std::string &name)
{
    constexpr char kUnit[] = "_seconds";
    const std::size_t unit = sizeof(kUnit) - 1;
    if (name.size() >= unit &&
        name.compare(name.size() - unit, unit, kUnit) == 0)
        return name + "_total";
    return name + "_seconds_total";
}

/**
 * One exported series: the sum of every registry series that is
 * equal to it once the registry's detail labels are folded out (a
 * single series when there are none).
 */
struct ExportSeries
{
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::Counter;
    /** Counter value, histogram count or timer laps. */
    std::uint64_t count = 0;
    /** Gauge value, histogram sum or timer seconds. */
    double sum = 0.0;
    /** Histogram bucket bounds: the first folded series'. */
    const Histogram *layout = nullptr;
    /** Histogram samples per bucket (not cumulative). */
    std::vector<std::uint64_t> buckets;
};

bool
sameBuckets(const Histogram &a, const Histogram &b)
{
    if (a.bucketCount() != b.bucketCount())
        return false;
    for (std::size_t i = 0; i < a.bucketCount(); ++i) {
        if (a.upper(i) != b.upper(i))
            return false;
    }
    return true;
}

/** Add registry series @p s into @p into. */
void
accumulate(ExportSeries &into, const MetricsRegistry::Series &s)
{
    if (into.kind != s.kind)
        panic("metrics export: series '" + s.name +
              "' folds a " + metricKindName(s.kind) + " into a " +
              metricKindName(into.kind));
    switch (s.kind) {
      case MetricKind::Counter:
        into.count += s.counter->value();
        break;
      case MetricKind::Gauge:
        into.sum += s.gauge->value();
        break;
      case MetricKind::Histogram: {
        const Histogram &histogram = *s.histogram;
        if (!into.layout) {
            into.layout = &histogram;
            into.buckets.assign(histogram.bucketCount(), 0);
        } else if (!sameBuckets(*into.layout, histogram)) {
            panic("metrics export: histogram '" + s.name +
                  "' folds series with different bucket layouts");
        }
        for (std::size_t i = 0; i < into.buckets.size(); ++i)
            into.buckets[i] += histogram.bucketValue(i);
        into.count += histogram.count();
        into.sum += histogram.sum();
        break;
      }
      case MetricKind::Timer:
        into.count += s.timer->laps();
        into.sum += s.timer->seconds();
        break;
    }
}

/**
 * The registry as both exporters render it: snapshot() with the
 * detail labels folded out, sorted by (name, labels). Each group is
 * summed in snapshot order, so floating-point totals do not depend
 * on which thread recorded first.
 *
 * Only the groups, and the few members within each, are sorted:
 * sorting every series, as snapshot() does, took half the export
 * time of a folded paper run.
 */
std::vector<ExportSeries>
exportView(const MetricsRegistry &registry)
{
    const std::vector<std::string> detail = registry.detailLabels();
    const std::vector<const MetricsRegistry::Series *> all =
        registry.series();

    // Every series' labels without the detail ones, as pointers into
    // `all` (series i keeps kept[first[i], first[i + 1])), and a hash
    // of its name and kept labels that brings each group together.
    std::vector<const Label *> kept;
    std::vector<std::size_t> first;
    std::vector<std::size_t> hash;
    first.reserve(all.size() + 1);
    hash.reserve(all.size());
    const std::hash<std::string> hasher;
    const auto mix = [](std::size_t h, std::size_t v) {
        return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    };
    for (const MetricsRegistry::Series *s : all) {
        first.push_back(kept.size());
        std::size_t h = hasher(s->name);
        for (const Label &label : s->labels) {
            if (std::binary_search(detail.begin(), detail.end(),
                                   label.first))
                continue;
            kept.push_back(&label);
            h = mix(mix(h, hasher(label.first)), hasher(label.second));
        }
        hash.push_back(h);
    }
    first.push_back(kept.size());

    // Three-way comparison of two series' (name, kept labels).
    const auto compareFolded = [&](std::size_t a, std::size_t b) {
        if (const int c = all[a]->name.compare(all[b]->name))
            return c;
        const std::size_t na = first[a + 1] - first[a];
        const std::size_t nb = first[b + 1] - first[b];
        for (std::size_t i = 0; i < na && i < nb; ++i) {
            const Label &x = *kept[first[a] + i];
            const Label &y = *kept[first[b] + i];
            if (const int c = x.first.compare(y.first))
                return c;
            if (const int c = x.second.compare(y.second))
                return c;
        }
        return int(na > nb) - int(na < nb);
    };
    // Series by group, each group in snapshot order.
    std::vector<std::size_t> order(all.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (hash[a] != hash[b])
                      return hash[a] < hash[b];
                  if (const int c = compareFolded(a, b))
                      return c < 0;
                  return all[a]->labels < all[b]->labels;
              });

    std::vector<ExportSeries> view;
    for (std::size_t k = 0; k < order.size(); ++k) {
        const std::size_t i = order[k];
        if (k == 0 || hash[order[k - 1]] != hash[i] ||
            compareFolded(order[k - 1], i) != 0) {
            ExportSeries &group = view.emplace_back();
            group.name = all[i]->name;
            group.kind = all[i]->kind;
            for (std::size_t j = first[i]; j < first[i + 1]; ++j)
                group.labels.push_back(*kept[j]);
        }
        accumulate(view.back(), *all[i]);
    }
    std::sort(view.begin(), view.end(),
              [](const ExportSeries &a, const ExportSeries &b) {
                  if (const int c = a.name.compare(b.name))
                      return c < 0;
                  return a.labels < b.labels;
              });
    return view;
}

} // namespace

Json
metricsToJson(const MetricsRegistry &registry)
{
    Json root = Json::object();
    root["schema"] = kMetricsSchema;
    Json &series = root["series"];
    series = Json::array();

    for (const ExportSeries &s : exportView(registry)) {
        Json entry = Json::object();
        entry["name"] = s.name;
        entry["type"] = metricKindName(s.kind);
        entry["labels"] = labelsJson(s.labels);
        switch (s.kind) {
          case MetricKind::Counter:
            entry["value"] = s.count;
            break;
          case MetricKind::Gauge:
            entry["value"] = s.sum;
            break;
          case MetricKind::Histogram: {
            entry["count"] = s.count;
            entry["sum"] = s.sum;
            Json &buckets = entry["buckets"];
            buckets = Json::array();
            for (std::size_t i = 0; i < s.buckets.size(); ++i) {
                Json bucket = Json::object();
                const double upper = s.layout->upper(i);
                if (std::isinf(upper))
                    bucket["le"] = "+Inf";
                else
                    bucket["le"] = upper;
                bucket["count"] = s.buckets[i];
                buckets.push(std::move(bucket));
            }
            break;
          }
          case MetricKind::Timer:
            entry["seconds"] = s.sum;
            entry["laps"] = s.count;
            break;
        }
        series.push(std::move(entry));
    }
    return root;
}

void
writePrometheus(const MetricsRegistry &registry, std::ostream &os)
{
    std::string last_name;
    for (const ExportSeries &s : exportView(registry)) {
        if (s.name != last_name) {
            last_name = s.name;
            const std::string help = registry.helpFor(s.name);
            if (!help.empty())
                os << "# HELP " << s.name << ' ' << help << '\n';
            switch (s.kind) {
              case MetricKind::Counter:
                os << "# TYPE " << s.name << " counter\n";
                break;
              case MetricKind::Gauge:
                os << "# TYPE " << s.name << " gauge\n";
                break;
              case MetricKind::Histogram:
                os << "# TYPE " << s.name << " histogram\n";
                break;
              case MetricKind::Timer:
                os << "# TYPE " << timerSecondsName(s.name)
                   << " counter\n";
                break;
            }
        }
        switch (s.kind) {
          case MetricKind::Counter:
            os << s.name << labelBlock(s.labels) << ' '
               << formatNumber(static_cast<double>(s.count)) << '\n';
            break;
          case MetricKind::Gauge:
            os << s.name << labelBlock(s.labels) << ' '
               << formatNumber(s.sum) << '\n';
            break;
          case MetricKind::Histogram: {
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < s.buckets.size(); ++i) {
                cumulative += s.buckets[i];
                const double upper = s.layout->upper(i);
                const std::string le = std::isinf(upper)
                                           ? std::string("+Inf")
                                           : formatNumber(upper);
                os << s.name << "_bucket"
                   << labelBlock(s.labels, {{"le", le}}) << ' '
                   << cumulative << '\n';
            }
            os << s.name << "_sum" << labelBlock(s.labels) << ' '
               << formatNumber(s.sum) << '\n';
            os << s.name << "_count" << labelBlock(s.labels) << ' '
               << s.count << '\n';
            break;
          }
          case MetricKind::Timer:
            os << timerSecondsName(s.name) << labelBlock(s.labels)
               << ' ' << formatNumber(s.sum) << '\n';
            os << s.name << "_laps_total" << labelBlock(s.labels)
               << ' ' << s.count << '\n';
            break;
        }
    }
}

} // namespace pcap::obs
