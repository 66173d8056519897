/**
 * @file
 * Metric exporters: structured JSON (embedded in perfbench's output
 * and read by the tests) and Prometheus text exposition format
 * (bench_all's <stem>.prom beside its results file: the file
 * tools/metrics_diff.py reads, ready for a node_exporter textfile
 * collector or a pushgateway).
 *
 * Both exports render a deterministic snapshot — series sorted by
 * (name, labels) — so two runs of the same deterministic simulation
 * produce byte-identical documents regardless of thread scheduling.
 *
 * Both also roll the registry's detail labels up
 * (MetricsRegistry::markDetailLabel): series that differ only in a
 * detail label export as one series without it, summed in snapshot
 * order — counters and gauges by value, histograms by count, sum and
 * bucket, timers by seconds and laps. Folding two histograms with
 * different buckets panics. A registry without detail labels exports
 * every series as recorded.
 */

#ifndef PCAP_OBS_EXPORT_HPP
#define PCAP_OBS_EXPORT_HPP

#include <iosfwd>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace pcap::obs {

/** Schema tag of the JSON metrics document. */
inline constexpr char kMetricsSchema[] = "pcap-metrics-v1";

/**
 * The whole registry as a JSON document:
 *
 * {"schema":"pcap-metrics-v1","series":[
 *   {"name":..,"type":"counter","labels":{..},"value":N},
 *   {"name":..,"type":"histogram","labels":{..},
 *    "count":N,"sum":S,"buckets":[{"le":..,"count":n},..]},
 *   {"name":..,"type":"timer","labels":{..},
 *    "seconds":S,"laps":N}, ...]}
 */
Json metricsToJson(const MetricsRegistry &registry);

/**
 * Prometheus text format. Histograms emit cumulative _bucket series
 * plus _sum and _count; timers emit <name>_seconds_total and
 * <name>_laps_total counters.
 */
void writePrometheus(const MetricsRegistry &registry,
                     std::ostream &os);

} // namespace pcap::obs

#endif // PCAP_OBS_EXPORT_HPP
