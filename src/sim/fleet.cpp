#include "sim/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <iterator>
#include <map>
#include <utility>

#include "obs/alerts.hpp"
#include "obs/tracing.hpp"
#include "sim/cell_run.hpp"
#include "sim/execution_source.hpp"
#include "sim/experiment.hpp"
#include "util/thread_pool.hpp"

namespace pcap::sim {

namespace {

/** Ascending (value, host) — a total order, so every sort below is
 * deterministic even across equal values. */
bool
byValueThenHost(const FleetHostValue &a, const FleetHostValue &b)
{
    if (a.value != b.value)
        return a.value < b.value;
    return a.host < b.host;
}

/**
 * Bounded candidate lists for one distribution's two tails. Hosts
 * append as they finish; trim() keeps the kFleetOutlierCandidates
 * most extreme per tail. The global top-K per tail is always a
 * subset of the union of per-shard top-Ks, so shard-local trims
 * lose nothing.
 */
struct TailCandidates
{
    std::vector<FleetHostValue> low;
    std::vector<FleetHostValue> high;

    void add(std::uint64_t host, double value)
    {
        low.push_back({host, value});
        high.push_back({host, value});
    }

    void mergeFrom(TailCandidates &&other)
    {
        low.insert(low.end(), other.low.begin(), other.low.end());
        high.insert(high.end(), other.high.begin(),
                    other.high.end());
        // Trim on every merge so the candidate lists stay O(K)
        // however many shards fold in.
        trim();
    }

    void trim()
    {
        std::sort(low.begin(), low.end(), byValueThenHost);
        if (low.size() > kFleetOutlierCandidates)
            low.resize(kFleetOutlierCandidates);
        std::sort(high.begin(), high.end(), byValueThenHost);
        if (high.size() > kFleetOutlierCandidates) {
            high.erase(high.begin(),
                       high.end() - static_cast<std::ptrdiff_t>(
                                        kFleetOutlierCandidates));
        }
    }

    /** Both tails as one candidate list (may repeat a host; the
     * k·MAD filter dedups). */
    std::vector<FleetHostValue> candidates() const
    {
        std::vector<FleetHostValue> all = low;
        all.insert(all.end(), high.begin(), high.end());
        return all;
    }
};

/** Streaming across-hosts aggregate of one policy. */
struct PolicyAccum
{
    obs::LogSketch energy;
    obs::LogSketch saved;
    obs::LogSketch hit;
    obs::LogSketch miss;
    double energySum = 0.0;
    double savedSum = 0.0;
    std::uint64_t shutdowns = 0;
    std::uint64_t spinUps = 0;
    TailCandidates savedTails;
    TailCandidates missTails;

    void mergeFrom(PolicyAccum &&other)
    {
        energy.merge(other.energy);
        saved.merge(other.saved);
        hit.merge(other.hit);
        miss.merge(other.miss);
        energySum += other.energySum;
        savedSum += other.savedSum;
        shutdowns += other.shutdowns;
        spinUps += other.spinUps;
        savedTails.mergeFrom(std::move(other.savedTails));
        missTails.mergeFrom(std::move(other.missTails));
    }
};

/** Everything one shard accumulates; folded host by host in index
 * order, merged across shards in shard order. */
struct ShardAccum
{
    std::uint64_t executions = 0;
    std::uint64_t accesses = 0;
    std::uint64_t opportunities = 0;
    std::uint64_t simSpanUs = 0;
    obs::LogSketch baseEnergy;
    double baseSum = 0.0;
    std::vector<PolicyAccum> policies;

    explicit ShardAccum(std::size_t policyCount = 0)
        : policies(policyCount)
    {
    }

    void foldHost(const HostCellResult &cell)
    {
        executions += cell.executions;
        accesses += cell.accesses;
        simSpanUs += cell.simSpanUs;
        // Idle opportunities are a property of the host's access
        // stream, identical across drivers; count them once, from
        // the baseline run.
        opportunities += cell.base.accuracy.opportunities;
        const double baseJoules = cell.base.energy.total();
        baseEnergy.add(baseJoules);
        baseSum += baseJoules;

        for (std::size_t p = 0; p < policies.size(); ++p) {
            PolicyAccum &accum = policies[p];
            const RunResult &run = cell.policyRuns[p];
            const HostPolicyFractions figures =
                hostPolicyFractions(cell, p);
            accum.energy.add(figures.energyJ);
            accum.saved.add(figures.saved);
            accum.hit.add(figures.hit);
            accum.miss.add(figures.miss);
            accum.energySum += figures.energyJ;
            accum.savedSum += figures.saved;
            accum.shutdowns += run.shutdowns;
            accum.spinUps += run.spinUps;
            accum.savedTails.add(cell.host, figures.saved);
            accum.missTails.add(cell.host, figures.miss);
        }
    }

    void mergeFrom(ShardAccum &&other)
    {
        executions += other.executions;
        accesses += other.accesses;
        opportunities += other.opportunities;
        simSpanUs += other.simSpanUs;
        baseEnergy.merge(other.baseEnergy);
        baseSum += other.baseSum;
        for (std::size_t p = 0; p < policies.size(); ++p)
            policies[p].mergeFrom(std::move(other.policies[p]));
    }
};

/**
 * Feed one accumulator's distribution sketches to the alert engine:
 * as shard evidence (@p fleetLevel false, during the serial merge)
 * or as the fleet-level headline values (@p fleetLevel true, after
 * it). One place, so the distribution names cannot drift between
 * the two calls.
 */
void
feedAlertSketches(obs::AlertEngine &alerts, const ShardAccum &accum,
                  const std::vector<PolicyConfig> &policies,
                  bool fleetLevel)
{
    const double spanSeconds =
        static_cast<double>(accum.simSpanUs) / 1e6;
    auto feed = [&](const std::string &distribution,
                    const std::string &policy,
                    const obs::LogSketch &sketch) {
        if (fleetLevel)
            alerts.setQuantileValue(distribution, policy, sketch);
        else
            alerts.addQuantileEvidence(distribution, policy, sketch,
                                       spanSeconds);
    };
    feed("base_energy_j", "base", accum.baseEnergy);
    for (std::size_t p = 0; p < policies.size(); ++p) {
        const PolicyAccum &policyAccum = accum.policies[p];
        const std::string &label = policies[p].label;
        feed("energy_j", label, policyAccum.energy);
        feed("saved_fraction", label, policyAccum.saved);
        feed("hit_fraction", label, policyAccum.hit);
        feed("miss_fraction", label, policyAccum.miss);
    }
}

/** Most deviant first: score descending, then host and metric
 * ascending — a total order over one policy's outliers. */
bool
mostDeviantFirst(const FleetOutlier &a, const FleetOutlier &b)
{
    if (a.score != b.score)
        return a.score > b.score;
    if (a.host != b.host)
        return a.host < b.host;
    return a.metric < b.metric;
}

/** "mozilla+netscape": the host's app mix as one label. */
std::string
appMixLabel(const workload::HostProfile &profile)
{
    std::string label;
    for (const workload::AppShare &share : profile.appMix) {
        if (!label.empty())
            label += "+";
        label += share.app;
    }
    return label;
}

} // namespace

FleetPercentiles
percentilesOf(std::vector<double> values)
{
    FleetPercentiles result;
    if (values.empty())
        return result;
    std::sort(values.begin(), values.end());
    const auto n = values.size();
    auto rank = [&](double q) {
        // Nearest-rank: the smallest value with at least q of the
        // distribution at or below it. Integer-exact, so fleet
        // reports never depend on interpolation rounding.
        std::size_t index = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(n)));
        if (index > 0)
            --index;
        return values[std::min(index, n - 1)];
    };
    result.p50 = rank(0.50);
    result.p90 = rank(0.90);
    result.p99 = rank(0.99);
    return result;
}

FleetPercentiles
percentilesOf(const obs::LogSketch &sketch)
{
    FleetPercentiles result;
    result.p50 = sketch.quantile(0.50);
    result.p90 = sketch.quantile(0.90);
    result.p99 = sketch.quantile(0.99);
    return result;
}

std::vector<FleetOutlier>
flagOutliers(const std::string &metric,
             const std::vector<FleetHostValue> &candidates,
             double median, double mad, double madThreshold)
{
    // A zero MAD (half the fleet sitting exactly on the median)
    // still has a meaningful center: any distinct value is then
    // infinitely deviant, so the epsilon floor flags it.
    const double unit = std::max(mad, 1e-12);
    std::map<std::uint64_t, FleetOutlier> byHost;
    for (const FleetHostValue &candidate : candidates) {
        const double score =
            std::abs(candidate.value - median) / unit;
        if (score <= madThreshold)
            continue;
        FleetOutlier outlier;
        outlier.host = candidate.host;
        outlier.metric = metric;
        outlier.value = candidate.value;
        outlier.median = median;
        outlier.score = score;
        auto [it, inserted] =
            byHost.emplace(candidate.host, outlier);
        if (!inserted && score > it->second.score)
            it->second = outlier;
    }
    std::vector<FleetOutlier> flagged;
    flagged.reserve(byHost.size());
    for (auto &[host, outlier] : byHost)
        flagged.push_back(std::move(outlier));
    std::sort(flagged.begin(), flagged.end(), mostDeviantFirst);
    return flagged;
}

HostPolicyFractions
hostPolicyFractions(const HostCellResult &cell, std::size_t p)
{
    const RunResult &run = cell.policyRuns[p];
    const double baseJoules = cell.base.energy.total();
    HostPolicyFractions figures;
    figures.energyJ = run.energy.total();
    figures.saved =
        baseJoules > 0.0 ? 1.0 - figures.energyJ / baseJoules : 0.0;
    figures.hit = run.accuracy.hitFraction();
    figures.miss = run.accuracy.missFraction();
    return figures;
}

FleetDriver::FleetDriver(workload::FleetConfig fleet, SimParams sim,
                         cache::CacheParams cacheParams,
                         FleetOptions options)
    : fleet_(std::move(fleet)), sim_(sim),
      cacheParams_(cacheParams), options_(options)
{
    if (options_.jobs == 0)
        options_.jobs = hardwareJobs();
}

HostCellResult
FleetDriver::runHost(const workload::HostProfile &profile,
                     const std::vector<PolicyConfig> &policies) const
{
    HostExecutionSource source(profile, cacheParams_);
    return runHost(source, policies);
}

HostCellResult
FleetDriver::runHost(HostExecutionSource &source,
                     const std::vector<PolicyConfig> &policies,
                     std::vector<DrilldownPolicy> *drilled,
                     const std::string &drillDir) const
{
    const workload::HostProfile &profile = source.profile();
    HostCellResult cell;
    cell.host = profile.host;
    cell.thinkTimeScale = profile.thinkTimeScale;
    cell.policyRuns.resize(policies.size());
    cell.tableEntries.resize(policies.size());

    // The cell owns all learned state: one CellRun per policy,
    // living across the host's whole execution stream, plus the Base
    // run. deque: a CellRun holds references into itself, so it must
    // not move. A drill writes each policy's provenance file and
    // timeline into drillDir; the Base run stays uninstrumented.
    std::deque<CellRun> runs;
    for (const PolicyConfig &policy : policies) {
        CellArtifacts artifacts;
        if (drilled) {
            DrilldownPolicy &summary = drilled->emplace_back();
            summary.policy = policy.label;
            summary.stem = "host" + std::to_string(profile.host) +
                           "-" + policy.label + "-" +
                           policyHash(policy);
            artifacts = {drillDir, drillDir,
                         TimelineObserver::makeMeta(
                             summary.stem, "fleet",
                             appMixLabel(profile), policy.label)};
        }
        runs.emplace_back(sim_, CellMode::Global, &policy,
                          obs::ScopedMetrics{}, artifacts);
    }
    CellRun base(sim_, CellMode::Base);

    while (const ExecutionInput *input = source.next()) {
        ++cell.executions;
        cell.accesses += input->accesses.size();
        cell.simSpanUs += static_cast<std::uint64_t>(input->endTime);
        // Pass 1 takes this branch once per execution and opens no
        // region. A drill collects per-policy counter deltas: which
        // policy's simulation is cycle-hungry, and how its IPC
        // compares across policies on the same host workload.
        if (!drilled) {
            for (std::size_t p = 0; p < policies.size(); ++p)
                cell.policyRuns[p].merge(runs[p].replay(*input));
        } else {
            for (std::size_t p = 0; p < policies.size(); ++p) {
                obs::PerfRegion region(&(*drilled)[p].perf);
                cell.policyRuns[p].merge(runs[p].replay(*input));
            }
        }
        cell.base.merge(base.replay(*input));
    }
    for (std::size_t p = 0; p < policies.size(); ++p)
        cell.tableEntries[p] = runs[p].finish();
    if (drilled) {
        for (DrilldownPolicy &summary : *drilled)
            summary.hasPerf = obs::perfEnabled();
    }
    return cell;
}

HostDrilldown
FleetDriver::drillHost(const workload::HostProfile &profile,
                       const std::vector<PolicyConfig> &policies,
                       const std::string &dir) const
{
    obs::Span span("fleet-drilldown",
                   "host " + std::to_string(profile.host));
    obs::PerfRegion perfRegion("fleet:drilldown");
    std::filesystem::create_directories(dir);

    HostDrilldown drill;
    drill.seed = profile.seed;
    HostExecutionSource source(profile, cacheParams_);
    drill.cell = runHost(source, policies, &drill.policies, dir);
    return drill;
}

FleetReport
FleetDriver::run(const std::vector<PolicyConfig> &policies) const
{
    const auto hosts = static_cast<std::size_t>(fleet_.hosts);
    const std::size_t shards =
        (hosts + kFleetHostsPerShard - 1) / kFleetHostsPerShard;

    // Fixed-width shards, positionally owned: worker s writes only
    // accums[s], and folds its hosts in index order. Shard
    // boundaries depend on kFleetHostsPerShard alone — never on
    // jobs — so every double accumulation happens in the same
    // order at every thread count.
    std::vector<ShardAccum> accums(
        shards, ShardAccum(policies.size()));
    pcap::parallelFor(options_.jobs, shards, [&](std::size_t s) {
        const std::size_t first = s * kFleetHostsPerShard;
        const std::size_t last =
            std::min(hosts, first + kFleetHostsPerShard);
        obs::Span span("fleet-shard",
                       "hosts " + std::to_string(first) + "-" +
                           std::to_string(last - 1));
        obs::PerfRegion perf("fleet:shard");
        // One source per shard: its hosts run in turn and reuse its
        // buffers.
        HostExecutionSource source(
            workload::hostProfile(
                fleet_, static_cast<std::uint64_t>(first)),
            cacheParams_);
        for (std::size_t i = first; i < last; ++i) {
            if (i > first)
                source.restart(workload::hostProfile(
                    fleet_, static_cast<std::uint64_t>(i)));
            accums[s].foldHost(runHost(source, policies));
        }
    });

    // Serial merge in shard order: deterministic and cheap — O(K)
    // sketch buckets and candidates per shard, not O(hosts). Each
    // shard's sketches feed the alert engine as firing evidence just
    // before the merge consumes them, still in shard order.
    ShardAccum total(policies.size());
    for (ShardAccum &shard : accums) {
        if (options_.alerts)
            feedAlertSketches(*options_.alerts, shard, policies,
                              /*fleetLevel=*/false);
        total.mergeFrom(std::move(shard));
    }
    accums.clear();
    if (options_.alerts)
        feedAlertSketches(*options_.alerts, total, policies,
                          /*fleetLevel=*/true);

    FleetReport report;
    report.hosts = fleet_.hosts;
    report.executions = total.executions;
    report.accesses = total.accesses;
    report.opportunities = total.opportunities;
    report.simSpanUs = total.simSpanUs;
    report.baseEnergyJ = percentilesOf(total.baseEnergy);
    report.meanBaseEnergyJ =
        hosts ? total.baseSum / static_cast<double>(hosts) : 0.0;

    for (std::size_t p = 0; p < policies.size(); ++p) {
        PolicyAccum &accum = total.policies[p];
        FleetPolicyReport policyReport;
        policyReport.policy = policies[p].label;
        policyReport.energyJ = percentilesOf(accum.energy);
        policyReport.savedFraction = percentilesOf(accum.saved);
        policyReport.hitFraction = percentilesOf(accum.hit);
        policyReport.missFraction = percentilesOf(accum.miss);
        policyReport.meanEnergyJ =
            hosts ? accum.energySum / static_cast<double>(hosts)
                  : 0.0;
        policyReport.meanSavedFraction =
            hosts ? accum.savedSum / static_cast<double>(hosts)
                  : 0.0;
        policyReport.shutdowns = accum.shutdowns;
        policyReport.spinUps = accum.spinUps;

        policyReport.medianSavedFraction =
            accum.saved.quantile(0.5);
        policyReport.madSavedFraction =
            accum.saved.medianAbsDeviation();
        policyReport.medianMissFraction =
            accum.miss.quantile(0.5);
        policyReport.madMissFraction =
            accum.miss.medianAbsDeviation();

        policyReport.outliers = flagOutliers(
            "saved_fraction", accum.savedTails.candidates(),
            policyReport.medianSavedFraction,
            policyReport.madSavedFraction,
            options_.outlierMadThreshold);
        std::vector<FleetOutlier> missOutliers = flagOutliers(
            "miss_fraction", accum.missTails.candidates(),
            policyReport.medianMissFraction,
            policyReport.madMissFraction,
            options_.outlierMadThreshold);
        policyReport.outliers.insert(
            policyReport.outliers.end(),
            std::make_move_iterator(missOutliers.begin()),
            std::make_move_iterator(missOutliers.end()));
        std::sort(policyReport.outliers.begin(),
                  policyReport.outliers.end(), mostDeviantFirst);

        report.policies.push_back(std::move(policyReport));
    }

    if (!options_.drilldownDir.empty()) {
        // Pass 2: re-simulate every flagged host, instrumented.
        // Flags dedup into one ascending host list; slot ownership
        // is positional, so the drilled vector is host-ordered and
        // thread-count independent like everything else here.
        std::vector<std::uint64_t> flagged;
        for (const FleetPolicyReport &policy : report.policies)
            for (const FleetOutlier &outlier : policy.outliers)
                flagged.push_back(outlier.host);
        std::sort(flagged.begin(), flagged.end());
        flagged.erase(
            std::unique(flagged.begin(), flagged.end()),
            flagged.end());

        report.drilldowns.resize(flagged.size());
        pcap::parallelFor(
            options_.jobs, flagged.size(), [&](std::size_t i) {
                report.drilldowns[i] = drillHost(
                    workload::hostProfile(fleet_, flagged[i]),
                    policies, options_.drilldownDir);
            });
        for (HostDrilldown &drill : report.drilldowns) {
            for (const FleetPolicyReport &policy : report.policies)
                for (const FleetOutlier &outlier : policy.outliers)
                    if (outlier.host == drill.cell.host)
                        drill.reasons.push_back(
                            {policy.policy, outlier.metric,
                             outlier.value, outlier.median,
                             outlier.score});
        }
    }

    recordMetrics(report, policies);
    return report;
}

void
FleetDriver::recordMetrics(
    const FleetReport &report,
    const std::vector<PolicyConfig> &policies) const
{
    if (!options_.metrics)
        return;
    // Recorded post-aggregation on the calling thread: series values
    // are deterministic for every thread count.
    obs::ScopedMetrics scope(options_.metrics, {{"mode", "fleet"}});
    scope.gauge("pcap_fleet_hosts")
        .set(static_cast<double>(report.hosts));
    scope.counter("pcap_fleet_executions_total")
        .inc(report.executions);
    scope.counter("pcap_fleet_disk_accesses_total")
        .inc(report.accesses);
    scope.counter("pcap_fleet_idle_opportunities_total")
        .inc(report.opportunities);
    scope.counter("pcap_fleet_sim_span_us_total")
        .inc(report.simSpanUs);
    if (!options_.drilldownDir.empty())
        scope.gauge("pcap_fleet_drilldown_hosts")
            .set(static_cast<double>(report.drilldowns.size()));

    auto quantiles = [](const obs::ScopedMetrics &where,
                        const std::string &name,
                        const FleetPercentiles &p) {
        where.gauge(name, {{"quantile", "0.5"}}).set(p.p50);
        where.gauge(name, {{"quantile", "0.9"}}).set(p.p90);
        where.gauge(name, {{"quantile", "0.99"}}).set(p.p99);
    };
    quantiles(scope.with({{"policy", "base"}}),
              "pcap_fleet_energy_joules", report.baseEnergyJ);

    for (std::size_t p = 0; p < report.policies.size(); ++p) {
        const FleetPolicyReport &policy = report.policies[p];
        const obs::ScopedMetrics policyScope = scope.with(
            {{"policy", policy.policy},
             {"policy_hash", policyHash(policies[p])}});
        quantiles(policyScope, "pcap_fleet_energy_joules",
                  policy.energyJ);
        quantiles(policyScope, "pcap_fleet_saved_fraction",
                  policy.savedFraction);
        quantiles(policyScope, "pcap_fleet_hit_fraction",
                  policy.hitFraction);
        quantiles(policyScope, "pcap_fleet_miss_fraction",
                  policy.missFraction);
        policyScope.counter("pcap_fleet_shutdowns_total")
            .inc(policy.shutdowns);
        policyScope.counter("pcap_fleet_spin_ups_total")
            .inc(policy.spinUps);
        policyScope.gauge("pcap_fleet_saved_fraction_median")
            .set(policy.medianSavedFraction);
        policyScope.gauge("pcap_fleet_saved_fraction_mad")
            .set(policy.madSavedFraction);
        policyScope.gauge("pcap_fleet_miss_fraction_median")
            .set(policy.medianMissFraction);
        policyScope.gauge("pcap_fleet_miss_fraction_mad")
            .set(policy.madMissFraction);
        policyScope.gauge("pcap_fleet_outlier_hosts")
            .set(static_cast<double>(policy.outliers.size()));
    }
}

} // namespace pcap::sim
