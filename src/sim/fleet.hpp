/**
 * @file
 * Fleet driver: N independent power-managed host cells, streamed.
 *
 * Each host cell owns its full simulation state — one CellRun
 * (session, GlobalDriver, kernel) per evaluated policy plus a Base
 * CellRun for the no-power-management baseline — and replays its
 * HostProfile's workload through a HostExecutionSource: traces are
 * generated, filtered, replayed and discarded one execution at a
 * time, so peak memory is O(jobs) ExecutionInputs plus O(shards)
 * aggregation state no matter the fleet size.
 *
 * Aggregation streams too: hosts fold into fixed-size shard
 * accumulators (integer counts, obs::LogSketch quantile sketches,
 * bounded extreme-value candidate lists) the moment their cell
 * finishes, and shards merge in index order on the calling thread —
 * so across-hosts percentiles are bit-identical for every thread
 * count without ever materializing a per-host vector. The shard
 * width is a fixed constant (not derived from jobs) for the same
 * reason. The headline output is the across-hosts distribution —
 * energy and accuracy percentiles plus per-host outliers — rather
 * than the paper's per-app means.
 */

#ifndef PCAP_SIM_FLEET_HPP
#define PCAP_SIM_FLEET_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/sketch.hpp"
#include "sim/kernel.hpp"
#include "sim/policy.hpp"
#include "workload/host_profile.hpp"

namespace pcap::obs {
class AlertEngine;
}

namespace pcap::sim {

class HostExecutionSource;

/** Hosts folded into one shard accumulator. Fixed (independent of
 * the thread count) so shard boundaries — and therefore the merge
 * order and every double sum — never depend on jobs. */
constexpr std::size_t kFleetHostsPerShard = 16;

/** Extreme per-host values kept per distribution tail as outlier
 * candidates; the k·MAD filter runs over these after the merge. A
 * fleet with more than this many true outliers in one tail reports
 * the most deviant kFleetOutlierCandidates of them. */
constexpr std::size_t kFleetOutlierCandidates = 32;

/** Percentiles of a per-host distribution (p50/p90/p99). */
struct FleetPercentiles
{
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
};

/** Nearest-rank percentiles (p50/p90/p99) of @p values; all zeros
 * for an empty vector. Sorts a copy — deterministic by construction.
 * The exact reference the sketch percentiles are tested against. */
FleetPercentiles percentilesOf(std::vector<double> values);

/** Percentiles read from a quantile sketch (within the sketch's
 * relative accuracy of the nearest-rank answer). */
FleetPercentiles percentilesOf(const obs::LogSketch &sketch);

/** One host flagged as unhealthy for one distribution. */
struct FleetOutlier
{
    std::uint64_t host = 0;
    std::string metric; ///< "saved_fraction" or "miss_fraction"
    double value = 0.0;
    double median = 0.0; ///< distribution median at flag time
    /** |value - median| in MAD units (the k of the k·MAD test). */
    double score = 0.0;
};

/** One extreme-value candidate: a host and its metric value. */
struct FleetHostValue
{
    std::uint64_t host = 0;
    double value = 0.0;
};

/**
 * Flag candidates whose |value - median| exceeds
 * @p madThreshold · max(@p mad, epsilon), labelled @p metric.
 * Returns flagged outliers sorted most-deviant first (score
 * descending, host ascending on ties); duplicate hosts keep one
 * entry. Pure — unit-testable without running a fleet.
 */
std::vector<FleetOutlier>
flagOutliers(const std::string &metric,
             const std::vector<FleetHostValue> &candidates,
             double median, double mad, double madThreshold);

/** Everything one host cell produced. */
struct HostCellResult
{
    std::uint64_t host = 0;
    std::uint64_t executions = 0;
    std::uint64_t accesses = 0; ///< post-cache disk accesses replayed
    std::uint64_t simSpanUs = 0; ///< replayed simulated span (µs)
    double thinkTimeScale = 1.0;

    RunResult base; ///< no power management (the energy baseline)

    /** One merged run per evaluated policy, in request order. */
    std::vector<RunResult> policyRuns;

    /** Learned-state size per policy after the host's last
     * execution, parallel to policyRuns. */
    std::vector<std::size_t> tableEntries;
};

/** One policy's per-host headline figures. */
struct HostPolicyFractions
{
    double energyJ = 0.0;
    double saved = 0.0; ///< 1 - energy/base; 0 without base energy
    double hit = 0.0;
    double miss = 0.0;
};

/** Policy @p p's energy in @p cell, its savings against the cell's
 * base run and its accuracy fractions: the one formula the fleet's
 * sketches, its drill-down index and its drill table all read. */
HostPolicyFractions hostPolicyFractions(const HostCellResult &cell,
                                        std::size_t p);

/** Across-hosts aggregate of one policy. */
struct FleetPolicyReport
{
    std::string policy;

    FleetPercentiles energyJ;       ///< per-host total energy
    FleetPercentiles savedFraction; ///< 1 - energy/base, per host
    FleetPercentiles hitFraction;
    FleetPercentiles missFraction;

    double meanEnergyJ = 0.0;
    double meanSavedFraction = 0.0;

    /** Center/spread of the outlier-tested distributions. */
    double medianSavedFraction = 0.0;
    double madSavedFraction = 0.0;
    double medianMissFraction = 0.0;
    double madMissFraction = 0.0;

    std::uint64_t shutdowns = 0; ///< fleet total
    std::uint64_t spinUps = 0;   ///< fleet total

    /** Hosts whose savings or miss rate sit more than
     * FleetOptions::outlierMadThreshold MADs from the fleet median,
     * most deviant first. */
    std::vector<FleetOutlier> outliers;
};

/** Why a host was re-simulated: one pass-1 outlier flag. */
struct DrilldownReason
{
    std::string policy; ///< policy whose distribution flagged it
    std::string metric; ///< "saved_fraction" or "miss_fraction"
    double value = 0.0;
    double median = 0.0;
    double score = 0.0; ///< |value - median| in MAD units
};

/** One policy's artifacts and cost in a drilled re-run; its
 * results are the HostDrilldown cell's. */
struct DrilldownPolicy
{
    std::string policy;
    std::string stem; ///< artifact basename (no directory/extension)

    /** Hardware-counter delta over this policy's drilled replay;
     * only populated (hasPerf) when a PerfProfiler was installed
     * for the run, so default drill-downs stay byte-identical. */
    obs::PerfCounts perf;
    bool hasPerf = false;
};

/**
 * The pass-2 re-simulation of one flagged host, fully instrumented:
 * the same host replay as pass 1 (so @c cell equals pass 1's result
 * field for field), plus per policy one provenance file (.prov.bin)
 * and one timeline (.timeline.json), both named <stem>.<ext> inside
 * the drill-down directory.
 */
struct HostDrilldown
{
    HostCellResult cell;
    std::uint64_t seed = 0; ///< the host's derived workload seed
    std::vector<DrilldownReason> reasons; ///< pass-1 outlier flags
    std::vector<DrilldownPolicy> policies; ///< parallel to cell.policyRuns
};

/** The fleet run's aggregate output. */
struct FleetReport
{
    std::uint64_t hosts = 0;
    std::uint64_t executions = 0;
    std::uint64_t accesses = 0;
    std::uint64_t opportunities = 0; ///< breakeven-exceeding periods
    std::uint64_t simSpanUs = 0;     ///< fleet-total simulated span

    FleetPercentiles baseEnergyJ;
    double meanBaseEnergyJ = 0.0;

    std::vector<FleetPolicyReport> policies;

    /** Flagged hosts re-simulated with full instrumentation, in
     * host order; only with FleetOptions::drilldownDir. */
    std::vector<HostDrilldown> drilldowns;
};

/** Knobs of a fleet run. */
struct FleetOptions
{
    /** Worker threads host shards spread across; 1 = inline, 0 =
     * the hardware count. */
    unsigned jobs = 1;

    /** Registry the aggregate fleet metrics are recorded into
     * (labelled {mode="fleet"}), or null to disable. Recording
     * happens after the parallel phase, on the calling thread, so
     * series are deterministic for every thread count. */
    obs::MetricsRegistry *metrics = nullptr;

    /** A host is an outlier when its value sits more than this many
     * MADs from the fleet median (the robust z-score cut; 3.5 is
     * the conventional Iglewicz-Hoaglin threshold). */
    double outlierMadThreshold = 3.5;

    /**
     * Alert engine fed the fleet's quantile distributions, or null.
     * Each shard's sketches land via addQuantileEvidence in shard
     * order during the serial merge, the fleet-level merged sketches
     * via setQuantileValue — all on the calling thread, so verdicts
     * are deterministic for every thread count. The caller still
     * owns finalize().
     */
    obs::AlertEngine *alerts = nullptr;

    /**
     * When non-empty: after aggregation, re-simulate every
     * MAD-flagged outlier host with full instrumentation
     * (provenance + timeline per policy) into this directory — the
     * deterministic drill-down pass. Re-runs are bit-identical to
     * pass 1 because a HostProfile is a pure function of (fleet
     * config, host index) and observers never influence the
     * replay.
     */
    std::string drilldownDir;
};

/**
 * Runs a whole fleet. Deterministic: the report is a pure function
 * of (fleet config, sim params, cache params, policies, options
 * other than jobs) — never of jobs.
 */
class FleetDriver
{
  public:
    FleetDriver(workload::FleetConfig fleet, SimParams sim,
                cache::CacheParams cacheParams,
                FleetOptions options = {});

    /**
     * Simulate every host against each of @p policies (each policy a
     * GlobalDriver with private session state per host) plus the
     * Base baseline, and aggregate across hosts.
     */
    FleetReport run(const std::vector<PolicyConfig> &policies) const;

    /**
     * One host cell, streamed generate-replay-discard; run() folds
     * exactly this per host. Public for parity tests: a pure
     * single-app profile with scale 1.0 must be RunResult-field-equal
     * to ParallelEvaluation::globalRun over materialized inputs.
     */
    HostCellResult
    runHost(const workload::HostProfile &profile,
            const std::vector<PolicyConfig> &policies) const;

    /**
     * Re-simulate one host with full instrumentation, writing one
     * provenance file and timeline per policy into @p dir (stems
     * "host<id>-<policy>-<hash16>"). The replay is runHost's own
     * loop and observers are passive, so the drill's cell equals
     * runHost's and its artifacts answer "why was pass 1's number
     * what it was". Public for the drill-down determinism tests.
     */
    HostDrilldown
    drillHost(const workload::HostProfile &profile,
              const std::vector<PolicyConfig> &policies,
              const std::string &dir) const;

    const workload::FleetConfig &fleet() const { return fleet_; }

  private:
    /**
     * The one host replay loop: runHost over @p source's host,
     * streamed from @p source. With @p drilled it also drills: each
     * policy's cell writes its artifacts into @p drillDir, and
     * @p drilled receives per policy its stem and counter delta.
     */
    HostCellResult
    runHost(HostExecutionSource &source,
            const std::vector<PolicyConfig> &policies,
            std::vector<DrilldownPolicy> *drilled = nullptr,
            const std::string &drillDir = {}) const;

    void recordMetrics(const FleetReport &report,
                       const std::vector<PolicyConfig> &policies)
        const;

    workload::FleetConfig fleet_;
    SimParams sim_;
    cache::CacheParams cacheParams_;
    FleetOptions options_;
};

} // namespace pcap::sim

#endif // PCAP_SIM_FLEET_HPP
