/**
 * @file
 * Parameterized per-host workload profiles for fleet simulation.
 *
 * The paper evaluates six desktop applications, each traced on one
 * machine. A fleet run simulates N independent hosts, each a
 * variation of those workloads: a per-host seed, a think-time scale
 * (the same access pattern, faster or slower human pacing) and an
 * application mix — all drawn deterministically from a single fleet
 * seed, so a fleet of any size is a pure function of its FleetConfig
 * and host index.
 *
 * The derivation is parity-critical: a pure single-app profile with
 * thinkTimeScale == 1 generates the paper's workload of that app,
 * which the experiment engine (sim::ParallelEvaluation) streams this
 * way. Execution i of an app replays an RNG forked from one app RNG
 * (seeded by the workload seed and the app name) after forks
 * 0..i-1 — and Rng::fork advances the parent — so HostWorkloadStream
 * keeps one persistent RNG per application and forks executions in
 * increasing index order, replaying exactly that sequence.
 */

#ifndef PCAP_WORKLOAD_HOST_PROFILE_HPP
#define PCAP_WORKLOAD_HOST_PROFILE_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "workload/app_model.hpp"

namespace pcap::workload {

/** One application's share of a host's execution mix. */
struct AppShare
{
    std::string app;
    double weight = 1.0;
};

/**
 * Everything that determines one host's workload. A profile is
 * self-contained: equal profiles stream equal traces regardless of
 * the fleet they were drawn from.
 */
struct HostProfile
{
    std::uint64_t host = 0; ///< index within the fleet
    std::uint64_t seed = 0; ///< per-host workload seed

    /** Multiplier applied to every event time (1.0 = paper pacing;
     * applied after generation, so 1.0 is bit-exact, not merely
     * close). */
    double thinkTimeScale = 1.0;

    std::vector<AppShare> appMix;

    /**
     * Number of executions to draw from the mix (weighted, from the
     * host's schedule RNG). 0 streams every mix application's full
     * Table 1 execution count in mix order — the parity mode, where
     * a single-app mix generates exactly the paper's workload of
     * that app.
     */
    int executions = 0;

    /** Cap on per-app execution counts in full-run mode (0 = the
     * model's Table 1 count), mirroring
     * ExperimentConfig::maxExecutions. */
    int maxExecutionsPerApp = 0;
};

/** One entry of a host's execution schedule. */
struct PlannedExecution
{
    std::string app;
    int appExecution = 0; ///< per-app execution index
};

/**
 * The host's full execution schedule, in replay order. Deterministic
 * in the profile alone; per-app indices appear in increasing order
 * (the contract HostWorkloadStream's sequential forking relies on).
 */
std::vector<PlannedExecution> executionPlan(const HostProfile &profile);

/**
 * How a fleet of hosts is derived from one seed. Host profiles are
 * independent draws: profile i depends only on (config, i), never on
 * how many hosts exist, so growing a fleet extends it without
 * changing existing hosts.
 */
struct FleetConfig
{
    std::uint64_t fleetSeed = 42;
    std::uint64_t hosts = 1;

    /** Applications hosts draw their mixes from; empty means the six
     * Table 1 applications. */
    std::vector<std::string> apps;

    /** Most applications in one host's mix (clamped to the pool). */
    int maxAppsPerHost = 3;

    /**
     * Range of per-host execution counts, drawn uniformly.
     * executionsMax == 0 puts every host in full-run mode
     * (HostProfile::executions == 0).
     */
    int executionsMin = 4;
    int executionsMax = 12;

    /** Range of per-host think-time scales, drawn uniformly;
     * min == max pins the scale (1.0/1.0 = paper pacing). */
    double minThinkScale = 1.0;
    double maxThinkScale = 1.0;

    /** Forwarded to HostProfile::maxExecutionsPerApp. */
    int maxExecutionsPerApp = 0;
};

/**
 * Derive host @p host of the fleet (see FleetConfig). fatal()s when
 * the think-scale range is not finite, not positive or inverted.
 */
HostProfile hostProfile(const FleetConfig &config, std::uint64_t host);

/**
 * Multiply every event time by @p scale, in place (llround,
 * monotone — the trace stays time-sorted and structurally valid).
 * scale == 1.0 returns the trace unchanged.
 */
trace::Trace scaleTraceTimes(trace::Trace trace, double scale);

/**
 * Streams one host's traces in schedule order, generate-on-demand:
 * only the trace being replayed exists at any time. The
 * generate-replay-discard loop of the fleet driver sits on top of
 * this.
 */
class HostWorkloadStream
{
  public:
    /** fatal()s when the profile's think-time scale is not finite
     * and positive. */
    explicit HostWorkloadStream(HostProfile profile);

    /**
     * The next planned trace, or nullopt when the schedule is
     * exhausted. Think-time scaling is already applied. The trace's
     * events are built in @p storage (see AppModel::generate).
     */
    std::optional<trace::Trace>
    next(std::vector<trace::TraceEvent> storage);

    const HostProfile &profile() const { return profile_; }

    std::size_t planned() const { return plan_.size(); }

    std::size_t produced() const { return index_; }

  private:
    /** Per-app generator state: the model plus the app RNG the
     * execution forks replay through (see file comment). */
    struct AppStream
    {
        std::unique_ptr<AppModel> model;
        Rng rng;
        int nextFork = 0;
    };

    AppStream &streamOf(const std::string &app);

    HostProfile profile_;
    std::vector<PlannedExecution> plan_;
    std::map<std::string, AppStream> streams_;
    std::size_t index_ = 0;
};

} // namespace pcap::workload

#endif // PCAP_WORKLOAD_HOST_PROFILE_HPP
