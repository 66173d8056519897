#include "workload/host_profile.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.hpp"

namespace pcap::workload {

namespace {

/** Tag separating the schedule RNG's stream from trace generation
 * (which consumes seed ^ hashString(app)). */
const char kScheduleTag[] = "host-schedule";

/** fatal() unless @p scale can multiply event times: finite and
 * positive (llround of a NaN product is undefined, and a scale of
 * zero collapses every time to 0). */
void
requireThinkScale(double scale, const char *what)
{
    if (!std::isfinite(scale) || scale <= 0.0)
        fatal(std::string(what) + " must be finite and positive, got " +
              std::to_string(scale));
}

int
appExecutionCount(const AppModel &model, int cap)
{
    int executions = model.info().executions;
    if (cap > 0)
        executions = std::min(executions, cap);
    return executions;
}

} // namespace

std::vector<PlannedExecution>
executionPlan(const HostProfile &profile)
{
    std::vector<PlannedExecution> plan;
    if (profile.executions <= 0) {
        // Full-run mode: every mix application's complete execution
        // set, in mix order — the materialized path's schedule.
        for (const AppShare &share : profile.appMix) {
            const auto model = makeApp(share.app);
            if (!model)
                fatal("HostProfile: unknown application '" +
                      share.app + "'");
            const int executions = appExecutionCount(
                *model, profile.maxExecutionsPerApp);
            for (int i = 0; i < executions; ++i)
                plan.push_back({share.app, i});
        }
        return plan;
    }

    std::vector<double> weights;
    weights.reserve(profile.appMix.size());
    for (const AppShare &share : profile.appMix)
        weights.push_back(share.weight);
    if (weights.empty())
        fatal("HostProfile: draw mode needs a non-empty app mix");

    Rng schedule(profile.seed ^ hashString(kScheduleTag));
    std::vector<int> counters(profile.appMix.size(), 0);
    plan.reserve(static_cast<std::size_t>(profile.executions));
    for (int i = 0; i < profile.executions; ++i) {
        const std::size_t pick = schedule.weightedChoice(weights);
        plan.push_back(
            {profile.appMix[pick].app, counters[pick]++});
    }
    return plan;
}

HostProfile
hostProfile(const FleetConfig &config, std::uint64_t host)
{
    requireThinkScale(config.minThinkScale,
                      "FleetConfig: minThinkScale");
    requireThinkScale(config.maxThinkScale,
                      "FleetConfig: maxThinkScale");
    if (config.maxThinkScale < config.minThinkScale)
        fatal("FleetConfig: maxThinkScale " +
              std::to_string(config.maxThinkScale) +
              " is below minThinkScale " +
              std::to_string(config.minThinkScale));

    // Rng(fleetSeed).fork(host) depends only on (fleetSeed, host):
    // profiles are independent of fleet size and of each other.
    Rng rng = Rng(config.fleetSeed).fork(host);

    HostProfile profile;
    profile.host = host;
    profile.seed = rng.next();
    profile.thinkTimeScale =
        config.maxThinkScale > config.minThinkScale
            ? rng.uniformReal(config.minThinkScale,
                              config.maxThinkScale)
            : config.minThinkScale;

    std::vector<std::string> pool =
        config.apps.empty() ? standardAppNames() : config.apps;
    if (pool.empty())
        fatal("FleetConfig: empty application pool");
    const int poolSize = static_cast<int>(pool.size());
    int maxApps = config.maxAppsPerHost;
    if (maxApps <= 0 || maxApps > poolSize)
        maxApps = poolSize;
    const int mixSize = static_cast<int>(
        rng.uniformInt(1, maxApps));

    // Partial Fisher-Yates: the first mixSize slots are a uniform
    // draw of distinct applications.
    for (int i = 0; i < mixSize; ++i) {
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(i, poolSize - 1));
        std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
    }
    profile.appMix.reserve(static_cast<std::size_t>(mixSize));
    for (int i = 0; i < mixSize; ++i) {
        AppShare share;
        share.app = pool[static_cast<std::size_t>(i)];
        share.weight = rng.uniformReal(0.5, 2.0);
        profile.appMix.push_back(std::move(share));
    }

    profile.executions =
        config.executionsMax > 0
            ? static_cast<int>(rng.uniformInt(config.executionsMin,
                                              config.executionsMax))
            : 0;
    profile.maxExecutionsPerApp = config.maxExecutionsPerApp;
    return profile;
}

trace::Trace
scaleTraceTimes(trace::Trace trace, double scale)
{
    if (scale == 1.0)
        return trace;
    std::vector<trace::TraceEvent> events = trace.releaseEvents();
    for (trace::TraceEvent &event : events) {
        event.time = static_cast<TimeUs>(
            std::llround(static_cast<double>(event.time) * scale));
    }
    // Monotone scaling preserves the sort; no re-sort needed.
    return trace::Trace(trace.app(), trace.execution(),
                        std::move(events));
}

HostWorkloadStream::HostWorkloadStream(HostProfile profile)
    : profile_(std::move(profile)), plan_(executionPlan(profile_))
{
    requireThinkScale(profile_.thinkTimeScale,
                      "HostProfile: thinkTimeScale");
}

HostWorkloadStream::AppStream &
HostWorkloadStream::streamOf(const std::string &app)
{
    auto it = streams_.find(app);
    if (it != streams_.end())
        return it->second;
    AppStream stream{makeApp(app),
                     Rng(profile_.seed ^ hashString(app)), 0};
    if (!stream.model)
        fatal("HostWorkloadStream: unknown application '" + app +
              "'");
    return streams_.emplace(app, std::move(stream)).first->second;
}

std::optional<trace::Trace>
HostWorkloadStream::next(std::vector<trace::TraceEvent> storage)
{
    if (index_ == plan_.size())
        return std::nullopt;
    const PlannedExecution &planned = plan_[index_++];
    AppStream &stream = streamOf(planned.app);
    if (stream.nextFork != planned.appExecution)
        fatal("HostWorkloadStream: out-of-order execution plan for '" +
              planned.app + "'");
    // Sequential forks from the persistent app RNG — exactly the
    // derivation sim::generateTraces uses for the materialized path.
    Rng execution_rng = stream.rng.fork(
        static_cast<std::uint64_t>(stream.nextFork));
    ++stream.nextFork;
    return scaleTraceTimes(
        stream.model->generate(planned.appExecution, execution_rng,
                               std::move(storage)),
        profile_.thinkTimeScale);
}

} // namespace pcap::workload
