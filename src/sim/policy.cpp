#include "sim/policy.hpp"

#include "util/logging.hpp"

namespace pcap::sim {

PolicyConfig
PolicyConfig::timeoutPolicy(TimeUs timer)
{
    PolicyConfig config;
    config.kind = PolicyKind::Timeout;
    config.label = "TP";
    config.timeout = timer;
    return config;
}

PolicyConfig
PolicyConfig::learningTree()
{
    PolicyConfig config;
    config.kind = PolicyKind::LearningTree;
    config.label = "LT";
    return config;
}

PolicyConfig
PolicyConfig::learningTreeNoReuse()
{
    PolicyConfig config = learningTree();
    config.label = "LTa";
    config.reuseTables = false;
    return config;
}

PolicyConfig
PolicyConfig::pcapBase()
{
    PolicyConfig config;
    config.kind = PolicyKind::Pcap;
    config.label = "PCAP";
    return config;
}

PolicyConfig
PolicyConfig::pcapHistory()
{
    PolicyConfig config = pcapBase();
    config.label = "PCAPh";
    config.pcap.useHistory = true;
    return config;
}

PolicyConfig
PolicyConfig::pcapFd()
{
    PolicyConfig config = pcapBase();
    config.label = "PCAPf";
    config.pcap.useFd = true;
    return config;
}

PolicyConfig
PolicyConfig::pcapFdHistory()
{
    PolicyConfig config = pcapBase();
    config.label = "PCAPfh";
    config.pcap.useFd = true;
    config.pcap.useHistory = true;
    return config;
}

PolicyConfig
PolicyConfig::pcapNoReuse()
{
    PolicyConfig config = pcapBase();
    config.label = "PCAPa";
    config.reuseTables = false;
    return config;
}

PolicyConfig
PolicyConfig::expAveragePolicy()
{
    PolicyConfig config;
    config.kind = PolicyKind::ExpAverage;
    config.label = "EA";
    return config;
}

PolicyConfig
PolicyConfig::busyRatioPolicy()
{
    PolicyConfig config;
    config.kind = PolicyKind::BusyRatio;
    config.label = "SB";
    return config;
}

PolicyConfig
PolicyConfig::adaptiveTimeoutPolicy()
{
    PolicyConfig config;
    config.kind = PolicyKind::AdaptiveTimeout;
    config.label = "ATP";
    return config;
}

// -- Policy registry -------------------------------------------

namespace {

struct RegistryEntry
{
    const char *name;
    PolicyConfig (*make)();
};

// Factories with default arguments need a forwarding lambda to decay
// to a plain function pointer.
const RegistryEntry kRegistry[] = {
    {"TP", +[] { return PolicyConfig::timeoutPolicy(); }},
    {"LT", +[] { return PolicyConfig::learningTree(); }},
    {"LTa", +[] { return PolicyConfig::learningTreeNoReuse(); }},
    {"PCAP", +[] { return PolicyConfig::pcapBase(); }},
    {"PCAPh", +[] { return PolicyConfig::pcapHistory(); }},
    {"PCAPf", +[] { return PolicyConfig::pcapFd(); }},
    {"PCAPfh", +[] { return PolicyConfig::pcapFdHistory(); }},
    {"PCAPa", +[] { return PolicyConfig::pcapNoReuse(); }},
    {"EA", +[] { return PolicyConfig::expAveragePolicy(); }},
    {"SB", +[] { return PolicyConfig::busyRatioPolicy(); }},
    {"ATP", +[] { return PolicyConfig::adaptiveTimeoutPolicy(); }},
};

} // namespace

const std::vector<std::string> &
policyNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> list;
        for (const RegistryEntry &entry : kRegistry)
            list.emplace_back(entry.name);
        return list;
    }();
    return names;
}

std::optional<PolicyConfig>
findPolicy(const std::string &name)
{
    for (const RegistryEntry &entry : kRegistry) {
        if (name == entry.name)
            return entry.make();
    }
    return std::nullopt;
}

PolicyConfig
policyByName(const std::string &name)
{
    std::optional<PolicyConfig> config = findPolicy(name);
    if (!config) {
        std::string known;
        for (const std::string &label : policyNames())
            known += (known.empty() ? "" : " ") + label;
        fatal("unknown policy \"" + name + "\" (known: " + known +
              ")");
    }
    return *config;
}

PolicySession::PolicySession(const PolicyConfig &config)
    : config_(config)
{
    switch (config_.kind) {
      case PolicyKind::Timeout:
      case PolicyKind::ExpAverage:
      case PolicyKind::BusyRatio:
      case PolicyKind::AdaptiveTimeout:
        break;
      case PolicyKind::LearningTree:
        // Keep the backup timer consistent with the policy timeout.
        config_.lt.timeout = config_.timeout;
        tree_ = std::make_shared<pred::LtTree>(config_.lt);
        break;
      case PolicyKind::Pcap:
        config_.pcap.timeout = config_.timeout;
        table_ = std::make_shared<core::PredictionTable>();
        break;
    }
}

void
PolicySession::beginExecution()
{
    if (config_.reuseTables)
        return;
    if (table_)
        table_->clear();
    if (tree_)
        tree_->clear();
}

std::unique_ptr<pred::ShutdownPredictor>
PolicySession::makeLocal(Pid pid, TimeUs start_time)
{
    switch (config_.kind) {
      case PolicyKind::Timeout:
        return std::make_unique<pred::TimeoutPredictor>(
            config_.timeout, start_time);
      case PolicyKind::LearningTree:
        return std::make_unique<pred::LtPredictor>(config_.lt, tree_,
                                                   start_time);
      case PolicyKind::Pcap: {
        auto predictor = std::make_unique<core::PcapPredictor>(
            config_.pcap, table_, start_time);
        if (tap_)
            predictor->attachProvenance(tap_, pid);
        return predictor;
      }
      case PolicyKind::ExpAverage:
        return std::make_unique<pred::ExpAveragePredictor>(
            config_.expAverage, start_time);
      case PolicyKind::BusyRatio:
        return std::make_unique<pred::BusyRatioPredictor>(
            config_.busyRatio, start_time);
      case PolicyKind::AdaptiveTimeout:
        return std::make_unique<pred::AdaptiveTimeoutPredictor>(
            config_.adaptive, start_time);
    }
    panic("PolicySession::makeLocal: unknown policy kind");
}

std::size_t
PolicySession::tableEntries() const
{
    if (table_)
        return table_->size();
    if (tree_)
        return tree_->size();
    return 0;
}

std::uint64_t
PolicySession::tableEvictions() const
{
    return table_ ? table_->evictions() : 0;
}

void
recordSessionMetrics(const PolicySession &session,
                     const obs::ScopedMetrics &scope)
{
    if (!scope.enabled())
        return;
    scope.gauge("pcap_predictor_table_entries")
        .set(static_cast<double>(session.tableEntries()));
    scope.gauge("pcap_predictor_table_evictions")
        .set(static_cast<double>(session.tableEvictions()));
}

} // namespace pcap::sim
