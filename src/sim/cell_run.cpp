#include "sim/cell_run.hpp"

#include <utility>
#include <vector>

#include "sim/drivers.hpp"
#include "util/logging.hpp"

namespace pcap::sim {

CellRun::CellRun(const SimParams &sim, CellMode mode,
                 const PolicyConfig *policy, obs::ScopedMetrics scope,
                 const CellArtifacts &artifacts)
    : scope_(std::move(scope)), artifacts_(artifacts)
{
    const bool trackDisk = mode != CellMode::Local;
    if (mode != CellMode::Base && mode != CellMode::Ideal) {
        if (!policy)
            panic("CellRun: a policy cell needs a policy");
        session_.emplace(*policy);
    }
    GlobalDriver *global = nullptr;
    switch (mode) {
    case CellMode::Local:
        driver_ = std::make_unique<LocalDriver>(*session_);
        break;
    case CellMode::Global:
    case CellMode::MultiState: {
        auto driver = std::make_unique<GlobalDriver>(
            *session_, GlobalDriver::Options{
                           .multiState = mode == CellMode::MultiState});
        global = driver.get();
        driver_ = std::move(driver);
        break;
    }
    case CellMode::Base:
        driver_ = std::make_unique<BaseDriver>();
        break;
    case CellMode::Ideal:
        driver_ = std::make_unique<OracleDriver>();
        break;
    }

    std::vector<SimObserver *> children;
    if (scope_.enabled()) {
        metrics_ = std::make_unique<MetricsObserver>(
            scope_, sim.breakeven(), trackDisk);
        children.push_back(metrics_.get());
    }
    if (session_ && !artifacts.provenanceDir.empty()) {
        provFile_ = std::make_unique<obs::BinaryProvenanceWriter>(
            artifacts.provenanceDir + "/" + artifacts.meta.cell +
            ".prov.bin");
        provenance_ =
            std::make_unique<ProvenanceObserver>(*provFile_, sim.disk);
        session_->setProvenanceTap(provenance_.get());
        if (global) {
            provenance_->bindDecisionPid(
                [global] { return global->decisionPid(); });
        }
        children.push_back(provenance_.get());
    }
    if (!artifacts.timelineDir.empty()) {
        timeline_ = std::make_unique<TimelineObserver>(sim.disk, trackDisk);
        if (session_) {
            timeline_->bindTableSize(
                [this] { return session_->tableEntries(); });
        }
        children.push_back(timeline_.get());
    }

    SimObserver *observer = &nullObserver();
    if (children.size() > 1) {
        tee_ = std::make_unique<TeeObserver>(std::move(children));
        observer = tee_.get();
    } else if (children.size() == 1) {
        observer = children.front();
    }
    kernel_.emplace(sim, *observer);
}

std::size_t
CellRun::finish()
{
    if (provFile_)
        provFile_->close();
    if (timeline_) {
        obs::writeTimelineJson(
            timeline_->timeline(), artifacts_.meta,
            artifacts_.timelineDir + "/" + artifacts_.meta.cell +
                ".timeline.json");
    }
    if (!session_)
        return 0;
    recordSessionMetrics(*session_, scope_);
    return session_->tableEntries();
}

} // namespace pcap::sim
