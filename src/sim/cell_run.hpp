/**
 * @file
 * One replay cell, assembled: the policy session, the driver for the
 * cell's mode, the observer stack and the kernel. The experiment
 * engine's cells, the fleet's host cells and the fleet's drill-downs
 * all replay through it, so the three build a cell the same way.
 */

#ifndef PCAP_SIM_CELL_RUN_HPP
#define PCAP_SIM_CELL_RUN_HPP

#include <memory>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/timeline.hpp"
#include "sim/kernel.hpp"
#include "sim/observer.hpp"
#include "sim/policy.hpp"

namespace pcap::sim {

/** How one simulation cell evaluates its inputs. */
enum class CellMode {
    Local,      ///< per-process accuracy (Figure 6)
    Global,     ///< full multiprocess run (Figures 7-10)
    MultiState, ///< Section 7 extension
    Base,       ///< no power management
    Ideal,      ///< oracle
};

/** Where one cell writes its artifacts, each file named
 * <dir>/<meta.cell>.<ext>; an empty directory writes no file. */
struct CellArtifacts
{
    /** Directory of the .prov.bin file (policy cells only). */
    std::string provenanceDir;

    /** Directory of the .timeline.json file. */
    std::string timelineDir;

    /** The timeline's meta block; its cell name is the file stem. */
    obs::TimelineMeta meta;
};

/**
 * One cell's replay state. Local, Global and MultiState cells own a
 * PolicySession built from the policy; Base and Ideal cells have
 * none. The observer stack holds a MetricsObserver (when the scope
 * is enabled), a ProvenanceObserver writing the .prov.bin file
 * (policy cells with a provenance directory) and a TimelineObserver
 * (with a timeline directory), behind a tee when more than one is
 * active, or the shared NullObserver when none is. Global and
 * MultiState cells attribute provenance to the pid holding the
 * global decision; Local cells replay without disk tracking.
 *
 * replay() may be called for any number of executions; learned
 * state carries across them. finish() once after the last.
 */
class CellRun
{
  public:
    /** @p policy is required for Local, Global and MultiState cells
     * and ignored by Base and Ideal cells. */
    CellRun(const SimParams &sim, CellMode mode,
            const PolicyConfig *policy = nullptr,
            obs::ScopedMetrics scope = {},
            const CellArtifacts &artifacts = {});

    CellRun(const CellRun &) = delete;
    CellRun &operator=(const CellRun &) = delete;

    /** Replay one execution. */
    RunResult replay(const ExecutionInput &input)
    {
        return kernel_->runExecution(input, *driver_);
    }

    /**
     * Close the provenance file, write the timeline JSON, and
     * record the session's table metrics into the scope.
     * Returns the learned-state size (0 without a session).
     */
    std::size_t finish();

  private:
    obs::ScopedMetrics scope_;
    std::optional<PolicySession> session_;
    std::unique_ptr<PolicyDriver> driver_;
    std::unique_ptr<MetricsObserver> metrics_;
    std::unique_ptr<obs::BinaryProvenanceWriter> provFile_;
    std::unique_ptr<ProvenanceObserver> provenance_;
    std::unique_ptr<TimelineObserver> timeline_;
    CellArtifacts artifacts_;
    std::unique_ptr<TeeObserver> tee_;
    std::optional<SimulationKernel> kernel_;
};

} // namespace pcap::sim

#endif // PCAP_SIM_CELL_RUN_HPP
