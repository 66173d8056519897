/**
 * @file
 * Application-model interface and the registry of the six desktop
 * applications of the paper's Table 1.
 *
 * Each model is a generative stand-in for the strace-collected trace
 * of one application (see the substitution table in DESIGN.md). The
 * models are deterministic functions of (execution index, rng seed),
 * so the whole evaluation is bit-reproducible.
 */

#ifndef PCAP_WORKLOAD_APP_MODEL_HPP
#define PCAP_WORKLOAD_APP_MODEL_HPP

#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace pcap::workload {

/** Static facts about one modeled application. */
struct AppInfo
{
    std::string name;    ///< as in Table 1 ("mozilla", ...)
    int executions = 1;  ///< traced executions (Table 1 column 2)
    std::string summary; ///< one-line behavioural description
};

/** Generative model of one application. */
class AppModel
{
  public:
    virtual ~AppModel() = default;

    /** Facts about the application. */
    virtual const AppInfo &info() const = 0;

    /**
     * Generate the trace of one execution. Equal (execution, rng)
     * pairs generate identical traces. @p storage is cleared and
     * reused for the events (see trace::TraceBuilder).
     */
    virtual trace::Trace
    generate(int execution, Rng rng,
             std::vector<trace::TraceEvent> storage = {}) const = 0;
};

/** Model factory for one application by Table 1 name; null when the
 * name is unknown. */
std::unique_ptr<AppModel> makeApp(const std::string &name);

/** All six applications of Table 1, with the paper's execution
 * counts. */
std::vector<std::unique_ptr<AppModel>> makeStandardApps();

/** The six application names, in Table 1 order. */
std::vector<std::string> standardAppNames();

/**
 * Add one freshly generated trace to @p scope's
 * pcap_workload_generated_* counters (events by type, traced span).
 * Events are tallied locally and each type that occurs costs one
 * counter update, so parallel generators do not contend on the
 * registry; a type absent from every trace gets no series. Only
 * generation records these — cache-loaded inputs skip the generator
 * entirely — so they are excluded from metric diffs by default.
 */
void recordTraceMetrics(const trace::Trace &trace,
                        const obs::ScopedMetrics &scope);

} // namespace pcap::workload

#endif // PCAP_WORKLOAD_APP_MODEL_HPP
