/**
 * @file
 * Policy configurations and sessions.
 *
 * A PolicyConfig names one power-management policy of the paper's
 * evaluation (TP, LT, PCAP and its variants, plus the LTa/PCAPa
 * no-table-reuse ablations). A PolicySession owns the learned state
 * an application accumulates across executions — the PCAP prediction
 * table or the LT tree — and manufactures the per-process local
 * predictors for the global predictor.
 */

#ifndef PCAP_SIM_POLICY_HPP
#define PCAP_SIM_POLICY_HPP

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pcap.hpp"
#include "core/prediction_table.hpp"
#include "core/provenance_tap.hpp"
#include "obs/metrics.hpp"
#include "pred/adaptive_timeout.hpp"
#include "pred/busy_ratio.hpp"
#include "pred/exp_average.hpp"
#include "pred/learning_tree.hpp"
#include "pred/predictor.hpp"
#include "pred/timeout.hpp"

namespace pcap::sim {

/** Which predictor family a policy uses. */
enum class PolicyKind {
    Timeout,         ///< plain TP
    LearningTree,    ///< LT (with backup TP + wait-window)
    Pcap,            ///< PCAP family (with backup TP + wait-window)
    ExpAverage,      ///< Hwang & Wu exponential average (Section 2)
    BusyRatio,       ///< Srivastava et al. L-shape (Section 2)
    AdaptiveTimeout, ///< Douglis / Golding feedback (Section 2)
};

/** Full description of one policy under evaluation. */
struct PolicyConfig
{
    PolicyKind kind = PolicyKind::Timeout;
    std::string label = "TP";

    /** TP timer, and the backup timer inside LT / PCAP. */
    TimeUs timeout = secondsUs(10.0);

    /** Keep learned tables across executions (Section 4.2). False
     * gives the LTa / PCAPa ablations of Figure 10. */
    bool reuseTables = true;

    pred::LtConfig lt;      ///< used when kind == LearningTree
    core::PcapConfig pcap;  ///< used when kind == Pcap
    pred::ExpAverageConfig expAverage; ///< kind == ExpAverage
    pred::BusyRatioConfig busyRatio;   ///< kind == BusyRatio
    pred::AdaptiveTimeoutConfig adaptive; ///< kind ==
                                          ///< AdaptiveTimeout

    // -- Named factories for the paper's configurations. -----------

    /** TP with the given timer (paper default 10 s). */
    static PolicyConfig timeoutPolicy(TimeUs timer = secondsUs(10.0));

    /** LT: history 8, wait-window 1 s, backup 10 s. */
    static PolicyConfig learningTree();

    /** LTa: LT without table reuse. */
    static PolicyConfig learningTreeNoReuse();

    /** Base PCAP. */
    static PolicyConfig pcapBase();

    /** PCAPh: idle-history context, length 6. */
    static PolicyConfig pcapHistory();

    /** PCAPf: file-descriptor context. */
    static PolicyConfig pcapFd();

    /** PCAPfh: both contexts. */
    static PolicyConfig pcapFdHistory();

    /** PCAPa: base PCAP without table reuse. */
    static PolicyConfig pcapNoReuse();

    /** EA: Hwang & Wu exponential-average predictor. */
    static PolicyConfig expAveragePolicy();

    /** SB: Srivastava et al. short-busy/long-idle predictor. */
    static PolicyConfig busyRatioPolicy();

    /** ATP: feedback-adapted timeout. */
    static PolicyConfig adaptiveTimeoutPolicy();
};

// -- Policy registry -------------------------------------------

/**
 * Labels of every registered policy, in registry (paper) order:
 * TP, LT, LTa, PCAP, PCAPh, PCAPf, PCAPfh, PCAPa, EA, SB, ATP.
 * Benchmarks and the CLI select policies by these names instead of
 * hardcoding factory lists.
 */
const std::vector<std::string> &policyNames();

/** Look up a policy by label; std::nullopt when unknown. */
std::optional<PolicyConfig> findPolicy(const std::string &name);

/** Look up a policy by label; exits with a diagnostic listing the
 * known labels when @p name is not registered. */
PolicyConfig policyByName(const std::string &name);

/**
 * Learned state of one (application, policy) pair plus the local
 * predictor factory. Create one session per application, call
 * beginExecution() before each execution, and use makeLocal as the
 * GlobalShutdownPredictor factory.
 */
class PolicySession
{
  public:
    explicit PolicySession(const PolicyConfig &config);

    /** Configuration this session runs. */
    const PolicyConfig &config() const { return config_; }

    /** Start a new execution: drop learned state unless the policy
     * reuses tables. */
    void beginExecution();

    /** Create the local predictor for a new process. */
    std::unique_ptr<pred::ShutdownPredictor>
    makeLocal(Pid pid, TimeUs start_time);

    /**
     * Entries currently learned: PCAP prediction-table entries or LT
     * tree nodes; 0 for TP (Table 3).
     */
    std::size_t tableEntries() const;

    /** LRU evictions of the PCAP table so far; 0 for non-PCAP. */
    std::uint64_t tableEvictions() const;

    /**
     * Attach the provenance tap: PCAP local predictors created by
     * makeLocal from now on report their decisions to @p tap. Null
     * detaches. The tap must outlive every predictor made while it
     * is attached.
     */
    void setProvenanceTap(core::ProvenanceTap *tap) { tap_ = tap; }

    /** The PCAP table (null unless kind == Pcap); for persistence
     * demos and tests. */
    std::shared_ptr<core::PredictionTable> table() { return table_; }

  private:
    PolicyConfig config_;
    std::shared_ptr<core::PredictionTable> table_; // PCAP state
    std::shared_ptr<pred::LtTree> tree_;           // LT state
    core::ProvenanceTap *tap_ = nullptr;
};

/**
 * Export the session's learned-state gauges —
 * pcap_predictor_table_entries and pcap_predictor_table_evictions —
 * into @p scope. No-op when metrics are disabled.
 */
void recordSessionMetrics(const PolicySession &session,
                          const obs::ScopedMetrics &scope);

} // namespace pcap::sim

#endif // PCAP_SIM_POLICY_HPP
