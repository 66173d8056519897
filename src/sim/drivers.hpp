/**
 * @file
 * The built-in policy drivers: one per evaluation mode of the paper.
 *
 *  - GlobalDriver: the full multiprocess simulation — the Global
 *    Shutdown Predictor combines per-process decisions (Figures
 *    7-10); Options::multiState adds the Section 7 low-power parking
 *    extension.
 *  - LocalDriver: every process's stream judged by its own local
 *    predictor in isolation, diskless (Figure 6).
 *  - BaseDriver: no power management (Figure 8 "Base").
 *  - OracleDriver: future knowledge — spin down at the start of
 *    exactly the idle periods long enough to pay off (Figure 8
 *    "Ideal").
 */

#ifndef PCAP_SIM_DRIVERS_HPP
#define PCAP_SIM_DRIVERS_HPP

#include <memory>
#include <optional>
#include <vector>

#include "core/global.hpp"
#include "sim/kernel.hpp"
#include "sim/policy.hpp"

namespace pcap::sim {

/** Full multiprocess replay behind the Global Shutdown Predictor. */
class GlobalDriver final : public PolicyDriver
{
  public:
    struct Options
    {
        /** Park the disk in the low-power idle mode on every
         * primary prediction (the multi-state extension). */
        bool multiState = false;
    };

    explicit GlobalDriver(PolicySession &session);
    GlobalDriver(PolicySession &session, Options options);

    bool usesDisk() const override { return true; }
    void beginExecution(const ExecutionInput &input) override;
    void processStart(Pid pid, TimeUs time) override;
    void processExit(Pid pid, TimeUs time, IdleSink &sink) override;
    pred::ShutdownDecision standingDecision() const override;
    void onAccess(const trace::DiskAccess &access, TimeUs completion,
                  IdleSink &sink) override;
    bool parkLowPower() const override { return park_; }

    /** Pid holding the current global decision — the provenance
     * observer's attribution query (see bindDecisionPid). */
    Pid decisionPid() const
    {
        return gsp_ ? gsp_->globalDecisionDetailed().pid : -1;
    }

  private:
    PolicySession &session_;
    Options options_;
    std::optional<core::GlobalShutdownPredictor> gsp_;
    bool park_ = false;
};

/**
 * Diskless per-process replay: each process's accesses feed a
 * private local predictor, and each per-process idle period is
 * classified through the sink. Accesses arrive in the input's
 * (time, pid) order, so processes sharing a prediction table train
 * it in the same order as under the global replay.
 */
class LocalDriver final : public PolicyDriver
{
  public:
    explicit LocalDriver(PolicySession &session);

    bool usesDisk() const override { return false; }
    void beginExecution(const ExecutionInput &input) override;
    void onAccess(const trace::DiskAccess &access, TimeUs completion,
                  IdleSink &sink) override;
    void endExecution(const ExecutionInput &input,
                      IdleSink &sink) override;

  private:
    struct Ctx
    {
        Pid pid = -1;
        std::unique_ptr<pred::ShutdownPredictor> predictor;
        TimeUs prev = -1;
        pred::ShutdownDecision decision;
        TimeUs spanEnd = 0;
    };

    PolicySession &session_;
    /** One context per process span, sorted by pid (binary search:
     * a hostile input with many processes stays O(log n)). */
    std::vector<Ctx> contexts_;
    bool warnedUnknownPid_ = false;
};

/** No power management: the disk never spins down. */
class BaseDriver final : public PolicyDriver
{
  public:
    bool usesDisk() const override { return true; }
    void beginExecution(const ExecutionInput &input) override
    {
        (void)input;
    }
    void onAccess(const trace::DiskAccess &access, TimeUs completion,
                  IdleSink &sink) override
    {
        (void)access;
        (void)completion;
        (void)sink;
    }
};

/**
 * Oracle with future knowledge: after each access it peeks at the
 * next access time and consents to a spin-down at the service
 * completion exactly when the off-time would pay off.
 */
class OracleDriver final : public PolicyDriver
{
  public:
    bool usesDisk() const override { return true; }
    void beginExecution(const ExecutionInput &input) override;
    pred::ShutdownDecision standingDecision() const override
    {
        return decision_;
    }
    void onAccess(const trace::DiskAccess &access, TimeUs completion,
                  IdleSink &sink) override;

  private:
    const ExecutionInput *input_ = nullptr;
    std::size_t index_ = 0; ///< trace index of the next access
    pred::ShutdownDecision decision_;
};

} // namespace pcap::sim

#endif // PCAP_SIM_DRIVERS_HPP
