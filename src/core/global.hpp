/**
 * @file
 * The Global Shutdown Predictor (Section 5): per-process local
 * predictors whose standing decisions are combined so the disk is
 * shut down only when every live process consents.
 */

#ifndef PCAP_CORE_GLOBAL_HPP
#define PCAP_CORE_GLOBAL_HPP

#include <functional>
#include <memory>
#include <tuple>
#include <vector>

#include "pred/predictor.hpp"
#include "trace/event.hpp"

namespace pcap::core {

/** What a local predictor sees of @p access, given its process's
 * previous disk-access time (-1 for the process's first access). */
inline pred::IoContext
ioContextOf(const trace::DiskAccess &access, TimeUs prevIoTime)
{
    pred::IoContext ctx;
    ctx.time = access.time;
    ctx.sincePrev = prevIoTime >= 0 ? access.time - prevIoTime : -1;
    ctx.pc = access.pc;
    ctx.fd = access.fd;
    ctx.file = access.file;
    ctx.isWrite = access.isWrite;
    return ctx;
}

/**
 * System-wide shutdown prediction for one execution of an
 * application.
 *
 * Each process owns a private local predictor created by the factory
 * (so PCAP processes share their application's prediction table while
 * keeping private signatures, exactly as in Figure 4/5). The global
 * decision is the latest of the live processes' standing decisions:
 * the disk is spun down only once every process consents. The process
 * holding the latest decision attributes the shutdown (primary vs
 * backup), matching the paper's "last decision" accounting in
 * Section 6.4.
 *
 * The winning slot is cached. A start or an access can only replace
 * it by a slot that beats it; all slots are rescanned only after the
 * winner exits or its own decision gets worse, so an access costs a
 * short pid scan, one local onIo and one comparison.
 */
class GlobalShutdownPredictor
{
  public:
    /** Creates the local predictor for a new process. */
    using Factory = std::function<
        std::unique_ptr<pred::ShutdownPredictor>(Pid, TimeUs)>;

    explicit GlobalShutdownPredictor(Factory factory);

    /**
     * A process joins (initial process or fork). Its local predictor
     * starts with consent-from-start: a process that never performs
     * I/O never keeps the disk spinning.
     */
    void processStart(Pid pid, TimeUs time);

    /** A process exits; its constraint disappears. */
    void processExit(Pid pid, TimeUs time);

    /** True when @p pid is currently registered and live. */
    bool isLive(Pid pid) const { return find(pid) != slots_.size(); }

    /** Number of live processes. */
    std::size_t liveCount() const { return slots_.size(); }

    /**
     * Feed one disk access. The responsible process must be live
     * (processes are registered by processStart). Computes the
     * process's idle gap internally, updates its local predictor and
     * returns the new *global* decision.
     */
    pred::ShutdownDecision onAccess(const trace::DiskAccess &access);

    /** Current global decision (combine of all live processes). */
    pred::ShutdownDecision globalDecision() const
    {
        return globalDecisionDetailed().decision;
    }

    /** A global decision together with the process that holds it —
     * the paper's "last decision" attribution, exposed for the
     * provenance observer. */
    struct AttributedDecision
    {
        pred::ShutdownDecision decision;
        Pid pid = -1; ///< deciding process, -1 with none live
    };

    /** globalDecision() plus the pid holding the winning decision. */
    AttributedDecision globalDecisionDetailed() const
    {
        if (slots_.empty())
            return {{0, pred::DecisionSource::None}, -1}; // none live
        if (stale_)
            rescan();
        const Slot &winner = slots_[winner_];
        return {winner.decision, winner.pid};
    }

    /** Standing decision of one live process (testing hook). */
    pred::ShutdownDecision localDecision(Pid pid) const;

  private:
    struct Slot
    {
        Pid pid = -1;
        std::unique_ptr<pred::ShutdownPredictor> predictor;
        TimeUs lastIoTime = -1;
        pred::ShutdownDecision decision;
    };

    /** Whether @p a wins the combine over @p b: the later earliest
     * time (kTimeNever always wins), then the later lastIoTime ("last
     * decision" attribution), then the lower pid. */
    static bool beats(const Slot &a, const Slot &b)
    {
        return std::tie(a.decision.earliest, a.lastIoTime, b.pid) >
               std::tie(b.decision.earliest, b.lastIoTime, a.pid);
    }

    /** Index of @p pid's slot, or slots_.size() when not live. */
    std::size_t find(Pid pid) const
    {
        std::size_t i = 0;
        while (i < slots_.size() && slots_[i].pid != pid)
            ++i;
        return i;
    }

    /** Recompute winner_ over every slot and clear stale_. */
    void rescan() const;

    Factory factory_;
    // Live processes, unordered (exit swap-removes). A pid is found
    // by linear scan: executions have a handful of live processes.
    std::vector<Slot> slots_;
    // Cache state: a const query may rescan, so even const calls on
    // one predictor must not race.
    mutable std::size_t winner_ = 0; ///< cached beats() maximum
    mutable bool stale_ = false;     ///< winner_ needs a rescan()
};

} // namespace pcap::core

#endif // PCAP_CORE_GLOBAL_HPP
