/**
 * @file
 * PCAP — the Program-Counter Access Predictor (Sections 3-4 of the
 * paper), including the PCAPh / PCAPf / PCAPfh context optimizations.
 */

#ifndef PCAP_CORE_PCAP_HPP
#define PCAP_CORE_PCAP_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "core/prediction_table.hpp"
#include "core/provenance_tap.hpp"
#include "core/signature.hpp"
#include "pred/predictor.hpp"

namespace pcap::core {

/** Configuration of one PCAP variant. */
struct PcapConfig
{
    /** Augment table keys with the idle-period history bit-vector
     * (PCAPh, Section 4.1.2). */
    bool useHistory = false;

    /** Augment table keys with the file descriptor of the triggering
     * I/O (PCAPf, Section 4.1.2). */
    bool useFd = false;

    /** Idle-history length; the paper uses six periods (§6.4.1). */
    int historyLength = 6;

    /** Sliding wait-window (§4.1.1); the paper uses one second. */
    TimeUs waitWindow = secondsUs(1.0);

    /** Backup timeout (§4.3); the paper uses ten seconds. */
    TimeUs timeout = secondsUs(10.0);

    /** Breakeven time of the managed disk. */
    TimeUs breakeven = secondsUs(5.43);

    /** Whether the backup timeout predictor is active. */
    bool backupEnabled = true;

    /**
     * Extension (not in the paper, evaluated as an ablation): drop a
     * table entry as soon as it causes a misprediction.
     */
    bool unlearnOnMisprediction = false;

    /** "PCAP", "PCAPh", "PCAPf" or "PCAPfh". */
    std::string variantName() const;
};

/**
 * Per-process PCAP predictor.
 *
 * Keeps the process's current path signature (stored in the kernel
 * process-status structure in the paper's design, Figure 4) and its
 * idle-history bit-vector, and consults the application-wide shared
 * prediction table. Training happens when an idle period longer than
 * the breakeven time completes: the key that was current when the
 * period began is inserted into the table (Section 3.2).
 */
class PcapPredictor : public pred::ShutdownPredictor
{
  public:
    /**
     * @param config Variant configuration.
     * @param table Shared per-application prediction table.
     * @param start_time Process start, for the initial consent.
     */
    PcapPredictor(const PcapConfig &config,
                  std::shared_ptr<PredictionTable> table,
                  TimeUs start_time = 0);

    pred::ShutdownDecision onIo(const pred::IoContext &ctx) override;
    pred::ShutdownDecision decision() const override
    {
        return decision_;
    }
    void resetExecution() override;
    const char *name() const override;

    /** Current path signature (testing hook). */
    std::uint32_t signature() const { return signature_.value(); }

    /** Current idle-history bits (testing hook). */
    std::uint16_t historyBits() const { return historyBits_; }

    /** Number of periods currently in the history. */
    int historyLength() const { return historyLen_; }

    /** Primary predictions issued so far. */
    std::uint64_t predictions() const { return predictions_; }

    /** Primary predictions later contradicted by a short idle
     * period (>= wait-window, < breakeven). */
    std::uint64_t mispredictionsObserved() const
    {
        return mispredictionsObserved_;
    }

    /** New table entries this predictor inserted. */
    std::uint64_t trainingInserts() const { return trainingInserts_; }

    /** The shared table (testing hook). */
    const PredictionTable &table() const { return *table_; }

    /**
     * Attach a provenance tap: every lookup is reported to @p tap,
     * attributed to @p pid, together with the PC-path context
     * behind it (see obs/provenance.hpp).
     * The tap must outlive the predictor; null detaches. Path-tail
     * tracking only happens while a tap is attached, so the default
     * path is untouched.
     */
    void attachProvenance(ProvenanceTap *tap, Pid pid);

  private:
    /** Fold the just-completed idle period into training/history. */
    void observeGap(TimeUs gap);

    /** Fold @p pc into the tap-only path context (tail, hash,
     * length); @p reset starts a fresh path. */
    void notePathPc(Address pc, bool reset);

    /** Initialize the history as all long periods (cold start). */
    void seedHistory();

    TableKey makeKey(Fd fd) const;
    void pushHistory(bool long_idle);

    PcapConfig config_;
    std::shared_ptr<PredictionTable> table_;
    TimeUs startTime_;

    PathSignature signature_;
    std::uint16_t historyBits_ = 0;
    int historyLen_ = 0;
    bool resetPathOnNextIo_ = false;

    /** Key looked up at the previous I/O — the candidate that a long
     * idle period would confirm. */
    TableKey pendingKey_;
    bool pendingValid_ = false;
    bool pendingPredicted_ = false;

    pred::ShutdownDecision decision_;

    std::uint64_t predictions_ = 0;
    std::uint64_t mispredictionsObserved_ = 0;
    std::uint64_t trainingInserts_ = 0;

    // Provenance context, maintained only while tap_ is attached.
    ProvenanceTap *tap_ = nullptr;
    Pid pid_ = -1;
    std::array<Address, kProvenancePathDepth> pathTail_{};
    std::uint8_t pathTailLen_ = 0;
    std::uint32_t pathLength_ = 0;
    std::uint64_t pathHash_ = 0;
};

} // namespace pcap::core

#endif // PCAP_CORE_PCAP_HPP
