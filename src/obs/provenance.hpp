/**
 * @file
 * Prediction provenance.
 *
 * The metrics subsystem (metrics.hpp) answers "how often did PCAP
 * miss"; this layer answers "which signature, formed by which PC
 * path, over which table entry, missed — and what did it cost". One
 * ProvenanceRecord captures the full causal chain behind one
 * classified idle period. Records go straight to one
 * ProvenanceSink: a compact fixed-size binary file
 * (BinaryProvenanceWriter, read back by readProvenanceFile) or an
 * in-memory aggregation (ForensicsSink).
 *
 * This layer is deliberately self-contained: records use plain
 * scalar types only, so obs stays below core/sim in the dependency
 * order. Outcome and source codes mirror sim::IdleOutcome and
 * pred::DecisionSource by value; tests assert the name tables stay
 * in lockstep.
 */

#ifndef PCAP_OBS_PROVENANCE_HPP
#define PCAP_OBS_PROVENANCE_HPP

#include <array>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace pcap::obs {

/** Trailing call sites carried per record (matches the core tap). */
constexpr std::size_t kProvenancePathTail = 8;

/** Outcome codes, by value identical to sim::IdleOutcome. */
constexpr std::size_t kProvenanceOutcomes = 6;
constexpr std::uint8_t kOutcomeShort = 0;
constexpr std::uint8_t kOutcomeNotPredicted = 1;
constexpr std::uint8_t kOutcomeHitPrimary = 2;
constexpr std::uint8_t kOutcomeHitBackup = 3;
constexpr std::uint8_t kOutcomeMissPrimary = 4;
constexpr std::uint8_t kOutcomeMissBackup = 5;

/** Flag bits of ProvenanceRecord::flags. */
constexpr std::uint8_t kProvHasDecision = 1u << 0;
constexpr std::uint8_t kProvEntryPresent = 1u << 1;
constexpr std::uint8_t kProvPredicted = 1u << 2;

/** Stable lower-case outcome name; mirrors sim::idleOutcomeName. */
const char *provenanceOutcomeName(std::uint8_t outcome);

/** Stable lower-case source name; mirrors pred::decisionSourceName. */
const char *provenanceSourceName(std::uint8_t source);

/**
 * The full causal record of one classified idle period: who decided
 * (pid), on what evidence (signature, PC path, table entry state),
 * what was predicted (decision time and earliest consent), what
 * actually happened (period bounds, shutdown, outcome) and what it
 * was worth (energy delta).
 */
struct ProvenanceRecord
{
    std::int64_t startUs = 0;       ///< gap opens (last access)
    std::int64_t endUs = 0;         ///< gap closes (next access/end)
    std::int64_t shutdownUs = -1;   ///< spin-down inside, or -1
    std::int64_t decisionTimeUs = -1;   ///< deciding I/O, or -1
    std::int64_t decisionEarliestUs = -1; ///< earliest consent, or -1

    std::int32_t pid = -1;     ///< deciding process, -1 unknown
    std::int32_t execution = 0;

    std::uint32_t signature = 0;  ///< 4-byte arithmetic path sum
    std::uint64_t pathHash = 0;   ///< FNV-1a over the full PC path
    std::uint32_t pathLength = 0; ///< PCs folded into the signature
    std::uint8_t pathTailLength = 0;
    std::uint8_t outcome = kOutcomeShort; ///< sim::IdleOutcome value
    std::uint8_t source = 0; ///< pred::DecisionSource value
    std::uint8_t flags = 0;  ///< kProvHasDecision | ...

    std::array<std::uint32_t, kProvenancePathTail> pathTail{};

    std::uint32_t entryHitsBefore = 0;
    std::uint32_t entryTrainingsBefore = 0;
    std::uint32_t entryHitsAfter = 0;
    std::uint32_t entryTrainingsAfter = 0;

    /** Joules saved (negative: wasted) by the shutdown relative to
     * leaving the disk spinning; 0 when no shutdown fired. */
    double energyDeltaJ = 0.0;

    std::int64_t lengthUs() const { return endUs - startUs; }
    bool hasDecision() const { return flags & kProvHasDecision; }

    bool operator==(const ProvenanceRecord &other) const = default;
};

/** Serialized size of one binary record (fixed; see the writer). */
constexpr std::size_t kProvenanceRecordBytes = 124;

/** Receiver of provenance records; the producer does not own it
 * and writes each record once, in period order. */
class ProvenanceSink
{
  public:
    virtual ~ProvenanceSink() = default;

    virtual void write(const ProvenanceRecord &record) = 0;
};

/**
 * Compact binary sink: a 16-byte header (magic "PCAPPROV",
 * version, record size) followed by fixed-size little-endian
 * records (layout in EXPERIMENTS.md).
 */
class BinaryProvenanceWriter final : public ProvenanceSink
{
  public:
    /** Opens @p path and writes the header; fatal() on failure. */
    explicit BinaryProvenanceWriter(const std::string &path);

    void write(const ProvenanceRecord &record) override;

    /** Flush and close the file; fatal() on a write failure.
     * Idempotent. */
    void close();

    std::uint64_t recordCount() const { return records_; }

  private:
    std::ofstream os_;
    std::string path_;
    std::uint64_t records_ = 0;
};

/**
 * Read back a binary provenance file.
 * @return empty string on success, else a diagnostic.
 */
std::string readProvenanceFile(const std::string &path,
                               std::vector<ProvenanceRecord> &out);

// -- Forensics --------------------------------------------------

/** Everything attributed to one 4-byte signature. */
struct SignatureSummary
{
    std::uint32_t signature = 0;
    std::uint64_t periods = 0; ///< records carrying this signature
    std::array<std::uint64_t, kProvenanceOutcomes> outcomes{};
    double energyDeltaJ = 0.0;

    /** Distinct full paths (by order-sensitive hash) that produced
     * this signature -> {count, first record seen}. Two or more
     * entries expose a signature collision of the arithmetic sum. */
    std::map<std::uint64_t, std::uint64_t> pathCounts;
    std::map<std::uint64_t, ProvenanceRecord> pathExamples;

    std::uint64_t hits() const
    {
        return outcomes[kOutcomeHitPrimary] +
               outcomes[kOutcomeHitBackup];
    }

    std::uint64_t misses() const
    {
        return outcomes[kOutcomeMissPrimary] +
               outcomes[kOutcomeMissBackup];
    }

    bool collides() const { return pathCounts.size() > 1; }
};

/**
 * Aggregation over a provenance log: per-signature accuracy/energy
 * attribution, top mispredictors and collision detection — shared by
 * pcap_explain, the signature_attribution report and the tests.
 */
class ProvenanceForensics
{
  public:
    void add(const ProvenanceRecord &record);

    /** Records folded in so far. */
    std::uint64_t records() const { return records_; }

    /** Records with no decision attached (no PCAP predictor decided
     * for the period — e.g. first I/O of a process). */
    std::uint64_t noDecision() const { return noDecision_; }

    /** Outcome counts over ALL records (with or without decision) —
     * must reconcile exactly with AccuracyStats for the same run. */
    const std::array<std::uint64_t, kProvenanceOutcomes> &
    outcomeTotals() const
    {
        return outcomeTotals_;
    }

    /** Net energy delta over all records (joules). */
    double energyDeltaJ() const { return energyDeltaJ_; }

    /** Per-signature summaries, ordered by signature value. */
    const std::map<std::uint32_t, SignatureSummary> &
    bySignature() const
    {
        return summaries_;
    }

    /** The @p k signatures with the most mispredictions (misses
     * desc, then periods desc, then signature asc), misses > 0. */
    std::vector<const SignatureSummary *>
    topMispredictors(std::size_t k) const;

    /** Signatures formed by more than one distinct PC path —
     * collisions of the 4-byte arithmetic sum. */
    std::vector<const SignatureSummary *> collisions() const;

  private:
    std::map<std::uint32_t, SignatureSummary> summaries_;
    std::array<std::uint64_t, kProvenanceOutcomes> outcomeTotals_{};
    std::uint64_t records_ = 0;
    std::uint64_t noDecision_ = 0;
    double energyDeltaJ_ = 0.0;
};

/** Sink that aggregates instead of serializing — the in-memory
 * consumer behind the signature_attribution report. */
class ForensicsSink final : public ProvenanceSink
{
  public:
    void write(const ProvenanceRecord &record) override
    {
        forensics_.add(record);
    }

    const ProvenanceForensics &forensics() const
    {
        return forensics_;
    }

  private:
    ProvenanceForensics forensics_;
};

} // namespace pcap::obs

#endif // PCAP_OBS_PROVENANCE_HPP
