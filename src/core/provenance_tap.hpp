/**
 * @file
 * Provenance tap: the hook interface through which PcapPredictor
 * reports the causal state behind every shutdown decision.
 *
 * The tap is the core-side half of the provenance layer
 * (obs/provenance.hpp): core emits one raw decision event per lookup
 * here, and a sim-layer observer joins it with the idle period it
 * governed. Everything is gated behind a null check, so the default
 * (no-tap) hot path pays nothing beyond one pointer test.
 */

#ifndef PCAP_CORE_PROVENANCE_TAP_HPP
#define PCAP_CORE_PROVENANCE_TAP_HPP

#include <array>
#include <cstdint>

#include "pred/predictor.hpp"
#include "util/types.hpp"

namespace pcap::core {

/** How many trailing call sites a decision event carries. The full
 * path is summarized by pathHash/pathLength; the tail is the
 * human-readable sample of it. */
constexpr std::size_t kProvenancePathDepth = 8;

/**
 * One PCAP lookup — everything known at the instant the predictor
 * formed its standing decision for the I/O at @c time.
 */
struct PcapDecisionEvent
{
    TimeUs time = 0;              ///< arrival of the deciding I/O
    std::uint32_t signature = 0;  ///< 4-byte arithmetic path sum
    std::uint64_t pathHash = 0;   ///< FNV-1a over the full PC path
    std::uint32_t pathLength = 0; ///< PCs folded since the last reset

    /** Last-N call sites of the path, oldest first. */
    std::array<Address, kProvenancePathDepth> pathTail{};
    std::uint8_t pathTailLength = 0;

    bool predicted = false;      ///< lookup matched (primary consent)
    bool entryPresent = false;   ///< key was in the table

    /** Entry usage counters around the lookup (zero when absent). */
    std::uint32_t entryHitsBefore = 0;
    std::uint32_t entryTrainingsBefore = 0;
    std::uint32_t entryHitsAfter = 0;
    std::uint32_t entryTrainingsAfter = 0;

    /** The standing decision the lookup produced. */
    pred::ShutdownDecision decision;
};

/**
 * Receiver of core provenance events; the callback fires
 * synchronously on the simulating thread.
 */
class ProvenanceTap
{
  public:
    virtual ~ProvenanceTap() = default;

    /** @p pid's predictor formed a new standing decision. */
    virtual void onPcapDecision(Pid pid,
                                const PcapDecisionEvent &event) = 0;
};

} // namespace pcap::core

#endif // PCAP_CORE_PROVENANCE_TAP_HPP
