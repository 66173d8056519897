/**
 * @file
 * Bounded-memory simulated-time timelines.
 *
 * Every exported metric so far (metrics.hpp counters, provenance
 * records) is an end-of-run aggregate; this layer answers *when*.
 * A Timeline folds per-cell state over simulated time into a fixed
 * number of buckets: power-state residency, energy by category,
 * idle-period outcomes, shutdowns/spin-ups and sampled prediction-
 * table size. When an event lands past the covered span the bucket
 * width doubles and adjacent buckets fold pairwise, so memory stays
 * O(buckets) regardless of trace length and the whole run is always
 * covered at the finest width that fits.
 *
 * Like provenance, the layer is deliberately self-contained: rows
 * are indexed by plain integers and the caller supplies name tables
 * via TimelineMeta, so obs stays below core/sim in the dependency
 * order (sim::TimelineObserver does the enum-to-index join).
 */

#ifndef PCAP_OBS_TIMELINE_HPP
#define PCAP_OBS_TIMELINE_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace pcap::obs {

/** Power-state rows per bucket (sim maps power::DiskState here). */
constexpr std::size_t kTimelineStates = 4;

/** Outcome rows per bucket; by value identical to sim::IdleOutcome
 * (and the kOutcome* codes in provenance.hpp). */
constexpr std::size_t kTimelineOutcomes = 6;

/** Energy rows per bucket: one per power state plus transitions. */
constexpr std::size_t kTimelineEnergies = 5;

/** Index of the transition-energy row (spin-down/spin-up costs). */
constexpr std::size_t kTimelineEnergyTransition = 4;

/** One fixed-width slice of simulated time. */
struct TimelineBucket
{
    /** Microseconds spent in each power state. */
    std::array<std::uint64_t, kTimelineStates> stateUs{};

    /** Idle periods ending in this bucket, by outcome. */
    std::array<std::uint64_t, kTimelineOutcomes> outcomes{};

    /** Joules accrued, by category (state draw + transitions). */
    std::array<double, kTimelineEnergies> energyJ{};

    std::uint64_t shutdowns = 0;
    std::uint64_t spinUps = 0;

    /** Last prediction-table size sampled in this bucket. */
    std::uint64_t tableEntries = 0;
    bool tableSampled = false;

    /** Pairwise fold during a rescale: counts add, the later
     * table sample (from @p later) wins when present. */
    void foldFrom(const TimelineBucket &later);
};

/** Identity and name tables stamped into exported documents. */
struct TimelineMeta
{
    std::string cell;   ///< file stem, e.g. "global-mozilla"
    std::string mode;   ///< policy mode label
    std::string app;    ///< workload name
    std::string policy; ///< policy label

    std::vector<std::string> stateNames;
    std::vector<std::string> outcomeNames;
    std::vector<std::string> energyNames;
};

/**
 * Fixed-capacity, self-rescaling simulated-time histogram.
 *
 * Buckets are half-open: bucket i covers
 * [i * widthUs, (i+1) * widthUs). Range contributions
 * (addStateResidency, addEnergy) are split linearly across the
 * buckets they overlap; point events (outcomes, shutdowns, table
 * samples) land in the bucket containing their timestamp. Any
 * event beyond the covered span first doubles the width (folding
 * buckets pairwise) until it fits — a point event exactly on the
 * end boundary rescales, a range ending there does not.
 */
class Timeline
{
  public:
    explicit Timeline(std::size_t buckets = 256,
                      TimeUs initialWidthUs = kUsPerSec);

    /** Accrue [startUs, endUs) of residency in state @p state. */
    void addStateResidency(std::size_t state, TimeUs startUs,
                           TimeUs endUs);

    /** Accrue @p joules linearly over [startUs, endUs); with
     * startUs == endUs the whole amount lands at startUs. */
    void addEnergy(std::size_t category, TimeUs startUs,
                   TimeUs endUs, double joules);

    void countOutcome(std::size_t outcome, TimeUs atUs);
    void countShutdown(TimeUs atUs);
    void countSpinUp(TimeUs atUs);

    /** Record the table size at @p atUs; last sample per bucket
     * wins (the bucket shows the freshest size inside it). */
    void sampleTable(TimeUs atUs, std::uint64_t entries);

    std::size_t bucketCount() const { return buckets_.size(); }
    TimeUs bucketWidthUs() const { return widthUs_; }

    /** Latest simulated instant folded in so far. */
    TimeUs spanUs() const { return spanUs_; }

    /** Times the bucket width doubled to keep the span covered. */
    std::uint64_t rescales() const { return rescales_; }

    const TimelineBucket &bucket(std::size_t i) const
    {
        return buckets_[i];
    }

    /** Buckets that cover spanUs() (the rest are trailing zeros). */
    std::size_t usedBuckets() const;

  private:
    /** Grow coverage until @p endUs <= width * buckets. */
    void coverRange(TimeUs endUs);

    /** Grow coverage until @p atUs < width * buckets. */
    void coverPoint(TimeUs atUs);

    /** Double the bucket width, folding buckets pairwise. */
    void rescale();

    TimelineBucket &bucketAt(TimeUs atUs);
    void noteSpan(TimeUs endUs);

    std::vector<TimelineBucket> buckets_;
    TimeUs widthUs_;
    TimeUs spanUs_ = 0;
    std::uint64_t rescales_ = 0;
};

/** Write @p timeline as a pcap-timeline-v1 JSON document. */
void writeTimelineJson(const Timeline &timeline,
                       const TimelineMeta &meta,
                       const std::string &path);

} // namespace pcap::obs

#endif // PCAP_OBS_TIMELINE_HPP
