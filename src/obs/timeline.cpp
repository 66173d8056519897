#include "obs/timeline.hpp"

#include <algorithm>
#include <fstream>

#include "util/json.hpp"
#include "util/logging.hpp"

namespace pcap::obs {

void
TimelineBucket::foldFrom(const TimelineBucket &later)
{
    for (std::size_t i = 0; i < kTimelineStates; ++i)
        stateUs[i] += later.stateUs[i];
    for (std::size_t i = 0; i < kTimelineOutcomes; ++i)
        outcomes[i] += later.outcomes[i];
    for (std::size_t i = 0; i < kTimelineEnergies; ++i)
        energyJ[i] += later.energyJ[i];
    shutdowns += later.shutdowns;
    spinUps += later.spinUps;
    if (later.tableSampled) {
        tableEntries = later.tableEntries;
        tableSampled = true;
    }
}

Timeline::Timeline(std::size_t buckets, TimeUs initialWidthUs)
    : buckets_(buckets), widthUs_(initialWidthUs)
{
    if (buckets < 2)
        panic("Timeline needs at least 2 buckets to rescale");
    if (buckets % 2 != 0)
        panic("Timeline bucket count must be even");
    if (initialWidthUs <= 0)
        panic("Timeline bucket width must be positive");
}

void
Timeline::rescale()
{
    const std::size_t n = buckets_.size();
    for (std::size_t i = 0; i < n / 2; ++i) {
        TimelineBucket merged = buckets_[2 * i];
        merged.foldFrom(buckets_[2 * i + 1]);
        buckets_[i] = merged;
    }
    std::fill(buckets_.begin() + n / 2, buckets_.end(),
              TimelineBucket{});
    widthUs_ *= 2;
    ++rescales_;
}

void
Timeline::coverRange(TimeUs endUs)
{
    const TimeUs n = static_cast<TimeUs>(buckets_.size());
    while (endUs > widthUs_ * n)
        rescale();
}

void
Timeline::coverPoint(TimeUs atUs)
{
    const TimeUs n = static_cast<TimeUs>(buckets_.size());
    while (atUs >= widthUs_ * n)
        rescale();
}

TimelineBucket &
Timeline::bucketAt(TimeUs atUs)
{
    return buckets_[static_cast<std::size_t>(atUs / widthUs_)];
}

void
Timeline::noteSpan(TimeUs endUs)
{
    spanUs_ = std::max(spanUs_, endUs);
}

void
Timeline::addStateResidency(std::size_t state, TimeUs startUs,
                            TimeUs endUs)
{
    if (endUs <= startUs)
        return;
    coverRange(endUs);
    noteSpan(endUs);
    TimeUs at = startUs;
    while (at < endUs) {
        const TimeUs bucketEnd =
            (at / widthUs_ + 1) * widthUs_;
        const TimeUs sliceEnd = std::min(endUs, bucketEnd);
        bucketAt(at).stateUs[state] +=
            static_cast<std::uint64_t>(sliceEnd - at);
        at = sliceEnd;
    }
}

void
Timeline::addEnergy(std::size_t category, TimeUs startUs,
                    TimeUs endUs, double joules)
{
    if (endUs < startUs || joules == 0.0)
        return;
    if (endUs == startUs) {
        coverPoint(startUs);
        noteSpan(startUs);
        bucketAt(startUs).energyJ[category] += joules;
        return;
    }
    coverRange(endUs);
    noteSpan(endUs);
    const double perUs =
        joules / static_cast<double>(endUs - startUs);
    TimeUs at = startUs;
    while (at < endUs) {
        const TimeUs bucketEnd =
            (at / widthUs_ + 1) * widthUs_;
        const TimeUs sliceEnd = std::min(endUs, bucketEnd);
        bucketAt(at).energyJ[category] +=
            perUs * static_cast<double>(sliceEnd - at);
        at = sliceEnd;
    }
}

void
Timeline::countOutcome(std::size_t outcome, TimeUs atUs)
{
    coverPoint(atUs);
    noteSpan(atUs);
    ++bucketAt(atUs).outcomes[outcome];
}

void
Timeline::countShutdown(TimeUs atUs)
{
    coverPoint(atUs);
    noteSpan(atUs);
    ++bucketAt(atUs).shutdowns;
}

void
Timeline::countSpinUp(TimeUs atUs)
{
    coverPoint(atUs);
    noteSpan(atUs);
    ++bucketAt(atUs).spinUps;
}

void
Timeline::sampleTable(TimeUs atUs, std::uint64_t entries)
{
    coverPoint(atUs);
    noteSpan(atUs);
    TimelineBucket &b = bucketAt(atUs);
    b.tableEntries = entries;
    b.tableSampled = true;
}

std::size_t
Timeline::usedBuckets() const
{
    if (spanUs_ == 0)
        return 0;
    // spanUs_ is the last covered instant; +1 makes a point event
    // exactly on a bucket start count that bucket as used.
    const TimeUs last = (spanUs_ - 1) / widthUs_ + 1;
    return std::min(buckets_.size(),
                    static_cast<std::size_t>(last));
}

namespace {

/** Name for row @p i: the caller-supplied table or a number. */
std::string
rowName(const std::vector<std::string> &names, std::size_t i)
{
    if (i < names.size())
        return names[i];
    return std::to_string(i);
}

} // namespace

void
writeTimelineJson(const Timeline &timeline,
                  const TimelineMeta &meta,
                  const std::string &path)
{
    Json doc = Json::object();
    doc["schema"] = "pcap-timeline-v1";
    doc["cell"] = meta.cell;
    doc["mode"] = meta.mode;
    doc["app"] = meta.app;
    doc["policy"] = meta.policy;
    doc["bucket_width_us"] = timeline.bucketWidthUs();
    doc["buckets"] = timeline.bucketCount();
    doc["used_buckets"] = timeline.usedBuckets();
    doc["span_us"] = timeline.spanUs();
    doc["rescales"] = timeline.rescales();

    const std::size_t n = timeline.bucketCount();
    Json &series = doc["series"];
    series = Json::object();

    Json &stateUs = series["state_us"];
    stateUs = Json::object();
    for (std::size_t s = 0; s < kTimelineStates; ++s) {
        Json column = Json::array();
        for (std::size_t i = 0; i < n; ++i)
            column.push(timeline.bucket(i).stateUs[s]);
        stateUs[rowName(meta.stateNames, s)] = std::move(column);
    }

    Json &outcomes = series["outcomes"];
    outcomes = Json::object();
    for (std::size_t o = 0; o < kTimelineOutcomes; ++o) {
        Json column = Json::array();
        for (std::size_t i = 0; i < n; ++i)
            column.push(timeline.bucket(i).outcomes[o]);
        outcomes[rowName(meta.outcomeNames, o)] =
            std::move(column);
    }

    Json &energy = series["energy_j"];
    energy = Json::object();
    for (std::size_t e = 0; e < kTimelineEnergies; ++e) {
        Json column = Json::array();
        for (std::size_t i = 0; i < n; ++i)
            column.push(timeline.bucket(i).energyJ[e]);
        energy[rowName(meta.energyNames, e)] = std::move(column);
    }

    Json shutdowns = Json::array();
    Json spinUps = Json::array();
    Json tableEntries = Json::array();
    for (std::size_t i = 0; i < n; ++i) {
        const TimelineBucket &b = timeline.bucket(i);
        shutdowns.push(b.shutdowns);
        spinUps.push(b.spinUps);
        if (b.tableSampled)
            tableEntries.push(b.tableEntries);
        else
            tableEntries.push(-1);
    }
    series["shutdowns"] = std::move(shutdowns);
    series["spin_ups"] = std::move(spinUps);
    series["table_entries"] = std::move(tableEntries);

    std::ofstream os(path, std::ios::trunc);
    if (!os)
        fatal("cannot open timeline output " + path);
    doc.dump(os);
    os << '\n';
    os.flush();
    if (!os)
        fatal("write failed for timeline output " + path);
}

} // namespace pcap::obs
