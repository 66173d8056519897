#include "obs/provenance.hpp"

#include <algorithm>
#include <cstring>

#include "util/logging.hpp"

namespace pcap::obs {

namespace {

constexpr char kMagic[8] = {'P', 'C', 'A', 'P', 'P', 'R', 'O', 'V'};
constexpr std::uint32_t kVersion = 1;

/** Little-endian serialization cursor over a fixed byte buffer. */
class ByteWriter
{
  public:
    ByteWriter(unsigned char *buffer, std::size_t size)
        : buffer_(buffer), size_(size)
    {
    }

    void
    u8(std::uint8_t value)
    {
        if (pos_ >= size_)
            fatal("provenance: record buffer overflow");
        buffer_[pos_++] = value;
    }

    void
    u32(std::uint32_t value)
    {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<std::uint8_t>(value >> (8 * i)));
    }

    void
    u64(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i)
            u8(static_cast<std::uint8_t>(value >> (8 * i)));
    }

    void i32(std::int32_t value) { u32(static_cast<std::uint32_t>(value)); }
    void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }

    void
    f64(double value)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(value));
        std::memcpy(&bits, &value, sizeof(bits));
        u64(bits);
    }

    std::size_t position() const { return pos_; }

  private:
    unsigned char *buffer_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** Little-endian deserialization cursor; sets ok=false on underrun. */
class ByteReader
{
  public:
    ByteReader(const unsigned char *buffer, std::size_t size)
        : buffer_(buffer), size_(size)
    {
    }

    std::uint8_t
    u8()
    {
        if (pos_ >= size_) {
            ok_ = false;
            return 0;
        }
        return buffer_[pos_++];
    }

    std::uint32_t
    u32()
    {
        std::uint32_t value = 0;
        for (int i = 0; i < 4; ++i)
            value |= static_cast<std::uint32_t>(u8()) << (8 * i);
        return value;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t value = 0;
        for (int i = 0; i < 8; ++i)
            value |= static_cast<std::uint64_t>(u8()) << (8 * i);
        return value;
    }

    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double value = 0.0;
        std::memcpy(&value, &bits, sizeof(value));
        return value;
    }

    bool ok() const { return ok_; }

  private:
    const unsigned char *buffer_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

void
encodeRecord(const ProvenanceRecord &record,
             unsigned char (&buffer)[kProvenanceRecordBytes])
{
    ByteWriter w(buffer, sizeof(buffer));
    w.i64(record.startUs);
    w.i64(record.endUs);
    w.i64(record.shutdownUs);
    w.i64(record.decisionTimeUs);
    w.i64(record.decisionEarliestUs);
    w.i32(record.pid);
    w.i32(record.execution);
    w.u32(record.signature);
    w.u64(record.pathHash);
    w.u32(record.pathLength);
    w.u8(record.pathTailLength);
    w.u8(record.outcome);
    w.u8(record.source);
    w.u8(record.flags);
    for (std::uint32_t pc : record.pathTail)
        w.u32(pc);
    w.u32(record.entryHitsBefore);
    w.u32(record.entryTrainingsBefore);
    w.u32(record.entryHitsAfter);
    w.u32(record.entryTrainingsAfter);
    w.f64(record.energyDeltaJ);
    if (w.position() != kProvenanceRecordBytes)
        fatal("provenance: record layout drifted from "
              "kProvenanceRecordBytes");
}

bool
decodeRecord(const unsigned char *buffer, std::size_t size,
             ProvenanceRecord &record)
{
    ByteReader r(buffer, size);
    record.startUs = r.i64();
    record.endUs = r.i64();
    record.shutdownUs = r.i64();
    record.decisionTimeUs = r.i64();
    record.decisionEarliestUs = r.i64();
    record.pid = r.i32();
    record.execution = r.i32();
    record.signature = r.u32();
    record.pathHash = r.u64();
    record.pathLength = r.u32();
    record.pathTailLength = r.u8();
    record.outcome = r.u8();
    record.source = r.u8();
    record.flags = r.u8();
    for (std::uint32_t &pc : record.pathTail)
        pc = r.u32();
    record.entryHitsBefore = r.u32();
    record.entryTrainingsBefore = r.u32();
    record.entryHitsAfter = r.u32();
    record.entryTrainingsAfter = r.u32();
    record.energyDeltaJ = r.f64();
    return r.ok();
}

} // namespace

const char *
provenanceOutcomeName(std::uint8_t outcome)
{
    switch (outcome) {
      case kOutcomeShort: return "short";
      case kOutcomeNotPredicted: return "not_predicted";
      case kOutcomeHitPrimary: return "hit_primary";
      case kOutcomeHitBackup: return "hit_backup";
      case kOutcomeMissPrimary: return "miss_primary";
      case kOutcomeMissBackup: return "miss_backup";
      default: return "unknown";
    }
}

const char *
provenanceSourceName(std::uint8_t source)
{
    // Values mirror pred::DecisionSource: None, Primary, Backup.
    switch (source) {
      case 0: return "none";
      case 1: return "primary";
      case 2: return "backup";
      default: return "unknown";
    }
}

BinaryProvenanceWriter::BinaryProvenanceWriter(const std::string &path)
    : os_(path, std::ios::binary | std::ios::trunc), path_(path)
{
    if (!os_)
        fatal("BinaryProvenanceWriter: cannot open " + path);
    os_.write(kMagic, sizeof(kMagic));
    unsigned char header[8];
    ByteWriter w(header, sizeof(header));
    w.u32(kVersion);
    w.u32(static_cast<std::uint32_t>(kProvenanceRecordBytes));
    os_.write(reinterpret_cast<const char *>(header), sizeof(header));
    if (!os_)
        fatal("BinaryProvenanceWriter: write failed on " + path);
}

void
BinaryProvenanceWriter::write(const ProvenanceRecord &record)
{
    unsigned char buffer[kProvenanceRecordBytes];
    encodeRecord(record, buffer);
    os_.write(reinterpret_cast<const char *>(buffer), sizeof(buffer));
    if (!os_)
        fatal("BinaryProvenanceWriter: write failed on " + path_);
    ++records_;
}

void
BinaryProvenanceWriter::close()
{
    if (!os_.is_open())
        return;
    os_.flush();
    if (!os_)
        fatal("BinaryProvenanceWriter: flush failed on " + path_);
    os_.close();
}

std::string
readProvenanceFile(const std::string &path,
                   std::vector<ProvenanceRecord> &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return "cannot open " + path;

    char magic[sizeof(kMagic)];
    if (!is.read(magic, sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
        return path + ": not a provenance file (bad magic)";
    }

    unsigned char header[8];
    if (!is.read(reinterpret_cast<char *>(header), sizeof(header)))
        return path + ": truncated header";
    ByteReader r(header, sizeof(header));
    const std::uint32_t version = r.u32();
    const std::uint32_t record_bytes = r.u32();
    if (version != kVersion) {
        return path + ": unsupported version " +
               std::to_string(version);
    }
    if (record_bytes != kProvenanceRecordBytes) {
        return path + ": record size " + std::to_string(record_bytes) +
               " != expected " +
               std::to_string(kProvenanceRecordBytes);
    }

    unsigned char buffer[kProvenanceRecordBytes];
    while (is.read(reinterpret_cast<char *>(buffer), sizeof(buffer))) {
        ProvenanceRecord record;
        if (!decodeRecord(buffer, sizeof(buffer), record))
            return path + ": malformed record";
        out.push_back(record);
    }
    if (is.gcount() != 0)
        return path + ": trailing partial record";
    return {};
}

void
ProvenanceForensics::add(const ProvenanceRecord &record)
{
    ++records_;
    if (record.outcome < kProvenanceOutcomes)
        ++outcomeTotals_[record.outcome];
    energyDeltaJ_ += record.energyDeltaJ;

    if (!record.hasDecision()) {
        ++noDecision_;
        return;
    }

    SignatureSummary &summary = summaries_[record.signature];
    summary.signature = record.signature;
    ++summary.periods;
    if (record.outcome < kProvenanceOutcomes)
        ++summary.outcomes[record.outcome];
    summary.energyDeltaJ += record.energyDeltaJ;
    if (++summary.pathCounts[record.pathHash] == 1)
        summary.pathExamples.emplace(record.pathHash, record);
}

std::vector<const SignatureSummary *>
ProvenanceForensics::topMispredictors(std::size_t k) const
{
    std::vector<const SignatureSummary *> ranked;
    for (const auto &[signature, summary] : summaries_) {
        if (summary.misses() > 0)
            ranked.push_back(&summary);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const SignatureSummary *a, const SignatureSummary *b) {
                  if (a->misses() != b->misses())
                      return a->misses() > b->misses();
                  if (a->periods != b->periods)
                      return a->periods > b->periods;
                  return a->signature < b->signature;
              });
    if (ranked.size() > k)
        ranked.resize(k);
    return ranked;
}

std::vector<const SignatureSummary *>
ProvenanceForensics::collisions() const
{
    std::vector<const SignatureSummary *> out;
    for (const auto &[signature, summary] : summaries_) {
        if (summary.collides())
            out.push_back(&summary);
    }
    return out;
}

} // namespace pcap::obs
