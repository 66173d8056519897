/**
 * @file
 * Seeded mutation harness for every reader of external bytes: the
 * text trace format, JSON documents, saved prediction
 * tables, binary provenance files and alert rules. Each reader gets
 * a few hundred mutants of one valid input (bit flips, truncations,
 * splices and oversized length fields) and must return a result or
 * an error for every one of them. A crash or a hang fails the
 * suite; built with the asan-ubsan preset, so does any sanitizer
 * report.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>
#include <unistd.h>

#include "core/prediction_table.hpp"
#include "obs/alerts.hpp"
#include "obs/provenance.hpp"
#include "trace/builder.hpp"
#include "trace/io.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace pcap {
namespace {

constexpr int kMutantsPerReader = 500;

/** Values that overflow, go negative or ask for absurd allocations
 * when read as a count or length. */
constexpr std::uint64_t kHugeValues[] = {
    0xffffffffffffffffull, 0x7fffffffffffffffull, 0x8000000000000000ull,
    0xffffffffull,         0x80000000ull,         1ull << 40,
};
constexpr const char *kHugeDecimals[] = {
    "18446744073709551616", "9223372036854775808", "-9223372036854775809",
    "4294967296",           "-1",                  "1e999",
};

/** Overwrite a 4- or 8-byte little-endian field of @p bytes with a
 * huge value. */
void
oversizeBinaryField(std::string &bytes, Rng &rng)
{
    const std::size_t width = rng.chance(0.5) ? 4 : 8;
    if (bytes.size() < width)
        return;
    const auto at = static_cast<std::size_t>(rng.uniformInt(
        0, static_cast<std::int64_t>(bytes.size() - width)));
    const std::uint64_t value =
        kHugeValues[rng.uniformInt(
            0, static_cast<std::int64_t>(std::size(kHugeValues)) - 1)];
    for (std::size_t i = 0; i < width; ++i)
        bytes[at + i] = static_cast<char>((value >> (8 * i)) & 0xff);
}

/** Replace one run of decimal digits in @p text with a huge or
 * negative number. */
void
oversizeDecimalField(std::string &text, Rng &rng)
{
    if (text.empty())
        return;
    std::size_t at = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(text.size() - 1)));
    at = text.find_first_of("0123456789", at);
    if (at == std::string::npos)
        return;
    const std::size_t end = text.find_first_not_of("0123456789", at);
    text.replace(at, end == std::string::npos ? end : end - at,
                 kHugeDecimals[rng.uniformInt(
                     0,
                     static_cast<std::int64_t>(std::size(kHugeDecimals)) -
                         1)]);
}

/** One to three stacked mutations of @p valid. */
std::string
mutate(const std::string &valid, bool binary, Rng &rng)
{
    std::string bytes = valid;
    const int rounds = static_cast<int>(rng.uniformInt(1, 3));
    for (int round = 0; round < rounds && !bytes.empty(); ++round) {
        const auto size = static_cast<std::int64_t>(bytes.size());
        switch (rng.uniformInt(0, 3)) {
          case 0: { // bit flips
            const int flips = static_cast<int>(rng.uniformInt(1, 8));
            for (int i = 0; i < flips; ++i) {
                bytes[rng.uniformInt(0, size - 1)] ^=
                    static_cast<char>(1 << rng.uniformInt(0, 7));
            }
            break;
          }
          case 1: // truncation
            bytes.resize(rng.uniformInt(0, size - 1));
            break;
          case 2: { // splice a slice of the valid input elsewhere
            const auto from = rng.uniformInt(
                0, static_cast<std::int64_t>(valid.size()) - 1);
            const auto length = rng.uniformInt(
                1, static_cast<std::int64_t>(valid.size()) - from);
            const auto to = rng.uniformInt(0, size);
            const auto cut = rng.uniformInt(0, size - to);
            bytes.replace(to, cut, valid, from, length);
            break;
          }
          default: // oversized length or count field
            if (binary)
                oversizeBinaryField(bytes, rng);
            else
                oversizeDecimalField(bytes, rng);
            break;
        }
    }
    return bytes;
}

/**
 * Feed @p valid and kMutantsPerReader mutants of it to @p accepts,
 * which runs the reader and says whether it accepted the bytes. The
 * valid input must be accepted and at least one mutant rejected, so
 * the harness provably reaches both paths.
 */
void
survivesMutants(const std::string &valid, bool binary,
                std::uint64_t seed,
                const std::function<bool(const std::string &)> &accepts)
{
    ASSERT_TRUE(accepts(valid));
    Rng rng(seed);
    int rejected = 0;
    for (int i = 0; i < kMutantsPerReader; ++i) {
        if (!accepts(mutate(valid, binary, rng)))
            ++rejected;
    }
    EXPECT_GT(rejected, 0);
}

trace::Trace
sampleTrace()
{
    trace::TraceBuilder builder("hostile-app", 3, 100);
    builder.io(10, 100, trace::EventType::Open, 0x8048010, 3, 42, 0, 0);
    builder.io(25, 100, trace::EventType::Read, 0x8048020, 3, 42, 4096,
               8192);
    builder.fork(30, 100, 101);
    builder.io(40, 101, trace::EventType::Write, 0x8048030, 4, 43, 0,
               4096);
    builder.io(55, 100, trace::EventType::Close, 0x8048040, 3, 42, 0,
               0);
    builder.exit(60, 101);
    return builder.finish(70);
}

TEST(HostileInput, TextTraceReader)
{
    std::ostringstream os;
    trace::writeText(sampleTrace(), os);
    survivesMutants(os.str(), false, 1, [](const std::string &bytes) {
        std::istringstream is(bytes);
        trace::Trace out;
        return trace::readText(is, out).empty();
    });
}

TEST(HostileInput, JsonParser)
{
    const std::string valid =
        R"({"schema": "doc-v1", "n": [0, -1.5e3, 12345678901234],)"
        R"( "s": "tab\t quote\" é 😀", "t": true,)"
        R"( "f": false, "z": null, "o": {"nested": [[], {}, [1]]}})";
    survivesMutants(valid, false, 3, [](const std::string &bytes) {
        Json out;
        std::string error;
        return Json::parse(bytes, out, &error);
    });
}

TEST(HostileInput, PredictionTableLoader)
{
    core::PredictionTable table;
    table.train({0x12345678u, 0, 0, -1});
    table.train({42u, 0b101101, 6, 3});
    table.train({0xffffffffu, 0xffff, 16, 1023});
    std::ostringstream os;
    table.save(os);
    survivesMutants(os.str(), false, 4, [](const std::string &bytes) {
        std::istringstream is(bytes);
        core::PredictionTable loaded(2);
        return loaded.load(is).empty();
    });
}

TEST(HostileInput, ProvenanceFileReader)
{
    const std::string path = ::testing::TempDir() +
                             "hostile-input-" +
                             std::to_string(::getpid()) + ".prov.bin";
    {
        obs::BinaryProvenanceWriter writer(path);
        for (int i = 0; i < 4; ++i) {
            obs::ProvenanceRecord record;
            record.startUs = 1000 * i;
            record.endUs = 1000 * i + 500;
            record.pid = 100 + i;
            record.signature = 0xdead0000u + static_cast<std::uint32_t>(i);
            record.pathTailLength = 3;
            record.pathTail = {0x400100u, 0x400200u, 0x400300u};
            record.flags = obs::kProvHasDecision;
            record.energyDeltaJ = 0.25 * i;
            writer.write(record);
        }
        writer.close();
    }
    std::string valid;
    {
        std::ifstream is(path, std::ios::binary);
        valid.assign(std::istreambuf_iterator<char>(is), {});
    }
    survivesMutants(valid, true, 5, [&path](const std::string &bytes) {
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            os.write(bytes.data(),
                     static_cast<std::streamsize>(bytes.size()));
        }
        std::vector<obs::ProvenanceRecord> records;
        return obs::readProvenanceFile(path, records).empty();
    });
    std::remove(path.c_str());
}

TEST(HostileInput, AlertRulesParser)
{
    std::string valid;
    {
        std::ifstream is(PCAP_DEFAULT_ALERT_RULES);
        valid.assign(std::istreambuf_iterator<char>(is), {});
    }
    ASSERT_FALSE(valid.empty());
    survivesMutants(valid, false, 6, [](const std::string &bytes) {
        return obs::parseAlertRules(bytes).ok();
    });
}

} // namespace
} // namespace pcap
