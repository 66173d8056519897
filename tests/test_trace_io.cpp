/**
 * @file
 * Serialization tests: the text trace format, error handling, and
 * the file helpers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "trace/builder.hpp"
#include "trace/io.hpp"

namespace pcap::trace {
namespace {

Trace
sampleTrace()
{
    TraceBuilder builder("sample-app", 7, 100);
    builder.io(10, 100, EventType::Open, 0x8048010, 3, 42, 0, 0);
    builder.io(25, 100, EventType::Read, 0x8048020, 3, 42, 4096,
               8192);
    builder.fork(30, 100, 101);
    builder.io(40, 101, EventType::Write, 0x8048030, 4, 43, 0, 4096);
    builder.io(55, 100, EventType::Close, 0x8048040, 3, 42, 0, 0);
    builder.exit(60, 101);
    return builder.finish(70);
}

TEST(TraceTextIo, RoundTripPreservesEverything)
{
    const Trace original = sampleTrace();
    std::stringstream buffer;
    writeText(original, buffer);

    Trace loaded;
    ASSERT_EQ(readText(buffer, loaded), "");
    EXPECT_EQ(loaded.app(), original.app());
    EXPECT_EQ(loaded.execution(), original.execution());
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(loaded.events()[i], original.events()[i]);
}

TEST(TraceTextIo, RejectsEmptyInput)
{
    std::stringstream buffer;
    Trace loaded;
    EXPECT_EQ(readText(buffer, loaded), "empty input");
}

TEST(TraceTextIo, RejectsBadHeader)
{
    std::stringstream buffer("not a trace\n");
    Trace loaded;
    EXPECT_NE(readText(buffer, loaded).find("bad header"),
              std::string::npos);
}

TEST(TraceTextIo, RejectsBadExecutionInHeader)
{
    for (const char *execution : {"x", "7x", "", "99999999999"}) {
        std::stringstream buffer(
            std::string("# pcap-trace v1 app=a execution=") +
            execution + "\n");
        Trace loaded;
        EXPECT_NE(readText(buffer, loaded).find("bad execution"),
                  std::string::npos)
            << execution;
    }
}

TEST(TraceTextIo, RejectsMalformedEventLine)
{
    std::stringstream buffer(
        "# pcap-trace v1 app=x execution=0\n10\t1\tread\n");
    Trace loaded;
    EXPECT_NE(readText(buffer, loaded).find("malformed"),
              std::string::npos);
}

TEST(TraceTextIo, RejectsUnknownEventType)
{
    std::stringstream buffer(
        "# pcap-trace v1 app=x execution=0\n"
        "10\t1\tmmap\t0\t3\t5\t0\t0\n");
    Trace loaded;
    EXPECT_NE(readText(buffer, loaded).find("unknown event type"),
              std::string::npos);
}

TEST(TraceTextIo, SkipsCommentsAndBlankLines)
{
    std::stringstream buffer(
        "# pcap-trace v1 app=x execution=2\n"
        "# a comment\n"
        "\n"
        "10\t1\tread\t4096\t3\t5\t0\t512\n");
    Trace loaded;
    ASSERT_EQ(readText(buffer, loaded), "");
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded.execution(), 2);
}

TEST(TraceTextIo, HandlesEmptyTrace)
{
    const Trace original("empty", 0);
    std::stringstream buffer;
    writeText(original, buffer);
    Trace loaded;
    ASSERT_EQ(readText(buffer, loaded), "");
    EXPECT_TRUE(loaded.empty());
    EXPECT_EQ(loaded.app(), "empty");
}

class TraceFileIo : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               "pcap_trace_io_test";
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

TEST_F(TraceFileIo, TextExtensionRoundTrip)
{
    const Trace original = sampleTrace();
    const std::string path = (dir_ / "t.trace").string();
    ASSERT_EQ(saveTraceFile(original, path), "");
    Trace loaded;
    ASSERT_EQ(loadTraceFile(path, loaded), "");
    EXPECT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.events().back(), original.events().back());
}

TEST_F(TraceFileIo, MissingFileReportsError)
{
    Trace loaded;
    EXPECT_NE(loadTraceFile((dir_ / "nope.trace").string(), loaded),
              "");
}

} // namespace
} // namespace pcap::trace
