#include "sim/input_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <unistd.h>

#include "trace/io.hpp"
#include "util/logging.hpp"

namespace pcap::sim {

namespace {

constexpr char kMagic[4] = {'P', 'C', 'I', 'C'};
constexpr std::uint32_t kFormatVersion = 1;

/** What keeps @p input from being replayed as is, or empty. The
 * replay kernel walks the access array in place, so it relies on the
 * order filterTrace produced. */
std::string
replayProblem(const ExecutionInput &input)
{
    if (!std::is_sorted(input.accesses.begin(), input.accesses.end(),
                        cache::accessBefore))
        return "accesses out of (time, pid) order";
    std::set<Pid> pids;
    for (const ProcessSpan &span : input.processes) {
        if (span.end < span.start) {
            return "span of pid " + std::to_string(span.pid) +
                   " ends before it starts";
        }
        if (!pids.insert(span.pid).second)
            return "duplicate span of pid " + std::to_string(span.pid);
    }
    return {};
}

} // namespace

std::string
WorkloadKey::canonical() const
{
    std::ostringstream os;
    os << "tag=" << kWorkloadCodeTag << "|fmt=" << kFormatVersion
       << "|seed=" << seed << "|app=" << app
       << "|maxExecutions=" << maxExecutions
       << "|cacheBytes=" << cache.capacityBytes
       << "|blockSize=" << cache.blockSize
       << "|flushInterval=" << cache.flushInterval
       << "|flushCheckPeriod=" << cache.flushCheckPeriod;
    return os.str();
}

std::uint64_t
WorkloadKey::hash() const
{
    // FNV-1a, same construction as hashString() but local so the
    // cache address never changes under util refactors.
    std::uint64_t h = 1469598103934665603ull;
    for (char c : canonical()) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::string
WorkloadKey::fileName() const
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash()));
    return app + "-" + hex + ".pcin";
}

void
writeExecutionInputs(const std::vector<ExecutionInput> &inputs,
                     const WorkloadKey &key, std::ostream &os)
{
    os.write(kMagic, sizeof(kMagic));
    trace::putLe<std::uint32_t>(os, kFormatVersion);
    trace::putString(os, key.canonical());
    trace::putLe<std::uint64_t>(os, inputs.size());
    for (const ExecutionInput &input : inputs) {
        trace::putString(os, input.app);
        trace::putLe<std::int32_t>(os, input.execution);
        trace::putLe<std::int64_t>(os, input.endTime);
        trace::putLe<std::uint64_t>(os, input.tracedIos);
        trace::putLe<std::uint64_t>(os, input.cacheStats.lookups);
        trace::putLe<std::uint64_t>(os, input.cacheStats.hits);
        trace::putLe<std::uint64_t>(os, input.cacheStats.misses);
        trace::putLe<std::uint64_t>(os, input.cacheStats.evictions);
        trace::putLe<std::uint64_t>(os,
                                    input.cacheStats.writebackBlocks);
        trace::putLe<std::uint64_t>(os, input.cacheStats.flushRuns);
        trace::writeDiskAccesses(input.accesses, os);
        trace::putLe<std::uint64_t>(os, input.processes.size());
        for (const ProcessSpan &span : input.processes) {
            trace::putLe<std::int32_t>(os, span.pid);
            trace::putLe<std::int64_t>(os, span.start);
            trace::putLe<std::int64_t>(os, span.end);
        }
    }
}

std::string
readExecutionInputs(std::istream &is, const WorkloadKey &key,
                    std::vector<ExecutionInput> &out)
{
    char magic[4];
    if (!is.read(magic, sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(magic)) != 0) {
        return "bad magic";
    }
    std::uint32_t version = 0;
    if (!trace::getLe(is, version) || version != kFormatVersion)
        return "unsupported version";
    std::string echoed;
    if (!trace::getString(is, echoed))
        return "truncated key echo";
    if (echoed != key.canonical())
        return "key mismatch: " + echoed;

    std::uint64_t count = 0;
    if (!trace::getLe(is, count) || count > (1u << 20))
        return "bad execution count";
    out.clear();
    out.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        ExecutionInput input;
        if (!trace::getString(is, input.app))
            return "truncated app name";
        if (!trace::getLe(is, input.execution) ||
            !trace::getLe(is, input.endTime) ||
            !trace::getLe(is, input.tracedIos) ||
            !trace::getLe(is, input.cacheStats.lookups) ||
            !trace::getLe(is, input.cacheStats.hits) ||
            !trace::getLe(is, input.cacheStats.misses) ||
            !trace::getLe(is, input.cacheStats.evictions) ||
            !trace::getLe(is, input.cacheStats.writebackBlocks) ||
            !trace::getLe(is, input.cacheStats.flushRuns)) {
            return "truncated header of execution " +
                   std::to_string(i);
        }
        const std::string problem =
            trace::readDiskAccesses(is, input.accesses);
        if (!problem.empty())
            return "execution " + std::to_string(i) + ": " + problem;
        std::uint64_t spans = 0;
        if (!trace::getLe(is, spans) || spans > (1u << 20))
            return "bad span count of execution " + std::to_string(i);
        input.processes.reserve(spans);
        for (std::uint64_t s = 0; s < spans; ++s) {
            ProcessSpan span;
            if (!trace::getLe(is, span.pid) ||
                !trace::getLe(is, span.start) ||
                !trace::getLe(is, span.end)) {
                return "truncated span of execution " +
                       std::to_string(i);
            }
            input.processes.push_back(span);
        }
        const std::string unreplayable = replayProblem(input);
        if (!unreplayable.empty()) {
            return "execution " + std::to_string(i) + ": " +
                   unreplayable;
        }
        out.push_back(std::move(input));
    }
    return {};
}

WorkloadCache::WorkloadCache(std::string directory)
    : directory_(std::move(directory))
{
}

std::string
WorkloadCache::defaultDirectory()
{
    if (const char *env = std::getenv("PCAP_WORKLOAD_CACHE"))
        return env;
    std::error_code ec;
    const auto tmp = std::filesystem::temp_directory_path(ec);
    if (ec)
        return {};
    return (tmp / "pcap-workload-cache").string();
}

bool
WorkloadCache::load(const WorkloadKey &key,
                    std::vector<ExecutionInput> &out) const
{
    if (!enabled())
        return false;
    const std::filesystem::path path =
        std::filesystem::path(directory_) / key.fileName();
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        ++misses_;
        return false;
    }
    const std::string problem = readExecutionInputs(is, key, out);
    if (!problem.empty()) {
        warn("workload cache: ignoring " + path.string() + ": " +
             problem);
        out.clear();
        ++misses_;
        return false;
    }
    ++hits_;
    return true;
}

void
WorkloadCache::store(const WorkloadKey &key,
                     const std::vector<ExecutionInput> &inputs) const
{
    if (!enabled())
        return;
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    if (ec)
        return;
    const std::filesystem::path path =
        std::filesystem::path(directory_) / key.fileName();
    // Write to a private temp name then rename, so a concurrent
    // bench invocation never observes a half-written entry.
    const std::filesystem::path tmp =
        path.string() + ".tmp" +
        std::to_string(static_cast<unsigned long>(::getpid()));
    {
        std::ofstream os(tmp, std::ios::binary);
        if (!os)
            return;
        writeExecutionInputs(inputs, key, os);
        if (!os)
            return;
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
    else
        ++stores_;
}

} // namespace pcap::sim
