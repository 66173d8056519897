#include "obs/manifest.hpp"

#include <cstdio>
#include <ctime>
#include <fstream>

namespace pcap::obs {

BuildInfo
collectBuildInfo()
{
    BuildInfo info;
    char buffer[64];
#if defined(__clang__)
    info.compiler = "clang";
    std::snprintf(buffer, sizeof buffer, "%d.%d.%d",
                  __clang_major__, __clang_minor__,
                  __clang_patchlevel__);
    info.compilerVersion = buffer;
#elif defined(__GNUC__)
    info.compiler = "gcc";
    std::snprintf(buffer, sizeof buffer, "%d.%d.%d", __GNUC__,
                  __GNUC_MINOR__, __GNUC_PATCHLEVEL__);
    info.compilerVersion = buffer;
#else
    info.compiler = "unknown";
    info.compilerVersion = "unknown";
#endif

#if defined(PCAP_BUILD_TYPE)
    info.buildType = PCAP_BUILD_TYPE;
#endif

#if defined(__cplusplus)
    // 202002L -> "c++20"; report the raw value for anything newer
    // or nonstandard rather than guessing.
    if (__cplusplus >= 202302L)
        info.cxxStandard = "c++23";
    else if (__cplusplus >= 202002L)
        info.cxxStandard = "c++20";
    else if (__cplusplus >= 201703L)
        info.cxxStandard = "c++17";
    else {
        std::snprintf(buffer, sizeof buffer, "%ld",
                      static_cast<long>(__cplusplus));
        info.cxxStandard = buffer;
    }
#endif

#if defined(__SANITIZE_ADDRESS__)
    info.sanitizers.push_back("address");
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    info.sanitizers.push_back("address");
#endif
#endif
#if defined(__SANITIZE_THREAD__)
    info.sanitizers.push_back("thread");
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
    info.sanitizers.push_back("thread");
#endif
#endif
#if defined(PCAP_SANITIZE_BUILD)
    // UBSan defines no feature macro; the build system records the
    // combined ASan+UBSan configuration explicitly instead.
    if (info.sanitizers.empty() ||
        info.sanitizers.front() != "undefined")
        info.sanitizers.push_back("undefined");
#endif
    return info;
}

Json
RunManifest::toJson() const
{
    Json root = Json::object();
    root["schema"] = kManifestSchema;
    root["created_at_utc"] = createdAtUtc;
    root["git_describe"] = gitDescribe;
    root["command"] = command;

    Json &config = root["config"];
    config = Json::object();
    config["seed"] = seed;
    config["jobs"] = jobs;
    config["max_executions"] = maxExecutions;
    if (fleetHosts)
        config["fleet_hosts"] = fleetHosts;

    Json &keys = root["input_keys"];
    keys = Json::object();
    for (const auto &[app, key] : inputKeys)
        keys[app] = key;

    Json &phases = root["phase_ms"];
    phases = Json::object();
    for (const auto &[phase, ms] : phaseMs)
        phases[phase] = ms;

    Json &report_list = root["reports"];
    report_list = Json::array();
    for (const std::string &report : reports)
        report_list.push(report);

    Json &outputs = root["outputs"];
    outputs = Json::object();
    outputs["results"] = resultsPath;
    outputs["prometheus"] = prometheusPath;

    Json &buildJson = root["build"];
    buildJson = Json::object();
    buildJson["compiler"] = build.compiler;
    buildJson["compiler_version"] = build.compilerVersion;
    buildJson["build_type"] = build.buildType;
    buildJson["cxx_standard"] = build.cxxStandard;
    Json &sanitizers = buildJson["sanitizers"];
    sanitizers = Json::array();
    for (const std::string &name : build.sanitizers)
        sanitizers.push(name);

    if (!perfBackend.empty()) {
        Json &perf = root["perf"];
        perf = Json::object();
        perf["requested"] = perfRequested;
        perf["backend"] = perfBackend;
        perf["detail"] = perfDetail;
    }
    return root;
}

std::string
isoTimestampUtc()
{
    const std::time_t now = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&now, &utc);
    char buffer[32];
    std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ",
                  &utc);
    return buffer;
}

std::string
collectGitDescribe(const std::string &dir)
{
    // Best effort: a sandbox without git (or outside a work tree)
    // yields "unknown", never a failed run.
    const std::string command =
        "git -C '" + dir + "' describe --always --dirty 2>/dev/null";
    FILE *pipe = popen(command.c_str(), "r");
    if (!pipe)
        return "unknown";
    char buffer[128];
    std::string out;
    while (std::fgets(buffer, sizeof(buffer), pipe))
        out += buffer;
    pclose(pipe);
    while (!out.empty() &&
           (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    return out.empty() ? "unknown" : out;
}

std::string
writeManifest(const RunManifest &manifest, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        return "cannot open " + path + " for writing";
    manifest.toJson().dump(os);
    os << "\n";
    os.flush();
    if (!os)
        return "write to " + path + " failed";
    return "";
}

} // namespace pcap::obs
