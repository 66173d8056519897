/**
 * @file
 * Run manifest: the reproducibility record written alongside every
 * bench run. Where BENCH_RESULTS.json says *what* numbers came out
 * and the metrics dump says *how* the run behaved internally, the
 * manifest says *which* experiment this was: configuration, seeds,
 * the input recipe keys, the code version (git
 * describe) and per-phase wall timings — everything needed to
 * attribute a metrics diff to a code change rather than a config
 * drift.
 */

#ifndef PCAP_OBS_MANIFEST_HPP
#define PCAP_OBS_MANIFEST_HPP

#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace pcap::obs {

/** Schema tag of the manifest document. */
inline constexpr char kManifestSchema[] = "pcap-run-manifest-v1";

/**
 * The build configuration behind a run's numbers. A perf figure is
 * meaningless without it: an AddressSanitizer Debug build runs the
 * replay kernel an order of magnitude slower than the Release build
 * the budgets are sized for.
 */
struct BuildInfo
{
    std::string compiler;        ///< "clang" / "gcc" / "unknown"
    std::string compilerVersion; ///< e.g. "17.0.6"
    std::string buildType;       ///< CMAKE_BUILD_TYPE, may be ""
    std::string cxxStandard;     ///< e.g. "c++20"
    std::vector<std::string> sanitizers; ///< e.g. {"address"}
};

/** The build configuration compiled into this binary. */
BuildInfo collectBuildInfo();

/** Everything a bench run records about itself. */
struct RunManifest
{
    std::string createdAtUtc; ///< ISO 8601, see isoTimestampUtc()
    std::string gitDescribe;  ///< see collectGitDescribe()
    std::string command;      ///< argv, space-joined

    std::uint64_t seed = 0;
    unsigned jobs = 0;
    int maxExecutions = 0;

    /** Fleet size of the run's fleet report; 0 when the fleet
     * report was not selected (the field is then omitted). */
    std::uint64_t fleetHosts = 0;

    /** Identity of each application's inputs: (app, a name
     * embedding the hash of its generation recipe). */
    std::vector<std::pair<std::string, std::string>> inputKeys;

    /** Wall-clock milliseconds per named phase, in run order. */
    std::vector<std::pair<std::string, double>> phaseMs;

    /** Reports rendered by this run, in order. */
    std::vector<std::string> reports;

    std::string resultsPath;    ///< BENCH_RESULTS.json ("" if none)
    std::string prometheusPath; ///< the <stem>.prom beside it

    /** Compiler / build-type / sanitizer record, see BuildInfo. */
    BuildInfo build;

    /** Hardware-counter capability: which perf backend the run used
     * (or would use — the probe is recorded even without --perf),
     * and why. Empty backend = probe not performed. */
    std::string perfBackend; ///< "hardware" / "software" / ""
    std::string perfDetail;  ///< "ok" or the probe failure reason
    bool perfRequested = false; ///< --perf was on for this run

    /** The manifest as a JSON document (schema included). */
    Json toJson() const;
};

/** Current wall-clock time as "YYYY-MM-DDTHH:MM:SSZ" (UTC). */
std::string isoTimestampUtc();

/**
 * `git describe --always --dirty` of @p dir; "unknown" when git or
 * the repository is unavailable. Best effort by design — a missing
 * VCS must never fail a bench run.
 */
std::string collectGitDescribe(const std::string &dir);

/**
 * Serialize @p manifest to @p path. @return empty on success, else
 * a problem description (the caller decides how loud to be).
 */
std::string writeManifest(const RunManifest &manifest,
                          const std::string &path);

} // namespace pcap::obs

#endif // PCAP_OBS_MANIFEST_HPP
