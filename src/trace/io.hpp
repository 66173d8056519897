/**
 * @file
 * Trace serialization: one human-readable text format, one event per
 * line, like the modified strace output the paper worked from.
 */

#ifndef PCAP_TRACE_IO_HPP
#define PCAP_TRACE_IO_HPP

#include <iosfwd>
#include <string>

#include "trace/event.hpp"
#include "trace/trace.hpp"

namespace pcap::trace {

/**
 * Write @p trace as text: a header line
 * `# pcap-trace v1 app=<name> execution=<n>` followed by one
 * tab-separated line per event:
 * `time_us pid type pc fd file offset size`.
 */
void writeText(const Trace &trace, std::ostream &os);

/**
 * Parse a text trace produced by writeText().
 * @param is Stream to read.
 * @param out Receives the parsed trace.
 * @return empty string on success, else a parse-error description
 *         naming the offending line.
 */
std::string readText(std::istream &is, Trace &out);

/** Save a trace to a file as text. Returns error or empty. */
std::string saveTraceFile(const Trace &trace, const std::string &path);

/** Load a trace from a file written by saveTraceFile(). */
std::string loadTraceFile(const std::string &path, Trace &out);

} // namespace pcap::trace

#endif // PCAP_TRACE_IO_HPP
