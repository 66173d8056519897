#include "trace/io.hpp"

#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

namespace pcap::trace {

namespace {

constexpr char kTextMagic[] = "# pcap-trace v1";

} // namespace

void
writeText(const Trace &trace, std::ostream &os)
{
    os << kTextMagic << " app=" << trace.app()
       << " execution=" << trace.execution() << '\n';
    for (const auto &event : trace.events()) {
        os << event.time << '\t' << event.pid << '\t'
           << eventTypeName(event.type) << '\t' << event.pc << '\t'
           << event.fd << '\t' << event.file << '\t' << event.offset
           << '\t' << event.size << '\n';
    }
}

std::string
readText(std::istream &is, Trace &out)
{
    std::string line;
    if (!std::getline(is, line))
        return "empty input";
    if (line.rfind(kTextMagic, 0) != 0)
        return "bad header: " + line;

    std::string app = "unknown";
    int execution = 0;
    {
        std::istringstream header(line.substr(std::strlen(kTextMagic)));
        std::string field;
        while (header >> field) {
            if (field.rfind("app=", 0) == 0)
                app = field.substr(4);
            else if (field.rfind("execution=", 0) == 0) {
                const char *last = field.data() + field.size();
                const auto [end, ec] =
                    std::from_chars(field.data() + 10, last, execution);
                if (ec != std::errc() || end != last)
                    return "bad execution in header: " + field;
            }
        }
    }
    out = Trace(app, execution);

    std::size_t line_number = 1;
    while (std::getline(is, line)) {
        ++line_number;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        TraceEvent event;
        std::string type_name;
        if (!(fields >> event.time >> event.pid >> type_name >>
              event.pc >> event.fd >> event.file >> event.offset >>
              event.size)) {
            return "line " + std::to_string(line_number) +
                   ": malformed event";
        }
        if (!parseEventType(type_name, event.type)) {
            return "line " + std::to_string(line_number) +
                   ": unknown event type '" + type_name + "'";
        }
        out.append(event);
    }
    return {};
}

std::string
saveTraceFile(const Trace &trace, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        return "cannot open " + path + " for writing";
    writeText(trace, os);
    return os ? std::string{} : "write error on " + path;
}

std::string
loadTraceFile(const std::string &path, Trace &out)
{
    std::ifstream is(path);
    if (!is)
        return "cannot open " + path;
    return readText(is, out);
}

} // namespace pcap::trace
