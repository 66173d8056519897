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
constexpr char kBinaryMagic[4] = {'P', 'C', 'T', 'B'};
constexpr std::uint32_t kBinaryVersion = 1;

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/**
 * Little-endian fixed-width scalar I/O: byte order is explicit so
 * binary traces are portable across hosts.
 */
template <typename T>
void
putLe(std::ostream &os, T value)
{
    unsigned char bytes[sizeof(T)];
    auto u = static_cast<std::uint64_t>(value);
    for (std::size_t i = 0; i < sizeof(T); ++i)
        bytes[i] = static_cast<unsigned char>((u >> (8 * i)) & 0xff);
    os.write(reinterpret_cast<const char *>(bytes), sizeof(T));
}

/** @return false when the stream ran out of bytes. */
template <typename T>
bool
getLe(std::istream &is, T &value)
{
    unsigned char bytes[sizeof(T)];
    if (!is.read(reinterpret_cast<char *>(bytes), sizeof(T)))
        return false;
    std::uint64_t u = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        u |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    value = static_cast<T>(u);
    return true;
}

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

void
writeBinary(const Trace &trace, std::ostream &os)
{
    os.write(kBinaryMagic, sizeof(kBinaryMagic));
    putLe<std::uint32_t>(os, kBinaryVersion);
    putLe<std::uint32_t>(os,
                         static_cast<std::uint32_t>(trace.app().size()));
    os.write(trace.app().data(),
             static_cast<std::streamsize>(trace.app().size()));
    putLe<std::uint32_t>(os,
                         static_cast<std::uint32_t>(trace.execution()));
    putLe<std::uint64_t>(os, trace.size());
    for (const auto &event : trace.events()) {
        putLe<std::int64_t>(os, event.time);
        putLe<std::int32_t>(os, event.pid);
        putLe<std::uint8_t>(os, static_cast<std::uint8_t>(event.type));
        putLe<std::uint32_t>(os, event.pc);
        putLe<std::int32_t>(os, event.fd);
        putLe<std::uint32_t>(os, event.file);
        putLe<std::uint64_t>(os, event.offset);
        putLe<std::uint32_t>(os, event.size);
    }
}

std::string
readBinary(std::istream &is, Trace &out)
{
    char magic[4];
    if (!is.read(magic, sizeof(magic)) ||
        std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
        return "bad magic";
    }
    std::uint32_t version = 0;
    if (!getLe(is, version) || version != kBinaryVersion)
        return "unsupported version";

    std::uint32_t name_length = 0;
    if (!getLe(is, name_length) || name_length > 4096)
        return "bad app-name length";
    std::string app(name_length, '\0');
    if (!is.read(app.data(), name_length))
        return "truncated app name";

    std::uint32_t execution = 0;
    std::uint64_t count = 0;
    if (!getLe(is, execution) || !getLe(is, count))
        return "truncated header";

    out = Trace(app, static_cast<int>(execution));
    for (std::uint64_t i = 0; i < count; ++i) {
        TraceEvent event;
        std::uint8_t type = 0;
        if (!getLe(is, event.time) || !getLe(is, event.pid) ||
            !getLe(is, type) || !getLe(is, event.pc) ||
            !getLe(is, event.fd) || !getLe(is, event.file) ||
            !getLe(is, event.offset) || !getLe(is, event.size)) {
            return "truncated at event " + std::to_string(i);
        }
        if (type > static_cast<std::uint8_t>(EventType::Exit))
            return "bad event type at event " + std::to_string(i);
        event.type = static_cast<EventType>(type);
        out.append(event);
    }
    return {};
}

std::string
saveTraceFile(const Trace &trace, const std::string &path)
{
    const bool binary = endsWith(path, ".tracebin");
    std::ofstream os(path, binary ? std::ios::binary : std::ios::out);
    if (!os)
        return "cannot open " + path + " for writing";
    if (binary)
        writeBinary(trace, os);
    else
        writeText(trace, os);
    return os ? std::string{} : "write error on " + path;
}

std::string
loadTraceFile(const std::string &path, Trace &out)
{
    const bool binary = endsWith(path, ".tracebin");
    std::ifstream is(path, binary ? std::ios::binary : std::ios::in);
    if (!is)
        return "cannot open " + path;
    return binary ? readBinary(is, out) : readText(is, out);
}

} // namespace pcap::trace
