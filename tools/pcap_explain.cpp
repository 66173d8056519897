/**
 * @file
 * pcap_explain — forensics over provenance logs.
 *
 * Reads the binary .prov.bin files written by bench_all
 * --provenance-dir (see obs/provenance.hpp for the format) and
 * renders, per input file: outcome totals, the per-signature
 * accuracy/energy attribution table, the top-K mispredicting
 * signatures, and every signature collision — distinct PC paths
 * (told apart by the order-sensitive full-path hash) that sum to the
 * same 4-byte arithmetic signature.
 *
 * Output is markdown on stdout; --md and --html write the same
 * report as files. Exit codes: 0 success, 1 read/write failure,
 * 2 usage error.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/provenance.hpp"

using namespace pcap;

namespace {

void
usage(std::ostream &os)
{
    os << "usage: pcap_explain [options] <file.prov.bin | dir>...\n"
          "  --top K     mispredicting signatures listed per input "
          "(default 10)\n"
          "  --md PATH   also write the report as markdown\n"
          "  --html PATH also write the report as HTML\n"
          "  -h, --help  this text\n"
          "Directories expand to every *.prov.bin inside, sorted.\n";
}

/** One input file and everything aggregated from it. */
struct FileReport
{
    std::string path;
    obs::ProvenanceForensics forensics;
};

std::string
hexSignature(std::uint32_t signature)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(8) << std::setfill('0')
       << signature;
    return os.str();
}

std::string
fixed1(double value)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1) << value;
    return os.str();
}

/** "pc1>pc2>..." rendering of a record's trailing call sites. */
std::string
tailString(const obs::ProvenanceRecord &record)
{
    std::ostringstream os;
    for (std::uint8_t i = 0; i < record.pathTailLength; ++i) {
        if (i)
            os << '>';
        os << std::hex << record.pathTail[i];
    }
    if (record.pathLength > record.pathTailLength)
        os << " (+" << std::dec
           << record.pathLength - record.pathTailLength
           << " earlier)";
    return os.str();
}

/** A markdown table row; cells are pre-rendered strings. */
using Row = std::vector<std::string>;

struct Table
{
    Row header;
    std::vector<Row> rows;
};

Table
attributionTable(const obs::ProvenanceForensics &forensics,
                 std::size_t top)
{
    Table table;
    table.header = {"signature", "periods", "hits",   "misses",
                    "short",     "no-op",   "paths",  "net J"};
    for (const obs::SignatureSummary *s :
         forensics.topMispredictors(top)) {
        table.rows.push_back(
            {hexSignature(s->signature), std::to_string(s->periods),
             std::to_string(s->hits()), std::to_string(s->misses()),
             std::to_string(s->outcomes[obs::kOutcomeShort]),
             std::to_string(s->outcomes[obs::kOutcomeNotPredicted]),
             std::to_string(s->pathCounts.size()),
             fixed1(s->energyDeltaJ)});
    }
    return table;
}

Table
collisionTable(const obs::ProvenanceForensics &forensics)
{
    Table table;
    table.header = {"signature", "paths", "periods", "example paths"};
    for (const obs::SignatureSummary *s : forensics.collisions()) {
        std::string examples;
        std::size_t shown = 0;
        for (const auto &[hash, record] : s->pathExamples) {
            if (shown == 2) {
                examples += "; ...";
                break;
            }
            if (shown)
                examples += "; ";
            examples += tailString(record);
            ++shown;
        }
        table.rows.push_back({hexSignature(s->signature),
                              std::to_string(s->pathCounts.size()),
                              std::to_string(s->periods), examples});
    }
    return table;
}

Table
outcomeTable(const obs::ProvenanceForensics &forensics)
{
    Table table;
    table.header = {"outcome", "periods"};
    const auto &totals = forensics.outcomeTotals();
    for (std::size_t i = 0; i < totals.size(); ++i) {
        table.rows.push_back(
            {obs::provenanceOutcomeName(
                 static_cast<std::uint8_t>(i)),
             std::to_string(totals[i])});
    }
    return table;
}

void
markdownTable(std::ostream &os, const Table &table)
{
    auto row = [&os](const Row &cells) {
        os << '|';
        for (const std::string &cell : cells)
            os << ' ' << cell << " |";
        os << '\n';
    };
    row(table.header);
    Row rule(table.header.size(), "---");
    row(rule);
    for (const Row &cells : table.rows)
        row(cells);
    os << '\n';
}

void
htmlTable(std::ostream &os, const Table &table)
{
    auto escape = [](const std::string &text) {
        std::string out;
        for (char c : text) {
            switch (c) {
              case '<': out += "&lt;"; break;
              case '>': out += "&gt;"; break;
              case '&': out += "&amp;"; break;
              default: out += c;
            }
        }
        return out;
    };
    os << "<table>\n<tr>";
    for (const std::string &cell : table.header)
        os << "<th>" << escape(cell) << "</th>";
    os << "</tr>\n";
    for (const Row &cells : table.rows) {
        os << "<tr>";
        for (const std::string &cell : cells)
            os << "<td>" << escape(cell) << "</td>";
        os << "</tr>\n";
    }
    os << "</table>\n";
}

/** Render the whole report; @p html toggles the two formats. */
void
render(std::ostream &os, const std::vector<FileReport> &reports,
       std::size_t top, bool html)
{
    auto heading = [&](int level, const std::string &text) {
        if (html) {
            os << "<h" << level << ">" << text << "</h" << level
               << ">\n";
        } else {
            os << std::string(static_cast<std::size_t>(level), '#')
               << ' ' << text << "\n\n";
        }
    };
    auto paragraph = [&](const std::string &text) {
        if (html)
            os << "<p>" << text << "</p>\n";
        else
            os << text << "\n\n";
    };
    auto emit = [&](const Table &table) {
        if (html)
            htmlTable(os, table);
        else
            markdownTable(os, table);
    };

    if (html) {
        os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
              "<title>pcap_explain</title>\n"
              "<style>body{font-family:monospace}table{border-"
              "collapse:collapse}td,th{border:1px solid #999;"
              "padding:2px 8px;text-align:right}th{background:#eee}"
              "</style></head><body>\n";
    }
    heading(1, "PCAP provenance forensics");
    for (const FileReport &report : reports) {
        const obs::ProvenanceForensics &f = report.forensics;
        heading(2, report.path);
        paragraph(std::to_string(f.records()) + " records (" +
                  std::to_string(f.noDecision()) +
                  " without a PCAP decision), " +
                  std::to_string(f.bySignature().size()) +
                  " distinct signatures, net energy delta " +
                  fixed1(f.energyDeltaJ()) + " J.");
        heading(3, "Outcome totals");
        emit(outcomeTable(f));
        heading(3, "Top mispredicting signatures");
        emit(attributionTable(f, top));
        heading(3, "Signature collisions");
        const Table collisions = collisionTable(f);
        if (collisions.rows.empty())
            paragraph("none");
        else
            emit(collisions);
    }
    if (html)
        os << "</body></html>\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t top = 10;
    std::string md_path;
    std::string html_path;
    std::vector<std::string> inputs;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (++i >= argc) {
                std::cerr << "pcap_explain: " << flag
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[i];
        };
        if (arg == "-h" || arg == "--help") {
            usage(std::cout);
            return 0;
        } else if (arg == "--top") {
            const std::string text = value("--top");
            try {
                top = std::stoul(text);
            } catch (const std::exception &) {
                std::cerr << "pcap_explain: --top needs an integer, "
                             "got '"
                          << text << "'\n";
                return 2;
            }
        } else if (arg == "--md") {
            md_path = value("--md");
        } else if (arg == "--html") {
            html_path = value("--html");
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "pcap_explain: unknown option " << arg
                      << "\n";
            usage(std::cerr);
            return 2;
        } else {
            inputs.push_back(arg);
        }
    }
    if (inputs.empty()) {
        usage(std::cerr);
        return 2;
    }

    // Expand directories to their .prov.bin files, sorted for a
    // deterministic report order.
    std::vector<std::string> files;
    for (const std::string &input : inputs) {
        if (std::filesystem::is_directory(input)) {
            std::vector<std::string> found;
            for (const auto &entry :
                 std::filesystem::directory_iterator(input)) {
                const std::string path = entry.path().string();
                if (path.size() >= 9 &&
                    path.compare(path.size() - 9, 9, ".prov.bin") ==
                        0)
                    found.push_back(path);
            }
            std::sort(found.begin(), found.end());
            files.insert(files.end(), found.begin(), found.end());
        } else {
            files.push_back(input);
        }
    }
    if (files.empty()) {
        std::cerr << "pcap_explain: no .prov.bin files found\n";
        return 1;
    }

    std::vector<FileReport> reports;
    for (const std::string &path : files) {
        std::vector<obs::ProvenanceRecord> records;
        const std::string problem =
            obs::readProvenanceFile(path, records);
        if (!problem.empty()) {
            std::cerr << "pcap_explain: " << problem << "\n";
            return 1;
        }
        FileReport report;
        report.path = path;
        for (const obs::ProvenanceRecord &record : records)
            report.forensics.add(record);
        reports.push_back(std::move(report));
    }

    render(std::cout, reports, top, /*html=*/false);

    if (!md_path.empty()) {
        std::ofstream os(md_path);
        if (!os) {
            std::cerr << "pcap_explain: cannot write " << md_path
                      << "\n";
            return 1;
        }
        render(os, reports, top, /*html=*/false);
        if (!os) {
            std::cerr << "pcap_explain: write failed on " << md_path
                      << "\n";
            return 1;
        }
    }
    if (!html_path.empty()) {
        std::ofstream os(html_path);
        if (!os) {
            std::cerr << "pcap_explain: cannot write " << html_path
                      << "\n";
            return 1;
        }
        render(os, reports, top, /*html=*/true);
        if (!os) {
            std::cerr << "pcap_explain: write failed on " << html_path
                      << "\n";
            return 1;
        }
    }
    return 0;
}
