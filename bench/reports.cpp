#include "reports.hpp"

#include <iostream>
#include <ostream>

#include <fstream>
#include <iomanip>
#include <sstream>

#include "obs/perf.hpp"
#include "obs/provenance.hpp"
#include "power/disk_params.hpp"
#include "sim/drivers.hpp"
#include "sim/fleet.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "workload/app_model.hpp"

namespace pcap::bench {

namespace {

/** The named policies, resolved through the registry. */
std::vector<sim::PolicyConfig>
policiesByName(std::initializer_list<const char *> names)
{
    std::vector<sim::PolicyConfig> policies;
    policies.reserve(names.size());
    for (const char *name : names)
        policies.push_back(sim::policyByName(name));
    return policies;
}

/** Titled section header of every report. */
void
header(std::ostream &os, const std::string &title,
       const std::string &paper_note)
{
    os << "\n== " << title << " ==\n";
    if (!paper_note.empty())
        os << paper_note << "\n";
    os << "\n";
}

std::vector<sim::Cell>
globalCells(const std::vector<sim::PolicyConfig> &policies,
            bool withBase = false)
{
    std::vector<sim::Cell> cells;
    for (const std::string &app :
         workload::standardAppNames()) {
        for (const auto &policy : policies)
            cells.push_back({sim::CellMode::Global, app, policy});
        if (withBase)
            cells.push_back({sim::CellMode::Base, app, {}});
    }
    return cells;
}

// -- Table 1 ---------------------------------------------------

struct Table1PaperRow
{
    const char *app;
    int executions;
    int globalIdle;
    int localIdle;
    long totalIos;
};

constexpr Table1PaperRow kTable1Paper[] = {
    {"mozilla", 49, 365, 1001, 90843},
    {"writer", 33, 112, 358, 133016},
    {"impress", 19, 87, 234, 220455},
    {"xemacs", 37, 94, 103, 79720},
    {"nedit", 29, 29, 29, 6663},
    {"mplayer", 31, 51, 111, 512433},
};

void
reportTable1(ReportContext &ctx, std::ostream &os)
{
    header(os, "Table 1: applications and execution details",
           "measured = this reproduction's synthetic workload; "
           "paper = Gniady et al., Table 1.");

    TextTable table;
    table.setHeader({"app", "executions", "global idle", "(paper)",
                     "local idle", "(paper)", "total I/Os",
                     "(paper)"});

    for (const Table1PaperRow &paper : kTable1Paper) {
        const auto row = ctx.eval.table1(paper.app);
        table.addRow({paper.app, std::to_string(row.executions),
                      std::to_string(row.globalIdlePeriods),
                      std::to_string(paper.globalIdle),
                      std::to_string(row.localIdlePeriods),
                      std::to_string(paper.localIdle),
                      std::to_string(row.totalIos),
                      std::to_string(paper.totalIos)});
    }
    table.print(os);
}

// -- Table 2 ---------------------------------------------------

void
reportTable2(ReportContext &, std::ostream &os)
{
    header(os,
           "Table 2: states and state transitions of the simulated "
           "disk",
           "Fujitsu MHF 2043AT, as used throughout the paper.");

    const power::DiskParams disk = power::fujitsuMhf2043at();

    TextTable table;
    table.setHeader({"parameter", "value", "paper"});
    table.addRow({"Busy power",
                  fixedString(disk.busyPowerW, 2) + " W", "2.2 W"});
    table.addRow({"Idle power",
                  fixedString(disk.idlePowerW, 2) + " W", "0.95 W"});
    table.addRow({"Standby power",
                  fixedString(disk.standbyPowerW, 2) + " W",
                  "0.13 W"});
    table.addRow({"Spin-up energy",
                  fixedString(disk.spinUpEnergyJ, 1) + " J",
                  "4.4 J"});
    table.addRow({"Shutdown energy",
                  fixedString(disk.shutdownEnergyJ, 2) + " J",
                  "0.36 J"});
    table.addRow({"Spin-up time",
                  fixedString(usToSeconds(disk.spinUpTime), 2) +
                      " s",
                  "1.6 s"});
    table.addRow({"Shutdown time",
                  fixedString(usToSeconds(disk.shutdownTime), 2) +
                      " s",
                  "0.67 s"});
    table.addRow({"Breakeven time (quoted)",
                  fixedString(usToSeconds(disk.breakevenTime), 2) +
                      " s",
                  "5.43 s"});
    table.addRow({"Breakeven time (derived)",
                  fixedString(disk.derivedBreakevenSeconds(), 2) +
                      " s",
                  "-"});
    table.print(os);

    const std::string problem = disk.validate();
    os << "\nconsistency check: "
       << (problem.empty() ? "OK" : problem) << "\n";
}

std::vector<sim::Cell>
cellsNone()
{
    return {};
}

// -- Table 3 ---------------------------------------------------

struct Table3PaperRow
{
    const char *app;
    int pcap, pcaph, pcapf, pcapfh;
};

constexpr Table3PaperRow kTable3Paper[] = {
    {"mozilla", 72, 99, 129, 139}, {"writer", 30, 36, 30, 36},
    {"impress", 34, 44, 44, 47},   {"xemacs", 13, 16, 13, 16},
    {"nedit", 6, 6, 6, 6},         {"mplayer", 24, 24, 26, 26},
};

std::vector<sim::PolicyConfig>
pcapVariantPolicies()
{
    return policiesByName({"PCAP", "PCAPh", "PCAPf", "PCAPfh"});
}

void
reportTable3(ReportContext &ctx, std::ostream &os)
{
    header(os,
           "Table 3: prediction-table storage requirements "
           "(entries)",
           "Paper: 6-139 entries; mozilla PCAPfh = 139 entries "
           "(556 bytes).");

    const std::vector<sim::PolicyConfig> policies =
        pcapVariantPolicies();

    TextTable table;
    table.setHeader({"app", "PCAP", "(paper)", "PCAPh", "(paper)",
                     "PCAPf", "(paper)", "PCAPfh", "(paper)",
                     "bytes (PCAPfh)"});

    for (const Table3PaperRow &paper : kTable3Paper) {
        std::vector<std::size_t> entries;
        for (const auto &policy : policies)
            entries.push_back(
                ctx.eval.globalRun(paper.app, policy).tableEntries);
        table.addRow({paper.app, std::to_string(entries[0]),
                      std::to_string(paper.pcap),
                      std::to_string(entries[1]),
                      std::to_string(paper.pcaph),
                      std::to_string(entries[2]),
                      std::to_string(paper.pcapf),
                      std::to_string(entries[3]),
                      std::to_string(paper.pcapfh),
                      std::to_string(entries[3] * 4)});
    }
    table.print(os);
}

std::vector<sim::Cell>
cellsTable3()
{
    return globalCells(pcapVariantPolicies());
}

// -- Figures 6 and 7 -------------------------------------------

std::vector<sim::PolicyConfig>
corePolicies()
{
    return policiesByName({"TP", "LT", "PCAP"});
}

/** Figures 6 and 7 share their layout; only the stats source
 * (local vs global run) differs. */
void
accuracyFigure(ReportContext &ctx, std::ostream &os, bool local)
{
    const std::vector<sim::PolicyConfig> policies = corePolicies();

    TextTable table;
    table.setHeader({"app", "policy", "hit", "not-predicted",
                     "miss", "periods"});

    std::vector<std::vector<double>> hit(policies.size());
    std::vector<std::vector<double>> miss(policies.size());

    for (const std::string &app : ctx.eval.appNames()) {
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const sim::AccuracyStats stats =
                local ? ctx.eval.localAccuracy(app, policies[p])
                      : ctx.eval.globalRun(app, policies[p])
                            .run.accuracy;
            table.addRow({app, policies[p].label,
                          percentString(stats.hitFraction()),
                          percentString(
                              stats.notPredictedFraction()),
                          percentString(stats.missFraction()),
                          std::to_string(stats.opportunities)});
            hit[p].push_back(stats.hitFraction());
            miss[p].push_back(stats.missFraction());
        }
    }
    for (std::size_t p = 0; p < policies.size(); ++p) {
        table.addRow({"AVERAGE", policies[p].label,
                      percentString(averageOf(hit[p])), "",
                      percentString(averageOf(miss[p])), ""});
    }
    table.print(os);
}

void
reportFig6(ReportContext &ctx, std::ostream &os)
{
    header(os, "Figure 6: local shutdown predictor accuracy",
           "Paper averages: TP 52% hit / 3% miss; LT 88% / 10%; "
           "PCAP 89% / 5%.");
    accuracyFigure(ctx, os, /*local=*/true);
}

std::vector<sim::Cell>
cellsFig6()
{
    std::vector<sim::Cell> cells;
    for (const std::string &app : workload::standardAppNames())
        for (const auto &policy : corePolicies())
            cells.push_back({sim::CellMode::Local, app, policy});
    return cells;
}

void
reportFig7(ReportContext &ctx, std::ostream &os)
{
    header(os, "Figure 7: global shutdown predictor accuracy",
           "Paper averages: TP 71% hit / 8% miss; LT 84% / 20%; "
           "PCAP 86% / 10%.");
    accuracyFigure(ctx, os, /*local=*/false);
}

std::vector<sim::Cell>
cellsFig7()
{
    return globalCells(corePolicies());
}

// -- Figure 8 --------------------------------------------------

void
addEnergyRow(TextTable &table, const std::string &app,
             const std::string &label,
             const power::EnergyLedger &ledger,
             const power::EnergyLedger &base,
             std::vector<double> *savings)
{
    const double base_total = base.total();
    auto frac = [base_total](double joules) {
        return base_total > 0.0 ? joules / base_total : 0.0;
    };
    const double total_fraction = ledger.normalizedTo(base);
    table.addRow(
        {app, label,
         percentString(
             frac(ledger.get(power::EnergyCategory::BusyIo))),
         percentString(
             frac(ledger.get(power::EnergyCategory::IdleShort))),
         percentString(
             frac(ledger.get(power::EnergyCategory::IdleLong))),
         percentString(
             frac(ledger.get(power::EnergyCategory::PowerCycle))),
         percentString(total_fraction),
         percentString(1.0 - total_fraction)});
    if (savings)
        savings->push_back(1.0 - total_fraction);
}

void
reportFig8(ReportContext &ctx, std::ostream &os)
{
    header(os, "Figure 8: energy distribution (normalized to Base)",
           "Paper savings averages: Ideal 78%, TP 72%, LT 75%, "
           "PCAP 76%.");

    const std::vector<sim::PolicyConfig> policies = corePolicies();

    TextTable table;
    table.setHeader({"app", "policy", "busy", "idle<BE", "idle>BE",
                     "cycle", "total", "saved"});

    std::vector<double> ideal_savings;
    std::vector<std::vector<double>> policy_savings(
        policies.size());

    for (const std::string &app : ctx.eval.appNames()) {
        const power::EnergyLedger &base =
            ctx.eval.baseRun(app).energy;
        addEnergyRow(table, app, "Base", base, base, nullptr);
        addEnergyRow(table, app, "Ideal",
                     ctx.eval.idealRun(app).energy, base,
                     &ideal_savings);
        for (std::size_t p = 0; p < policies.size(); ++p) {
            addEnergyRow(
                table, app, policies[p].label,
                ctx.eval.globalRun(app, policies[p]).run.energy,
                base, &policy_savings[p]);
        }
    }

    table.addRow({"AVERAGE", "Ideal", "", "", "", "", "",
                  percentString(averageOf(ideal_savings))});
    for (std::size_t p = 0; p < policies.size(); ++p) {
        table.addRow({"AVERAGE", policies[p].label, "", "", "", "",
                      "",
                      percentString(
                          averageOf(policy_savings[p]))});
    }
    table.print(os);
}

std::vector<sim::Cell>
cellsFig8()
{
    std::vector<sim::Cell> cells = globalCells(corePolicies(),
                                               /*withBase=*/true);
    for (const std::string &app : workload::standardAppNames())
        cells.push_back({sim::CellMode::Ideal, app, {}});
    return cells;
}

// -- Figure 9 --------------------------------------------------

void
reportFig9(ReportContext &ctx, std::ostream &os)
{
    header(os,
           "Figure 9: PCAP context optimizations (global "
           "predictor)",
           "Paper averages: PCAP 85%/10%, PCAPh 85%/5%, PCAPf "
           "85%/9%, PCAPfh 84%/5%; history halves mozilla's "
           "misses.");

    const std::vector<sim::PolicyConfig> policies =
        pcapVariantPolicies();

    TextTable table;
    table.setHeader({"app", "policy", "hit-primary", "hit-backup",
                     "miss-primary", "miss-backup", "not-predicted",
                     "hit", "miss"});

    std::vector<std::vector<double>> hit(policies.size());
    std::vector<std::vector<double>> miss(policies.size());

    for (const std::string &app : ctx.eval.appNames()) {
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const sim::AccuracyStats stats =
                ctx.eval.globalRun(app, policies[p]).run.accuracy;
            table.addRow(
                {app, policies[p].label,
                 percentString(stats.hitPrimaryFraction()),
                 percentString(stats.hitBackupFraction()),
                 percentString(stats.missPrimaryFraction()),
                 percentString(stats.missBackupFraction()),
                 percentString(stats.notPredictedFraction()),
                 percentString(stats.hitFraction()),
                 percentString(stats.missFraction())});
            hit[p].push_back(stats.hitFraction());
            miss[p].push_back(stats.missFraction());
        }
    }
    for (std::size_t p = 0; p < policies.size(); ++p) {
        table.addRow({"AVERAGE", policies[p].label, "", "", "", "",
                      "", percentString(averageOf(hit[p])),
                      percentString(averageOf(miss[p]))});
    }
    table.print(os);
}

// -- Figure 10 -------------------------------------------------

std::vector<sim::PolicyConfig>
reusePolicies()
{
    return policiesByName({"PCAP", "PCAPa", "LT", "LTa"});
}

void
reportFig10(ReportContext &ctx, std::ostream &os)
{
    header(os,
           "Figure 10: prediction-table reuse (global predictor)",
           "Paper: PCAP primary 70% (backup 15%); PCAPa primary "
           "16% (backup 59%); LT 66%/18%; LTa 26%/50%.");

    const std::vector<sim::PolicyConfig> policies = reusePolicies();

    TextTable table;
    table.setHeader({"app", "policy", "hit-primary", "hit-backup",
                     "miss-primary", "miss-backup",
                     "not-predicted"});

    std::vector<std::vector<double>> hitP(policies.size());
    std::vector<std::vector<double>> hitB(policies.size());
    std::vector<std::vector<double>> miss(policies.size());

    for (const std::string &app : ctx.eval.appNames()) {
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const sim::AccuracyStats stats =
                ctx.eval.globalRun(app, policies[p]).run.accuracy;
            table.addRow(
                {app, policies[p].label,
                 percentString(stats.hitPrimaryFraction()),
                 percentString(stats.hitBackupFraction()),
                 percentString(stats.missPrimaryFraction()),
                 percentString(stats.missBackupFraction()),
                 percentString(stats.notPredictedFraction())});
            hitP[p].push_back(stats.hitPrimaryFraction());
            hitB[p].push_back(stats.hitBackupFraction());
            miss[p].push_back(stats.missFraction());
        }
    }
    for (std::size_t p = 0; p < policies.size(); ++p) {
        table.addRow({"AVERAGE", policies[p].label,
                      percentString(averageOf(hitP[p])),
                      percentString(averageOf(hitB[p])),
                      percentString(averageOf(miss[p])), "", ""});
    }
    table.print(os);
}

std::vector<sim::Cell>
cellsFig10()
{
    return globalCells(reusePolicies());
}

// -- Ablation: timeout sensitivity -----------------------------

/** The backup timers of the sweep, in seconds. */
constexpr double kTimeoutSweepS[] = {2.0, 5.43, 10.0, 20.0, 30.0};

/** TP then PCAP for each timer of kTimeoutSweepS. */
std::vector<sim::PolicyConfig>
timeoutSweepPolicies()
{
    std::vector<sim::PolicyConfig> policies;
    for (double timer : kTimeoutSweepS) {
        policies.push_back(
            sim::PolicyConfig::timeoutPolicy(secondsUs(timer)));
        sim::PolicyConfig pcap = sim::policyByName("PCAP");
        pcap.timeout = secondsUs(timer);
        policies.push_back(pcap);
    }
    return policies;
}

double
averageSavings(sim::ParallelEvaluation &eval,
               const sim::PolicyConfig &policy)
{
    std::vector<double> savings;
    for (const std::string &app : eval.appNames()) {
        const double total =
            eval.globalRun(app, policy)
                .run.energy.normalizedTo(eval.baseRun(app).energy);
        savings.push_back(1.0 - total);
    }
    return averageOf(savings);
}

double
averageMiss(sim::ParallelEvaluation &eval,
            const sim::PolicyConfig &policy)
{
    std::vector<double> misses;
    for (const std::string &app : eval.appNames())
        misses.push_back(eval.globalRun(app, policy)
                             .run.accuracy.missFraction());
    return averageOf(misses);
}

void
reportAblationTimeout(ReportContext &ctx, std::ostream &os)
{
    header(os, "Ablation: timeout sensitivity (Section 6.3)",
           "Paper: TP 10s saves 72% / 8% miss; TP 5.43s saves 74% "
           "/ 12% miss; LT and PCAP are insensitive to the backup "
           "timer.");

    TextTable table;
    table.setHeader({"timer", "TP saved", "TP miss", "PCAP saved",
                     "PCAP miss"});

    const std::vector<sim::PolicyConfig> policies =
        timeoutSweepPolicies();
    for (std::size_t i = 0; i < std::size(kTimeoutSweepS); ++i) {
        const sim::PolicyConfig &tp = policies[2 * i];
        const sim::PolicyConfig &pcap = policies[2 * i + 1];
        table.addRow({fixedString(kTimeoutSweepS[i], 2) + " s",
                      percentString(averageSavings(ctx.eval, tp)),
                      percentString(averageMiss(ctx.eval, tp)),
                      percentString(averageSavings(ctx.eval, pcap)),
                      percentString(averageMiss(ctx.eval, pcap))});
    }
    table.print(os);
}

std::vector<sim::Cell>
cellsAblationTimeout()
{
    return globalCells(timeoutSweepPolicies(), /*withBase=*/true);
}

// -- Ablation: history length ----------------------------------

/** The PCAPh history lengths and LT tree depths of the sweep. */
constexpr int kHistorySweep[] = {1, 2, 4, 6, 8, 10, 12};

/** PCAPh then LT for each length of kHistorySweep. */
std::vector<sim::PolicyConfig>
historySweepPolicies()
{
    std::vector<sim::PolicyConfig> policies;
    for (int length : kHistorySweep) {
        sim::PolicyConfig pcaph = sim::policyByName("PCAPh");
        pcaph.pcap.historyLength = length;
        policies.push_back(pcaph);
        sim::PolicyConfig lt = sim::policyByName("LT");
        lt.lt.historyLength = length;
        policies.push_back(lt);
    }
    return policies;
}

void
hitMissAverages(sim::ParallelEvaluation &eval,
                const sim::PolicyConfig &policy, double &hit,
                double &miss)
{
    std::vector<double> hits, misses;
    for (const std::string &app : eval.appNames()) {
        const sim::AccuracyStats stats =
            eval.globalRun(app, policy).run.accuracy;
        hits.push_back(stats.hitFraction());
        misses.push_back(stats.missFraction());
    }
    hit = averageOf(hits);
    miss = averageOf(misses);
}

void
reportAblationHistory(ReportContext &ctx, std::ostream &os)
{
    header(os,
           "Ablation: history length (PCAPh idle history / LT tree "
           "depth)",
           "Paper picks PCAPh length 6 and LT depth 8; longer "
           "histories plateau.");

    TextTable table;
    table.setHeader({"length", "PCAPh hit", "PCAPh miss", "LT hit",
                     "LT miss"});

    const std::vector<sim::PolicyConfig> policies =
        historySweepPolicies();
    for (std::size_t i = 0; i < std::size(kHistorySweep); ++i) {
        double pcap_hit = 0, pcap_miss = 0, lt_hit = 0, lt_miss = 0;
        hitMissAverages(ctx.eval, policies[2 * i], pcap_hit,
                        pcap_miss);
        hitMissAverages(ctx.eval, policies[2 * i + 1], lt_hit,
                        lt_miss);

        table.addRow({std::to_string(kHistorySweep[i]),
                      percentString(pcap_hit),
                      percentString(pcap_miss),
                      percentString(lt_hit),
                      percentString(lt_miss)});
    }
    table.print(os);
}

std::vector<sim::Cell>
cellsAblationHistory()
{
    return globalCells(historySweepPolicies());
}

// -- Ablation: wait-window -------------------------------------

/** The wait-windows of the sweep, in seconds; 1 s is the paper's. */
constexpr double kWaitWindowSweepS[] = {0.05, 0.25, 0.5,
                                        1.0,  2.0,  4.0};

/** PCAP with each wait-window of kWaitWindowSweepS. */
std::vector<sim::PolicyConfig>
waitWindowSweepPolicies()
{
    std::vector<sim::PolicyConfig> policies;
    for (double window_s : kWaitWindowSweepS) {
        sim::PolicyConfig pcap = sim::policyByName("PCAP");
        pcap.pcap.waitWindow = secondsUs(window_s);
        policies.push_back(pcap);
    }
    return policies;
}

void
reportAblationWaitWindow(ReportContext &ctx, std::ostream &os)
{
    header(os,
           "Ablation: sliding wait-window length (PCAP, global)",
           "Paper uses 1 s; shorter windows let burst-internal "
           "matches spin the disk down, longer windows waste idle "
           "energy.");

    TextTable table;
    table.setHeader({"window", "hit", "miss", "not-predicted",
                     "saved"});

    const std::vector<sim::PolicyConfig> policies =
        waitWindowSweepPolicies();
    for (std::size_t i = 0; i < std::size(kWaitWindowSweepS); ++i) {
        const sim::PolicyConfig &pcap = policies[i];
        std::vector<double> hit, miss, notp, saved;
        for (const std::string &app : ctx.eval.appNames()) {
            const auto outcome = ctx.eval.globalRun(app, pcap);
            hit.push_back(outcome.run.accuracy.hitFraction());
            miss.push_back(outcome.run.accuracy.missFraction());
            notp.push_back(
                outcome.run.accuracy.notPredictedFraction());
            saved.push_back(1.0 -
                            outcome.run.energy.normalizedTo(
                                ctx.eval.baseRun(app).energy));
        }
        table.addRow({fixedString(kWaitWindowSweepS[i], 2) + " s",
                      percentString(averageOf(hit)),
                      percentString(averageOf(miss)),
                      percentString(averageOf(notp)),
                      percentString(averageOf(saved))});
    }
    table.print(os);
}

std::vector<sim::Cell>
cellsAblationWaitWindow()
{
    return globalCells(waitWindowSweepPolicies(),
                       /*withBase=*/true);
}

// -- Ablation: file-cache size ---------------------------------

/** The file-cache capacities of the sweep; 256 KB is the paper's. */
constexpr std::size_t kCacheSweepKb[] = {64, 128, 256, 512, 1024, 4096};

std::vector<sim::Cell>
cellsAblationCache()
{
    std::vector<sim::Cell> cells;
    for (std::size_t kb : kCacheSweepKb) {
        for (sim::Cell cell : globalCells(policiesByName({"PCAP"}),
                                          /*withBase=*/true)) {
            cell.cacheBytes = kb * 1024;
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

void
reportAblationCache(ReportContext &ctx, std::ostream &os)
{
    header(os, "Ablation: file-cache size (paper: 256 KB)",
           "Larger caches absorb more traffic: fewer disk "
           "accesses, fewer but longer idle periods.");

    TextTable table;
    table.setHeader({"cache", "disk accesses", "global periods",
                     "PCAP hit", "PCAP miss", "PCAP saved"});

    sim::ParallelEvaluation &eval = ctx.eval;
    const sim::PolicyConfig pcap = sim::policyByName("PCAP");
    for (std::size_t kb : kCacheSweepKb) {
        const std::size_t bytes = kb * 1024;
        std::uint64_t accesses = 0, periods = 0;
        std::vector<double> hit, miss, saved;
        for (const std::string &app : eval.appNames()) {
            accesses += eval.diskAccesses(app, bytes);
            // The global replay classifies every idle period of the
            // merged stream: its opportunities are the periods
            // longer than the breakeven time.
            const auto &outcome = eval.globalRun(app, pcap, bytes);
            periods += outcome.run.accuracy.opportunities;
            hit.push_back(outcome.run.accuracy.hitFraction());
            miss.push_back(outcome.run.accuracy.missFraction());
            saved.push_back(1.0 -
                            outcome.run.energy.normalizedTo(
                                eval.baseRun(app, bytes).energy));
        }
        table.addRow({std::to_string(kb) + " KB",
                      std::to_string(accesses),
                      std::to_string(periods),
                      percentString(averageOf(hit)),
                      percentString(averageOf(miss)),
                      percentString(averageOf(saved))});
    }
    table.print(os);
}

// -- Ablation: unlearning --------------------------------------

std::vector<sim::PolicyConfig>
unlearnPolicies()
{
    std::vector<sim::PolicyConfig> policies;
    for (bool unlearn : {false, true}) {
        sim::PolicyConfig pcap = sim::policyByName("PCAP");
        pcap.pcap.unlearnOnMisprediction = unlearn;
        pcap.label = unlearn ? "PCAP-unlearn" : "PCAP";
        policies.push_back(pcap);
    }
    return policies;
}

void
reportAblationUnlearn(ReportContext &ctx, std::ostream &os)
{
    header(os,
           "Ablation (extension): drop table entries on "
           "misprediction",
           "Not in the paper; quantifies the design choice of "
           "keeping aliased entries and filtering contextually "
           "instead.");

    TextTable table;
    table.setHeader({"app", "policy", "hit", "miss",
                     "not-predicted", "entries"});

    for (const sim::PolicyConfig &pcap : unlearnPolicies()) {
        std::vector<double> hit, miss;
        for (const std::string &app : ctx.eval.appNames()) {
            const auto outcome = ctx.eval.globalRun(app, pcap);
            table.addRow(
                {app, pcap.label,
                 percentString(outcome.run.accuracy.hitFraction()),
                 percentString(
                     outcome.run.accuracy.missFraction()),
                 percentString(
                     outcome.run.accuracy.notPredictedFraction()),
                 std::to_string(outcome.tableEntries)});
            hit.push_back(outcome.run.accuracy.hitFraction());
            miss.push_back(outcome.run.accuracy.missFraction());
        }
        table.addRow({"AVERAGE", pcap.label,
                      percentString(averageOf(hit)),
                      percentString(averageOf(miss)), "", ""});
    }
    table.print(os);
}

std::vector<sim::Cell>
cellsAblationUnlearn()
{
    return globalCells(unlearnPolicies());
}

// -- Extension: related predictors -----------------------------

std::vector<sim::PolicyConfig>
relatedPolicies()
{
    return policiesByName({"TP", "ATP", "EA", "SB", "LT", "PCAP"});
}

void
reportRelated(ReportContext &ctx, std::ostream &os)
{
    header(os,
           "Extension: prior dynamic predictors of Section 2 "
           "(global)",
           "EA = Hwang & Wu exponential average; SB = Srivastava "
           "short-busy heuristic; ATP = adaptive timeout. The "
           "paper's survey [13] found such predictors far less "
           "accurate than TP; PCAP should dominate all of them.");

    const std::vector<sim::PolicyConfig> policies =
        relatedPolicies();

    TextTable table;
    table.setHeader({"app", "policy", "hit", "miss",
                     "not-predicted", "saved"});

    std::vector<std::vector<double>> hit(policies.size());
    std::vector<std::vector<double>> miss(policies.size());
    std::vector<std::vector<double>> saved(policies.size());

    for (const std::string &app : ctx.eval.appNames()) {
        const double base = ctx.eval.baseRun(app).energy.total();
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const auto outcome =
                ctx.eval.globalRun(app, policies[p]);
            const auto &accuracy = outcome.run.accuracy;
            const double savings =
                1.0 - outcome.run.energy.total() / base;
            table.addRow({app, policies[p].label,
                          percentString(accuracy.hitFraction()),
                          percentString(accuracy.missFraction()),
                          percentString(
                              accuracy.notPredictedFraction()),
                          percentString(savings)});
            hit[p].push_back(accuracy.hitFraction());
            miss[p].push_back(accuracy.missFraction());
            saved[p].push_back(savings);
        }
    }
    for (std::size_t p = 0; p < policies.size(); ++p) {
        table.addRow({"AVERAGE", policies[p].label,
                      percentString(averageOf(hit[p])),
                      percentString(averageOf(miss[p])), "",
                      percentString(averageOf(saved[p]))});
    }
    table.print(os);
}

std::vector<sim::Cell>
cellsRelated()
{
    return globalCells(relatedPolicies(), /*withBase=*/true);
}

// -- Extension: multi-state ------------------------------------

void
reportMultiState(ReportContext &ctx, std::ostream &os)
{
    header(os,
           "Extension: multi-state PCAP (Section 7 future work)",
           "PCAP-MS parks the disk in a 0.55 W low-power idle mode "
           "on every primary prediction, then spins down after the "
           "wait-window.");

    TextTable table;
    table.setHeader({"app", "policy", "hit", "miss", "saved",
                     "low-power entries"});

    const sim::PolicyConfig pcap = sim::policyByName("PCAP");

    std::vector<double> saved_plain, saved_ms;
    for (const std::string &app : ctx.eval.appNames()) {
        const double base = ctx.eval.baseRun(app).energy.total();

        const sim::RunResult plain_run =
            ctx.eval.globalRun(app, pcap).run;
        const double plain_saved =
            1.0 - plain_run.energy.total() / base;
        table.addRow({app, "PCAP",
                      percentString(
                          plain_run.accuracy.hitFraction()),
                      percentString(
                          plain_run.accuracy.missFraction()),
                      percentString(plain_saved), "-"});
        saved_plain.push_back(plain_saved);

        const sim::RunResult ms_run =
            ctx.eval.multiStateRun(app, pcap).run;
        const double ms_saved =
            1.0 - ms_run.energy.total() / base;
        table.addRow(
            {app, "PCAP-MS",
             percentString(ms_run.accuracy.hitFraction()),
             percentString(ms_run.accuracy.missFraction()),
             percentString(ms_saved), ""});
        saved_ms.push_back(ms_saved);
    }
    table.addRow({"AVERAGE", "PCAP", "", "",
                  percentString(averageOf(saved_plain)), ""});
    table.addRow({"AVERAGE", "PCAP-MS", "", "",
                  percentString(averageOf(saved_ms)), ""});
    table.print(os);

    os << "\nThe accuracy columns are identical by construction — "
          "the extension changes only where the wait-window is "
          "spent.\n";
}

std::vector<sim::Cell>
cellsMultiState()
{
    std::vector<sim::Cell> cells;
    const sim::PolicyConfig pcap = sim::policyByName("PCAP");
    for (const std::string &app : workload::standardAppNames()) {
        cells.push_back({sim::CellMode::Global, app, pcap});
        cells.push_back({sim::CellMode::MultiState, app, pcap});
        cells.push_back({sim::CellMode::Base, app, {}});
    }
    return cells;
}

// -- Extension: idle-period length histogram -------------------

/** Bucket label "<= Xs" / "> Xs" with a compact seconds rendering. */
std::string
bucketLabel(TimeUs upper, TimeUs previous)
{
    auto seconds = [](TimeUs t) {
        const double s = usToSeconds(t);
        const bool whole = s >= 1.0 && t % 1000000 == 0;
        return fixedString(s, whole ? 0 : 2) + " s";
    };
    if (upper == kTimeNever)
        return "> " + seconds(previous);
    return "<= " + seconds(upper);
}

void
reportIdleHistogram(ReportContext &ctx, std::ostream &os)
{
    header(os,
           "Extension: idle-period length histogram (global PCAP)",
           "Every merged-stream idle period the replay kernel "
           "classified, bucketed by length; the breakeven boundary "
           "(5.43 s) separates short periods from shutdown "
           "opportunities. Opt-in report: run via --only "
           "idle_histogram.");

    const sim::SimParams &sim_params = ctx.eval.config().sim;
    sim::IdleHistogramObserver observer(
        sim::IdleHistogramObserver::defaultBoundaries(
            sim_params.breakeven()));
    sim::SimulationKernel kernel(sim_params, observer);
    const sim::PolicyConfig pcap = sim::policyByName("PCAP");
    for (const std::string &app : ctx.eval.appNames()) {
        sim::PolicySession session(pcap);
        sim::GlobalDriver driver(session);
        ctx.eval.forEachExecution(
            app, 0, [&](const sim::ExecutionInput &input) {
                kernel.runExecution(input, driver);
            });
    }

    TextTable table;
    table.setHeader({"length", "short", "not-pred", "hit(P)",
                     "hit(B)", "miss(P)", "miss(B)", "total"});

    auto outcomeCount = [](const sim::IdleHistogramObserver::Bucket
                               &bucket,
                           sim::IdleOutcome outcome) {
        return std::to_string(
            bucket.byOutcome[static_cast<std::size_t>(outcome)]);
    };

    TimeUs previous = 0;
    for (const auto &bucket : observer.buckets()) {
        table.addRow(
            {bucketLabel(bucket.upper, previous),
             outcomeCount(bucket, sim::IdleOutcome::Short),
             outcomeCount(bucket, sim::IdleOutcome::NotPredicted),
             outcomeCount(bucket, sim::IdleOutcome::HitPrimary),
             outcomeCount(bucket, sim::IdleOutcome::HitBackup),
             outcomeCount(bucket, sim::IdleOutcome::MissPrimary),
             outcomeCount(bucket, sim::IdleOutcome::MissBackup),
             std::to_string(bucket.total())});
        previous = bucket.upper;
    }
    table.print(os);

    os << "\ntotal idle periods: " << observer.totalPeriods()
       << " (all applications, all executions)\n";
}

// -- Extension: signature attribution forensics ----------------

/** 0x-prefixed 8-hex-digit rendering of a 4-byte signature. */
std::string
hexSignature(std::uint32_t signature)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(8) << std::setfill('0')
       << signature;
    return os.str();
}

void
reportSignatureAttribution(ReportContext &ctx, std::ostream &os)
{
    header(os,
           "Extension: per-signature accuracy and energy "
           "attribution (global PCAP)",
           "Prediction provenance joins every classified "
           "idle period with the PCAP decision behind it. Below: "
           "the top mispredicting signatures per application and "
           "every signature collision (distinct PC paths summing to "
           "the same 4-byte signature). Opt-in report: run via "
           "--only signature_attribution.");

    constexpr std::size_t kTop = 5;
    const sim::SimParams &sim_params = ctx.eval.config().sim;
    const sim::PolicyConfig pcap = sim::policyByName("PCAP");

    TextTable table;
    table.setHeader({"app", "signature", "periods", "hits", "misses",
                     "paths", "net J"});

    std::uint64_t total_records = 0;
    std::uint64_t total_collisions = 0;
    std::string collision_notes;
    for (const std::string &app : ctx.eval.appNames()) {
        obs::ForensicsSink sink;
        sim::ProvenanceObserver observer(sink, sim_params.disk);
        sim::SimulationKernel kernel(sim_params, observer);
        sim::PolicySession session(pcap);
        session.setProvenanceTap(&observer);
        sim::GlobalDriver driver(session);
        observer.bindDecisionPid(
            [&driver] { return driver.decisionPid(); });
        ctx.eval.forEachExecution(
            app, 0, [&](const sim::ExecutionInput &input) {
                kernel.runExecution(input, driver);
            });

        const obs::ProvenanceForensics &forensics = sink.forensics();
        total_records += forensics.records();
        for (const obs::SignatureSummary *summary :
             forensics.topMispredictors(kTop)) {
            table.addRow({app, hexSignature(summary->signature),
                          std::to_string(summary->periods),
                          std::to_string(summary->hits()),
                          std::to_string(summary->misses()),
                          std::to_string(summary->pathCounts.size()),
                          fixedString(summary->energyDeltaJ, 1)});
        }
        for (const obs::SignatureSummary *summary :
             forensics.collisions()) {
            ++total_collisions;
            collision_notes += "  " + app + ": " +
                               hexSignature(summary->signature) +
                               " formed by " +
                               std::to_string(
                                   summary->pathCounts.size()) +
                               " distinct PC paths over " +
                               std::to_string(summary->periods) +
                               " periods\n";
        }
    }
    table.print(os);

    os << "\nsignature collisions: " << total_collisions << "\n";
    if (!collision_notes.empty())
        os << collision_notes;
    os << "provenance records: " << total_records
       << " (all applications, all executions)\n";
}

// -- Fleet: streaming host cells (opt-in) ----------------------

/**
 * The machine-readable drill-down block (schema pcap-drilldown-v1):
 * per flagged host its pass-1 reasons and per-policy re-run summary,
 * with artifact *stems* only — paths stay relative to wherever the
 * caller put the directory, so the block is location-independent.
 */
Json
drilldownJson(const sim::FleetReport &report, std::uint64_t seed)
{
    Json root = Json::object();
    root["schema"] = "pcap-drilldown-v1";
    root["fleet_seed"] = seed;
    Json &hostsJson = root["hosts"];
    hostsJson = Json::array();
    for (const auto &drill : report.drilldowns) {
        const sim::HostCellResult &cell = drill.cell;
        Json entry = Json::object();
        entry["host"] = cell.host;
        entry["seed"] = drill.seed;
        entry["think_time_scale"] = cell.thinkTimeScale;
        entry["executions"] = cell.executions;
        entry["accesses"] = cell.accesses;
        entry["sim_span_us"] = cell.simSpanUs;
        entry["base_energy_j"] = cell.base.energy.total();
        Json &reasonsJson = entry["reasons"];
        reasonsJson = Json::array();
        for (const auto &reason : drill.reasons) {
            Json item = Json::object();
            item["policy"] = reason.policy;
            item["metric"] = reason.metric;
            item["value"] = reason.value;
            item["median"] = reason.median;
            item["score"] = reason.score;
            reasonsJson.push(std::move(item));
        }
        Json &policiesJson = entry["policies"];
        policiesJson = Json::array();
        for (std::size_t p = 0; p < drill.policies.size(); ++p) {
            const sim::DrilldownPolicy &policy = drill.policies[p];
            const sim::RunResult &run = cell.policyRuns[p];
            const sim::HostPolicyFractions figures =
                sim::hostPolicyFractions(cell, p);
            Json item = Json::object();
            item["policy"] = policy.policy;
            item["stem"] = policy.stem;
            item["energy_j"] = figures.energyJ;
            item["saved_fraction"] = figures.saved;
            item["hit_fraction"] = figures.hit;
            item["miss_fraction"] = figures.miss;
            item["shutdowns"] = run.shutdowns;
            item["spin_ups"] = run.spinUps;
            item["table_entries"] = cell.tableEntries[p];
            // Counter deltas ride along only under --perf: without
            // it the bundle stays byte-identical across runs and
            // thread counts (the CI `diff -r` gate).
            if (policy.hasPerf)
                item["perf"] = obs::perfCountsJson(policy.perf);
            Json &artifacts = item["artifacts"];
            artifacts = Json::object();
            artifacts["provenance_binary"] =
                policy.stem + ".prov.bin";
            artifacts["timeline_json"] =
                policy.stem + ".timeline.json";
            policiesJson.push(std::move(item));
        }
        hostsJson.push(std::move(entry));
    }
    return root;
}

/** drilldown.json — the bundle index pcap_fleet_report.py reads. */
void
writeDrilldownIndex(const sim::FleetReport &report,
                    std::uint64_t seed, const std::string &dir)
{
    const std::string path = dir + "/drilldown.json";
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        panic("cannot write " + path);
    drilldownJson(report, seed).dump(os);
    os << "\n";
}

void
reportFleet(ReportContext &ctx, std::ostream &os)
{
    header(os, "Fleet: streaming host cells",
           "N independent power-managed hosts, each a seeded "
           "variation of the paper's workloads, replayed "
           "generate-replay-discard: peak memory is bounded no "
           "matter the fleet size. Percentiles are across hosts.");

    workload::FleetConfig fleet;
    fleet.fleetSeed = ctx.fleet.seed;
    fleet.hosts = ctx.fleet.hosts;
    fleet.maxAppsPerHost = 3;
    fleet.executionsMin = 4;
    fleet.executionsMax = 12;
    fleet.minThinkScale = 0.5;
    fleet.maxThinkScale = 2.0;

    const std::vector<sim::PolicyConfig> policies =
        policiesByName({"TP", "PCAP"});

    const sim::ExperimentConfig config = standardConfig();
    sim::FleetOptions options;
    options.jobs = ctx.fleet.jobs;
    options.metrics = ctx.fleet.metrics;
    options.alerts = ctx.fleet.alerts;
    options.drilldownDir = ctx.fleet.drilldownDir;
    sim::FleetDriver driver(fleet, config.sim, config.cache,
                            options);
    const sim::FleetReport report = [&] {
        obs::PerfRegion perf("fleet:simulate");
        return driver.run(policies);
    }();

    os << "hosts:              " << report.hosts << "\n"
       << "executions:         " << report.executions << "\n"
       << "disk accesses:      " << report.accesses << "\n"
       << "idle opportunities: " << report.opportunities << "\n"
       << "base energy (J):    p50 "
       << fixedString(report.baseEnergyJ.p50, 1) << "  p90 "
       << fixedString(report.baseEnergyJ.p90, 1) << "  p99 "
       << fixedString(report.baseEnergyJ.p99, 1) << "  mean "
       << fixedString(report.meanBaseEnergyJ, 1) << "\n\n";

    TextTable table;
    table.setHeader({"policy", "saved p50", "saved p90",
                     "saved p99", "energy p50 (J)", "hit p50",
                     "miss p50", "shutdowns", "spin-ups"});
    for (const auto &policy : report.policies) {
        table.addRow({policy.policy,
                      percentString(policy.savedFraction.p50),
                      percentString(policy.savedFraction.p90),
                      percentString(policy.savedFraction.p99),
                      fixedString(policy.energyJ.p50, 1),
                      percentString(policy.hitFraction.p50),
                      percentString(policy.missFraction.p50),
                      std::to_string(policy.shutdowns),
                      std::to_string(policy.spinUps)});
    }
    table.print(os);

    std::size_t flagged = 0;
    for (const auto &policy : report.policies)
        flagged += policy.outliers.size();
    os << "\noutlier hosts (|value - median| > "
       << fixedString(sim::FleetOptions{}.outlierMadThreshold, 1)
       << " MAD): " << flagged << "\n";
    if (flagged) {
        TextTable outlierTable;
        outlierTable.setHeader({"policy", "host", "metric", "value",
                                "median", "score"});
        for (const auto &policy : report.policies)
            for (const auto &outlier : policy.outliers)
                outlierTable.addRow(
                    {policy.policy, std::to_string(outlier.host),
                     outlier.metric, percentString(outlier.value),
                     percentString(outlier.median),
                     fixedString(outlier.score, 1)});
        outlierTable.print(os);
    }

    // Drill-down summary keeps to artifact stems — never the output
    // directory — so two smoke runs into different directories stay
    // byte-identical.
    if (!ctx.fleet.drilldownDir.empty()) {
        os << "\ndrilled hosts (instrumented re-simulation): "
           << report.drilldowns.size() << "\n";
        if (!report.drilldowns.empty()) {
            TextTable drillTable;
            drillTable.setHeader({"host", "policy", "saved", "miss",
                                  "spin-ups", "table", "stem"});
            for (const auto &drill : report.drilldowns) {
                const sim::HostCellResult &cell = drill.cell;
                for (std::size_t p = 0; p < drill.policies.size();
                     ++p) {
                    const sim::HostPolicyFractions figures =
                        sim::hostPolicyFractions(cell, p);
                    drillTable.addRow(
                        {std::to_string(cell.host),
                         drill.policies[p].policy,
                         percentString(figures.saved),
                         percentString(figures.miss),
                         std::to_string(cell.policyRuns[p].spinUps),
                         std::to_string(cell.tableEntries[p]),
                         drill.policies[p].stem});
                }
            }
            drillTable.print(os);
        }
        writeDrilldownIndex(report, ctx.fleet.seed,
                            ctx.fleet.drilldownDir);
    }

    if (!ctx.fleetJson)
        return;
    auto percentilesJson = [](const sim::FleetPercentiles &p) {
        Json json = Json::object();
        json["p50"] = p.p50;
        json["p90"] = p.p90;
        json["p99"] = p.p99;
        return json;
    };
    Json &root = *ctx.fleetJson;
    root = Json::object();
    root["schema"] = "pcap-fleet-v1";
    root["hosts"] = report.hosts;
    root["fleet_seed"] = ctx.fleet.seed;
    root["executions"] = report.executions;
    root["accesses"] = report.accesses;
    root["opportunities"] = report.opportunities;
    root["base_energy_j"] = percentilesJson(report.baseEnergyJ);
    root["mean_base_energy_j"] = report.meanBaseEnergyJ;
    Json &policiesJson = root["policies"];
    policiesJson = Json::array();
    for (const auto &policy : report.policies) {
        Json entry = Json::object();
        entry["policy"] = policy.policy;
        entry["energy_j"] = percentilesJson(policy.energyJ);
        entry["saved_fraction"] =
            percentilesJson(policy.savedFraction);
        entry["hit_fraction"] =
            percentilesJson(policy.hitFraction);
        entry["miss_fraction"] =
            percentilesJson(policy.missFraction);
        entry["mean_energy_j"] = policy.meanEnergyJ;
        entry["mean_saved_fraction"] = policy.meanSavedFraction;
        entry["saved_fraction_median"] = policy.medianSavedFraction;
        entry["saved_fraction_mad"] = policy.madSavedFraction;
        entry["miss_fraction_median"] = policy.medianMissFraction;
        entry["miss_fraction_mad"] = policy.madMissFraction;
        entry["shutdowns"] = policy.shutdowns;
        entry["spin_ups"] = policy.spinUps;
        Json &outliersJson = entry["outliers"];
        outliersJson = Json::array();
        for (const auto &outlier : policy.outliers) {
            Json item = Json::object();
            item["host"] = outlier.host;
            item["metric"] = outlier.metric;
            item["value"] = outlier.value;
            item["median"] = outlier.median;
            item["score"] = outlier.score;
            outliersJson.push(std::move(item));
        }
        policiesJson.push(std::move(entry));
    }
    // Only with an active drill-down pass, so the default fleet
    // block stays byte-identical when the flag is absent.
    if (!ctx.fleet.drilldownDir.empty())
        root["drilldown"] = drilldownJson(report, ctx.fleet.seed);
}

} // namespace

double
averageOf(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double total = 0.0;
    for (double v : values)
        total += v;
    return total / static_cast<double>(values.size());
}

const std::vector<Report> &
allReports()
{
    static const std::vector<Report> kReports = {
        {"table1", "bench_table1", reportTable1, cellsNone},
        {"table2", "bench_table2", reportTable2, cellsNone},
        {"table3", "bench_table3", reportTable3, cellsTable3},
        {"fig6", "bench_fig6", reportFig6, cellsFig6},
        {"fig7", "bench_fig7", reportFig7, cellsFig7},
        {"fig8", "bench_fig8", reportFig8, cellsFig8},
        {"fig9", "bench_fig9", reportFig9, cellsTable3},
        {"fig10", "bench_fig10", reportFig10, cellsFig10},
        {"ablation_timeout", "bench_ablation_timeout",
         reportAblationTimeout, cellsAblationTimeout},
        {"ablation_history", "bench_ablation_history",
         reportAblationHistory, cellsAblationHistory},
        {"ablation_waitwindow", "bench_ablation_waitwindow",
         reportAblationWaitWindow, cellsAblationWaitWindow},
        {"ablation_cache", "bench_ablation_cache",
         reportAblationCache, cellsAblationCache},
        {"ablation_unlearn", "bench_ablation_unlearn",
         reportAblationUnlearn, cellsAblationUnlearn},
        {"related", "bench_related", reportRelated, cellsRelated},
        {"extension_multistate", "bench_extension_multistate",
         reportMultiState, cellsMultiState},
        // Opt-in: new instrumentation report, outside the
        // byte-compared reference suite.
        {"idle_histogram", "", reportIdleHistogram, cellsNone,
         /*optIn=*/true},
        {"signature_attribution", "", reportSignatureAttribution,
         cellsNone, /*optIn=*/true},
        // Opt-in: streaming fleet simulation — does not query the
        // shared engine at all, so `--only fleet` never
        // materializes the six-app workload.
        {"fleet", "", reportFleet, cellsNone, /*optIn=*/true},
    };
    return kReports;
}

} // namespace pcap::bench
