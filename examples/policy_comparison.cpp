/**
 * @file
 * Policy comparison on one application.
 *
 * Runs the whole policy zoo — TP, LT, every PCAP variant and the
 * no-reuse ablations — over the chosen application's workload and
 * prints accuracy, energy and table-size columns side by side.
 *
 *   ./policy_comparison [app] [executions]
 *
 * app defaults to mozilla (the paper's hardest case); executions
 * caps the run for quick experiments (0 = the paper's full count).
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "sim/experiment.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

using namespace pcap;

int
main(int argc, char **argv)
{
    const std::string app = argc > 1 ? argv[1] : "mozilla";
    const int executions = argc > 2 ? std::atoi(argv[2]) : 0;

    sim::ExperimentConfig config;
    config.maxExecutions = executions;
    sim::ParallelEvaluation eval(config);

    bool known = false;
    for (const std::string &name : eval.appNames())
        known = known || name == app;
    if (!known) {
        std::string names;
        for (const std::string &name : eval.appNames())
            names += ' ' + name;
        error("unknown application '" + app + "'; pick one of:" +
              names);
        return 1;
    }

    const auto row = eval.table1(app);
    std::cout << "application: " << app << "\n"
              << "executions:  " << row.executions << "\n"
              << "global idle periods: " << row.globalIdlePeriods
              << "\n"
              << "local idle periods:  " << row.localIdlePeriods
              << "\n"
              << "traced I/Os:         " << row.totalIos << "\n\n";

    const double base_energy = eval.baseRun(app).energy.total();
    const double ideal_energy = eval.idealRun(app).energy.total();
    std::cout << "base energy (no power management): "
              << fixedString(base_energy, 1) << " J\n"
              << "ideal (oracle) savings:            "
              << percentString(1.0 - ideal_energy / base_energy)
              << "\n\n";

    const std::vector<sim::PolicyConfig> policies = {
        sim::PolicyConfig::timeoutPolicy(),
        sim::PolicyConfig::learningTree(),
        sim::PolicyConfig::learningTreeNoReuse(),
        sim::PolicyConfig::pcapBase(),
        sim::PolicyConfig::pcapHistory(),
        sim::PolicyConfig::pcapFd(),
        sim::PolicyConfig::pcapFdHistory(),
        sim::PolicyConfig::pcapNoReuse(),
    };

    TextTable table;
    table.setHeader({"policy", "hit", "miss", "not-predicted",
                     "saved", "shutdowns", "spin-ups", "entries"});
    for (const auto &policy : policies) {
        const auto outcome = eval.globalRun(app, policy);
        const auto &accuracy = outcome.run.accuracy;
        table.addRow(
            {policy.label, percentString(accuracy.hitFraction()),
             percentString(accuracy.missFraction()),
             percentString(accuracy.notPredictedFraction()),
             percentString(1.0 - outcome.run.energy.total() /
                                     base_energy),
             std::to_string(outcome.run.shutdowns),
             std::to_string(outcome.run.spinUps),
             std::to_string(outcome.tableEntries)});
    }
    table.print(std::cout);

    std::cout << "\nlocal (per-process) accuracy, Figure 6 style:\n";
    TextTable local;
    local.setHeader({"policy", "hit", "miss", "not-predicted"});
    for (const auto &policy : policies) {
        const sim::AccuracyStats stats =
            eval.localAccuracy(app, policy);
        local.addRow({policy.label,
                      percentString(stats.hitFraction()),
                      percentString(stats.missFraction()),
                      percentString(stats.notPredictedFraction())});
    }
    local.print(std::cout);
    return 0;
}
