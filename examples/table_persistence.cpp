/**
 * @file
 * Table persistence walk-through (Section 4.2 and Figure 10).
 *
 * Runs the nedit workload — the application with *no* repetitive
 * behaviour inside a single execution — twice: once with the
 * prediction table carried across executions, once discarding it.
 * Prints per-execution behaviour so the effect is visible execution
 * by execution: with reuse, every run after the first is predicted
 * by the primary predictor; without it, the backup timeout does all
 * the work forever.
 *
 *   ./table_persistence [app] [executions]
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "sim/drivers.hpp"
#include "sim/experiment.hpp"
#include "util/table.hpp"

using namespace pcap;

namespace {

void
runVariant(sim::ParallelEvaluation &eval, const std::string &app,
           const sim::PolicyConfig &policy)
{
    std::cout << "policy " << policy.label << " ("
              << (policy.reuseTables
                      ? "table kept across executions"
                      : "table discarded at every exit")
              << "):\n";

    // Replay execution by execution with one session so the table
    // state is visible between runs.
    sim::PolicySession session(policy);
    sim::GlobalDriver driver(session);
    sim::SimulationKernel kernel{sim::SimParams{}};

    TextTable table;
    table.setHeader({"execution", "entries before", "hit-primary",
                     "hit-backup", "not-predicted",
                     "entries after"});

    eval.forEachExecution(app, 0, [&](const sim::ExecutionInput &input) {
        const std::size_t before = session.tableEntries();
        const sim::RunResult result =
            kernel.runExecution(input, driver);
        table.addRow({std::to_string(input.execution),
                      std::to_string(before),
                      std::to_string(result.accuracy.hitPrimary),
                      std::to_string(result.accuracy.hitBackup),
                      std::to_string(result.accuracy.notPredicted),
                      std::to_string(session.tableEntries())});
    });
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string app = argc > 1 ? argv[1] : "nedit";
    const int executions = argc > 2 ? std::atoi(argv[2]) : 8;

    sim::ExperimentConfig config;
    config.maxExecutions = executions;
    sim::ParallelEvaluation eval(config);

    std::cout << "Prediction-table reuse on '" << app << "' ("
              << executions << " executions)\n\n"
              << "The paper's point (Section 4.2): applications "
                 "rarely repeat enough within one execution\n"
              << "to train a sophisticated predictor, but their "
                 "paths are identical across executions.\n\n";

    runVariant(eval, app, sim::PolicyConfig::pcapBase());
    runVariant(eval, app, sim::PolicyConfig::pcapNoReuse());

    std::cout << "With reuse the first execution trains the table "
                 "and every later one is predicted\n"
              << "by the primary predictor; without reuse each "
                 "execution relearns from scratch and\n"
              << "the backup timeout makes every prediction "
                 "(Figure 10's PCAP vs PCAPa).\n";
    return 0;
}
