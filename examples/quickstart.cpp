// Quickstart: mine a process model from a workflow log in ~20 lines.
//
// Reads a log (from a file given as argv[1], or a built-in sample), mines
// the process model graph with the automatic algorithm selection, checks
// conformance, and prints the model as DOT.
//
//   $ ./quickstart [log_file]

#include <cstdio>
#include <iostream>

#include "log/reader.h"
#include "mine/conformance.h"
#include "mine/miner.h"

using namespace procmine;

namespace {

constexpr char kSampleLog[] = R"(
# Three executions of a five-activity process (the paper's Example 6).
case1 A START 0
case1 A END 0
case1 B START 1
case1 B END 1
case1 C START 2
case1 C END 2
case1 D START 3
case1 D END 3
case1 E START 4
case1 E END 4
case2 A START 0
case2 A END 0
case2 C START 1
case2 C END 1
case2 D START 2
case2 D END 2
case2 B START 3
case2 B END 3
case2 E START 4
case2 E END 4
case3 A START 0
case3 A END 0
case3 C START 1
case3 C END 1
case3 B START 2
case3 B END 2
case3 D START 3
case3 D END 3
case3 E START 4
case3 E END 4
)";

}  // namespace

int main(int argc, char** argv) {
  // 1. Load the log.
  Result<EventLog> log = argc > 1 ? LogReader::ReadFile(argv[1])
                                  : LogReader::ParseText(kSampleLog);
  if (!log.ok()) {
    std::cerr << "failed to read log: " << log.status().ToString() << "\n";
    return 1;
  }
  std::cout << "log: " << log->num_executions() << " executions, "
            << log->num_activities() << " activities\n";

  // 2. Mine the process model (algorithm picked from the log's shape).
  ProcessMiner miner;
  Result<ProcessGraph> model = miner.Mine(*log);
  if (!model.ok()) {
    std::cerr << "mining failed: " << model.status().ToString() << "\n";
    return 1;
  }
  std::cout << "mined " << model->graph().num_edges() << " edges over "
            << model->num_activities() << " activities\n";

  // 3. Verify the model is conformal with the log (Definition 7).
  ConformanceChecker checker(&*model);
  ConformanceReport report = checker.CheckLog(*log);
  std::cout << report.Summary(log->dictionary());

  // 4. Emit the model as Graphviz DOT.
  std::cout << "\n" << model->ToDot("mined_process");
  return report.conformal() ? 0 : 2;
}
