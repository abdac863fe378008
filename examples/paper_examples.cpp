// Reproduces every worked example of the paper (Examples 3-9, Figures 1-6)
// with printed traces, so the paper can be followed along interactively.
//
//   $ ./paper_examples

#include <iostream>

#include "mine/cyclic_miner.h"
#include "mine/miner.h"
#include "mine/relations.h"

using namespace procmine;

namespace {

void PrintGraph(const ProcessGraph& g, const std::string& title) {
  std::cout << "  " << title << ":";
  for (const Edge& e : g.graph().Edges()) {
    std::cout << " " << g.name(e.from) << "->" << g.name(e.to);
  }
  std::cout << "\n";
}

void Example3() {
  std::cout << "\nExample 3 (Definitions 3-4: following and dependence)\n";
  EventLog log = EventLog::FromCompactStrings({"ABCE", "ACDE", "ADBE"});
  Relations rel = Relations::Compute(log);
  ActivityId a = *log.dictionary().Find("A");
  ActivityId b = *log.dictionary().Find("B");
  ActivityId d = *log.dictionary().Find("D");
  std::cout << "  log {ABCE, ACDE, ADBE}\n";
  std::cout << "  B depends on A: " << (rel.DependsOn(b, a) ? "yes" : "no")
            << "   B,D independent: "
            << (rel.Independent(b, d) ? "yes" : "no") << "\n";
  EventLog ext = EventLog::FromCompactStrings({"ABCE", "ACDE", "ADBE",
                                               "ADCE"});
  Relations rel2 = Relations::Compute(ext);
  std::cout << "  after adding ADCE -> B depends on D: "
            << (rel2.DependsOn(*ext.dictionary().Find("B"),
                               *ext.dictionary().Find("D"))
                    ? "yes"
                    : "no")
            << "\n";
}

void Example6() {
  std::cout << "\nExample 6 (Algorithm 1 / Figure 3)\n";
  EventLog log = EventLog::FromCompactStrings({"ABCDE", "ACDBE", "ACBDE"});
  auto mined =
      ProcessMiner({.algorithm = MinerAlgorithm::kSpecialDag}).Mine(log);
  std::cout << "  log {ABCDE, ACDBE, ACBDE}\n";
  PrintGraph(*mined, "minimal conformal graph (= Figure 1)");
}

void Example7() {
  std::cout << "\nExample 7 (Algorithm 2 / Figure 4)\n";
  EventLog log =
      EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF", "AECF"});
  auto mined =
      ProcessMiner({.algorithm = MinerAlgorithm::kGeneralDag}).Mine(log);
  std::cout << "  log {ABCF, ACDF, ADEF, AECF}; SCC {C,D,E} dissolved\n";
  PrintGraph(*mined, "conformal graph");
}

void Example8() {
  std::cout << "\nExample 8 (Algorithm 3 / Figure 6)\n";
  EventLog log = EventLog::FromCompactStrings(
      {"ABDCE", "ABDCBCE", "ABCBDCE", "ADE"});
  std::vector<ActivityId> to_base;
  EventLog labeled = LabelOccurrences(log, &to_base);
  std::cout << "  log {ABDCE, ABDCBCE, ABCBDCE, ADE}; labeled alphabet:";
  for (const std::string& name : labeled.dictionary().names()) {
    std::cout << " " << name;
  }
  std::cout << "\n";
  auto mined = ProcessMiner({.algorithm = MinerAlgorithm::kCyclic}).Mine(log);
  PrintGraph(*mined, "merged cyclic graph (B<->C cycle)");
}

void Example9() {
  std::cout << "\nExample 9 (Section 6: noise threshold)\n";
  const int m = 50, k = 3;
  std::vector<std::string> execs(m - k, "ABCDE");
  execs.insert(execs.end(), k, "ADCBE");
  EventLog log = EventLog::FromCompactStrings(execs);
  for (int64_t threshold : {1, k + 1}) {
    MinerOptions options;
    options.algorithm = MinerAlgorithm::kSpecialDag;
    options.noise_threshold = threshold;
    auto mined = ProcessMiner(options).Mine(log);
    PrintGraph(*mined, "T=" + std::to_string(threshold));
  }
}

}  // namespace

int main() {
  std::cout << "procmine: the paper's worked examples\n";
  Example3();
  Example6();
  Example7();
  Example8();
  Example9();
  return 0;
}
