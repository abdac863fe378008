// Integration tests for the procmine CLI binary: each subcommand is driven
// through a real process invocation (popen), validating exit codes and
// output. The binary path is injected by CMake as PROCMINE_CLI_PATH.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

namespace procmine {
namespace {

struct CommandResult {
  int exit_code;
  std::string output;  // stdout + stderr
};

/// Runs a shell command line, capturing stdout + stderr.
CommandResult RunShell(const std::string& command) {
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 4096> buffer;
  size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    output.append(buffer.data(), n);
  }
  int status = pclose(pipe);
  return {WEXITSTATUS(status), output};
}

CommandResult RunCli(const std::string& args) {
  return RunShell(std::string(PROCMINE_CLI_PATH) + " " + args);
}

/// Like RunCli but with environment assignments (e.g. failpoint injections)
/// prefixed onto the command.
CommandResult RunCliEnv(const std::string& env, const std::string& args) {
  return RunShell("env " + env + " " + std::string(PROCMINE_CLI_PATH) + " " +
                  args);
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Keyed by pid: ctest -j runs each test in its own process, and a shared
    // directory would let one test rewrite demo.log while another reads it.
    dir_ = ::testing::TempDir() + "/cli_test_" + std::to_string(getpid());
    std::string mkdir = "mkdir -p " + dir_;
    ASSERT_EQ(std::system(mkdir.c_str()), 0);
    log_path_ = dir_ + "/demo.log";
    CommandResult synth = RunCli(
        "synth --activities=8 --executions=120 --seed=5 --out=" + log_path_);
    ASSERT_EQ(synth.exit_code, 0) << synth.output;
  }

  std::string dir_;
  std::string log_path_;
};

TEST_F(CliTest, NoArgsPrintsUsage) {
  CommandResult result = RunCli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("commands:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandPrintsUsage) {
  EXPECT_EQ(RunCli("frobnicate").exit_code, 2);
}

TEST_F(CliTest, StatsReportsCounts) {
  CommandResult result = RunCli("stats " + log_path_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("executions=120"), std::string::npos);
  EXPECT_NE(result.output.find("validation: clean"), std::string::npos);
}

TEST_F(CliTest, MineEmitsDot) {
  CommandResult result = RunCli("mine " + log_path_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("digraph"), std::string::npos);
  EXPECT_NE(result.output.find("mined"), std::string::npos);
}

TEST_F(CliTest, MineAsciiEmitsLayers) {
  CommandResult result = RunCli("mine --ascii " + log_path_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("layer 0: A"), std::string::npos);
}

TEST_F(CliTest, MineRejectsBadAlgorithm) {
  CommandResult result = RunCli("mine --algorithm=quantum " + log_path_);
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("unknown --algorithm"), std::string::npos);
}

TEST_F(CliTest, ConvertRoundTripsThroughBinaryAndXes) {
  std::string bin_path = dir_ + "/demo.bin";
  std::string xes_path = dir_ + "/demo.xes";
  EXPECT_EQ(RunCli("convert " + log_path_ + " " + bin_path).exit_code, 0);
  EXPECT_EQ(RunCli("convert " + bin_path + " " + xes_path).exit_code, 0);
  CommandResult from_text = RunCli("mine " + log_path_);
  CommandResult from_xes = RunCli("mine " + xes_path);
  EXPECT_EQ(from_text.exit_code, 0);
  // The mined model must be identical regardless of the container format.
  EXPECT_EQ(from_text.output, from_xes.output);
}

TEST_F(CliTest, NoiseOnCleanLog) {
  CommandResult result = RunCli("noise " + log_path_);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("epsilon"), std::string::npos);
}

TEST_F(CliTest, PerfReportsEdges) {
  CommandResult result = RunCli("perf " + log_path_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("activities:"), std::string::npos);
  EXPECT_NE(result.output.find("p="), std::string::npos);
}

TEST_F(CliTest, PatternsEmitsFrequentSequences) {
  CommandResult result = RunCli("patterns " + log_path_ + " --support=60");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("<A"), std::string::npos);
  EXPECT_NE(result.output.find("patterns"), std::string::npos);
}

TEST_F(CliTest, CheckAgainstWrongModelFails) {
  std::string model_path = dir_ + "/model.txt";
  std::ofstream(model_path) << "A B\nB C\n";
  CommandResult result =
      RunCli("check " + log_path_ + " --model=" + model_path);
  EXPECT_EQ(result.exit_code, 1);  // not conformal
  EXPECT_NE(result.output.find("conformal: no"), std::string::npos);
}

TEST_F(CliTest, DiffAgainstWrongModelListsDiscrepancies) {
  std::string model_path = dir_ + "/model.txt";
  std::ofstream(model_path) << "A B\n";
  CommandResult result =
      RunCli("diff " + log_path_ + " --model=" + model_path);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("discrepancies"), std::string::npos);
}

TEST_F(CliTest, SimulateFromFdlAndMineBack) {
  std::string fdl_path = dir_ + "/def.fdl";
  std::ofstream(fdl_path) << R"(process P {
    activity Start outputs 1 range [0, 9];
    activity Work;
    activity End;
    edge Start -> Work;
    edge Work -> End;
  })";
  std::string out_path = dir_ + "/sim.log";
  CommandResult sim = RunCli("simulate --definition=" + fdl_path +
                             " --executions=30 --out=" + out_path);
  EXPECT_EQ(sim.exit_code, 0) << sim.output;
  CommandResult mined = RunCli("mine --ascii " + out_path);
  EXPECT_NE(mined.output.find("Start -> Work"), std::string::npos);
  EXPECT_NE(mined.output.find("Work -> End"), std::string::npos);
}

TEST_F(CliTest, MineConditionsToFdlIsRunnable) {
  std::string fdl_path = dir_ + "/mined.fdl";
  CommandResult mine = RunCli("mine " + log_path_ +
                              " --conditions --fdl=" + fdl_path);
  EXPECT_EQ(mine.exit_code, 0) << mine.output;
  std::string relog = dir_ + "/relog.log";
  CommandResult sim = RunCli("simulate --definition=" + fdl_path +
                             " --executions=20 --out=" + relog);
  EXPECT_EQ(sim.exit_code, 0) << sim.output;
}

TEST_F(CliTest, TraceOutWritesChromeTraceWithMiningPhases) {
  std::string trace_path = dir_ + "/trace.json";
  CommandResult result =
      RunCli("mine --trace-out=" + trace_path + " " + log_path_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  // The text summary goes to stderr alongside the file.
  EXPECT_NE(result.output.find("span"), std::string::npos) << result.output;
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << trace_path;
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (const char* phase :
       {"log.read_mmap", "log.parse_shard", "log.assemble", "edges.collect",
        "general_dag.mine", "general_dag.validate", "general_dag.reduce"}) {
    EXPECT_NE(json.find(phase), std::string::npos) << phase;
  }
  // Counter totals embedded as Chrome "C" events.
  EXPECT_NE(json.find("mine.edges_collected"), std::string::npos);
}

TEST_F(CliTest, MetricsOutWritesRegistrySnapshot) {
  std::string metrics_path = dir_ + "/metrics.json";
  CommandResult result =
      RunCli("mine --metrics-out=" + metrics_path + " " + log_path_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good()) << metrics_path;
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"log.executions_read\": 120"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"mine.executions_scanned\": 120"), std::string::npos)
      << json;
}

TEST_F(CliTest, LogLevelRejectsUnknownValue) {
  CommandResult result = RunCli("mine --log-level=loud " + log_path_);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("log-level"), std::string::npos);
}

TEST_F(CliTest, JsonLogLinesAreStructured) {
  CommandResult result =
      RunCli("mine --log-json --log-level=debug " + log_path_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("\"level\":\"DEBUG\""), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("\"tid\":"), std::string::npos);
  EXPECT_NE(result.output.find("\"elapsed_ms\":"), std::string::npos);
  EXPECT_NE(result.output.find("distinct precedence edges"), std::string::npos)
      << result.output;
}

TEST_F(CliTest, TextDebugLogsCarryThreadIdAndElapsed) {
  CommandResult result = RunCli("mine --log-level=debug " + log_path_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  // [DEBUG t0 +0.003s .../edge_collector.cc:NN] ...
  EXPECT_NE(result.output.find("[DEBUG t"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("edge_collector.cc:"), std::string::npos);
}

TEST_F(CliTest, MissingFileReportsIOError) {
  CommandResult result = RunCli("stats /nonexistent/file.log");
  EXPECT_EQ(result.exit_code, 3);  // data error in the exit-code taxonomy
  EXPECT_NE(result.output.find("IO error"), std::string::npos);
}

TEST_F(CliTest, MalformedThreadsIsADataError) {
  CommandResult result = RunCli("stats " + log_path_ + " --threads=abc");
  EXPECT_EQ(result.exit_code, 3) << result.output;
  EXPECT_NE(result.output.find("--threads"), std::string::npos)
      << result.output;
}

TEST_F(CliTest, ServeRejectsMalformedFlagsBeforeBinding) {
  // A server that accepted the flag would serve until the timeout kills it.
  const std::string socket = dir_ + "/serve.sock";
  for (const std::string flag : {"--threads=abc", "--queue-batches=abc"}) {
    CommandResult result =
        RunShell("timeout 10 " + std::string(PROCMINE_CLI_PATH) +
                 " serve --socket=" + socket + " " + flag);
    EXPECT_EQ(result.exit_code, 3) << flag << ": " << result.output;
    EXPECT_NE(result.output.find(flag.substr(0, flag.find('='))),
              std::string::npos)
        << result.output;
    EXPECT_NE(access(socket.c_str(), F_OK), 0) << flag << " bound " << socket;
  }
}

TEST_F(CliTest, DotToUnwritablePathIsADataError) {
  const std::string dot = " --dot=" + dir_ + "/missing/model.dot ";
  for (const std::string command : {"mine --conditions", "mine", "perf"}) {
    CommandResult result = RunCli(command + dot + log_path_);
    EXPECT_EQ(result.exit_code, 3) << command << ": " << result.output;
  }
  CommandResult synth =
      RunCli("synth --activities=5 --executions=10 --out=" + dir_ +
             "/truth.log --truth-dot=" + dir_ + "/missing/truth.dot");
  EXPECT_EQ(synth.exit_code, 3) << synth.output;
}

// ---------------------------------------------------------------------------
// Run reports (obs/report.h): --report-out / --report-dot on mine, and the
// report subcommand. Golden files live in tests/golden/ and are compared
// byte-for-byte; the examples/logs/ inputs are committed alongside them.

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return "";
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The lines of a report naming the steps 5-6 memo counters ("" when one
/// is missing).
std::string MemoCounterLines(const std::string& json) {
  std::string lines;
  for (const char* key :
       {"\"general_dag.memo_hits\"", "\"general_dag.memo_misses\""}) {
    const size_t at = json.find(key);
    if (at == std::string::npos) return "";
    lines += json.substr(at, json.find('\n', at) - at) + "\n";
  }
  return lines;
}

const char* kOrderLog = PROCMINE_EXAMPLES_DIR "/logs/order_fulfillment.log";
const char* kLoanLog = PROCMINE_EXAMPLES_DIR "/logs/loan_review.log";

// The Section 6 estimate on the 12-execution example log, pinned to the
// exact printed lines.
TEST_F(CliTest, NoisePrintsEpsilonAndThreshold) {
  CommandResult result = RunCli("noise " + std::string(kOrderLog));
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(result.output,
            "estimated out-of-order rate (epsilon): 0.0833\n"
            "suggested threshold T for m=12 executions: 3\n");
}

TEST_F(CliTest, MineAutoThresholdEstimatesEpsilonOnce) {
  // The report's sensitivity sweep reuses the estimate --threshold=auto
  // made, on `mine --report-out` and on `report` alike.
  const std::string report_path = dir_ + "/auto_report.json";
  for (const std::string& command :
       {std::string("mine --threshold=auto"),
        "mine --threshold=auto --report-out=" + report_path,
        "report --threshold=auto --out=" + report_path}) {
    std::string trace_path = dir_ + "/auto_trace.json";
    CommandResult result = RunCli(command + " --trace-out=" + trace_path +
                                  " " + std::string(kOrderLog));
    EXPECT_EQ(result.exit_code, 0) << command << "\n" << result.output;
    EXPECT_NE(
        result.output.find("estimated noise rate 0.0833 -> threshold 3\n"),
        std::string::npos)
        << command << "\n" << result.output;
    std::string trace = ReadFileOrEmpty(trace_path);
    size_t spans = 0;
    for (size_t at = trace.find("\"noise.estimate\"");
         at != std::string::npos;
         at = trace.find("\"noise.estimate\"", at + 1)) {
      ++spans;
    }
    EXPECT_EQ(spans, 1u) << command << "\n" << trace;
  }
  EXPECT_NE(ReadFileOrEmpty(report_path).find("\"epsilon\": 0.0833333"),
            std::string::npos);
}

TEST_F(CliTest, EachCommandWalksTheLogForRelationsOnce) {
  // Followings and epsilon come from one extent pass: a command that needs
  // either walks the log for them once, and a report whose audit phases
  // the budget skips walks it not at all.
  const std::string report_path = dir_ + "/walk_report.json";
  const std::string model_path = dir_ + "/walk_model.txt";
  std::ofstream(model_path) << "Receive CreditCheck\n";
  const std::string trace_path = dir_ + "/walk_trace.json";
  auto relation_spans = [&](const std::string& command, int want_exit) {
    CommandResult result = RunCli(command + " --trace-out=" + trace_path +
                                  " " + std::string(kOrderLog));
    EXPECT_EQ(result.exit_code, want_exit) << command << "\n"
                                           << result.output;
    const std::string trace = ReadFileOrEmpty(trace_path);
    size_t spans = 0;
    for (size_t at = trace.find("\"relations.compute\"");
         at != std::string::npos;
         at = trace.find("\"relations.compute\"", at + 1)) {
      ++spans;
    }
    return spans;
  };
  for (const std::string& command :
       {"report --out=" + report_path,
        "report --threshold=auto --out=" + report_path,
        std::string("mine --threshold=auto"),
        "mine --threshold=auto --report-out=" + report_path,
        std::string("noise")}) {
    EXPECT_EQ(relation_spans(command, 0), 1u) << command;
  }
  EXPECT_EQ(relation_spans("check --model=" + model_path, 1), 1u);
  EXPECT_EQ(relation_spans("report --deadline-ms=0 --out=" + report_path, 4),
            0u);
}

TEST_F(CliTest, MineReportOutEmitsProvenanceJson) {
  std::string report_path = dir_ + "/report.json";
  CommandResult result =
      RunCli("mine --report-out=" + report_path + " " + log_path_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  std::string json = ReadFileOrEmpty(report_path);
  ASSERT_FALSE(json.empty()) << report_path;
  for (const char* key :
       {"\"schema_version\"", "\"edges\"", "\"support\"",
        "\"first_witness\"", "\"verdicts\"", "\"sensitivity\"",
        "\"metrics\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // The run mined 120 executions; the embedded metrics must agree.
  EXPECT_NE(json.find("\"log.executions_read\": 120"), std::string::npos);
  // The steps 5-6 memo counters are the same at every thread count, so the
  // report carries them, with equal values across --threads values.
  const std::string memo = MemoCounterLines(json);
  EXPECT_FALSE(memo.empty()) << json;
  for (std::string threads : {"2", "4"}) {
    std::string path = dir_ + "/report_t" + threads + ".json";
    CommandResult again = RunCli("mine --threads=" + threads +
                                 " --report-out=" + path + " " + log_path_);
    EXPECT_EQ(again.exit_code, 0) << again.output;
    EXPECT_EQ(MemoCounterLines(ReadFileOrEmpty(path)), memo)
        << "--threads=" << threads;
  }
}

TEST_F(CliTest, MineReportDotMarksDroppedEdges) {
  std::string dot_path = dir_ + "/report.dot";
  CommandResult result = RunCli("mine --threshold=2 --report-dot=" + dot_path +
                                " " + std::string(kOrderLog));
  EXPECT_EQ(result.exit_code, 0) << result.output;
  std::string dot = ReadFileOrEmpty(dot_path);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos) << dot;
  EXPECT_NE(dot.find("transitive_reduction"), std::string::npos) << dot;
}

TEST_F(CliTest, ReportSubcommandPrintsSummaryAndTable) {
  CommandResult result =
      RunCli("report --threshold=2 " + std::string(kOrderLog));
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("candidate edges"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("spurious_bound"), std::string::npos);
  EXPECT_NE(result.output.find("<- mined T"), std::string::npos);
}

TEST_F(CliTest, ReportGoldenJsonIsStable) {
  std::string out_path = dir_ + "/golden_run.json";
  CommandResult result =
      RunCli("report --algorithm=general --threshold=2 --threads=2 --out=" +
             out_path + " " + std::string(kOrderLog));
  ASSERT_EQ(result.exit_code, 0) << result.output;
  std::string golden =
      ReadFileOrEmpty(PROCMINE_GOLDEN_DIR "/order_fulfillment_report.json");
  ASSERT_FALSE(golden.empty()) << "golden file missing";
  EXPECT_EQ(ReadFileOrEmpty(out_path), golden)
      << "report JSON drifted from tests/golden/order_fulfillment_report."
         "json; regenerate with the command in tests/golden/README.md "
         "if the change is intentional";
}

TEST_F(CliTest, ReportGoldenDotIsStable) {
  std::string out_path = dir_ + "/golden_run.dot";
  CommandResult result =
      RunCli("report --algorithm=general --threshold=2 --threads=2 --dot=" +
             out_path + " " + std::string(kOrderLog));
  ASSERT_EQ(result.exit_code, 0) << result.output;
  std::string golden =
      ReadFileOrEmpty(PROCMINE_GOLDEN_DIR "/order_fulfillment_report.dot");
  ASSERT_FALSE(golden.empty()) << "golden file missing";
  EXPECT_EQ(ReadFileOrEmpty(out_path), golden);
}

TEST_F(CliTest, ReportBytesIdenticalAcrossThreadCounts) {
  std::string baseline;
  for (const char* threads : {"1", "2", "8"}) {
    std::string out_path = dir_ + "/threads_" + threads + ".json";
    CommandResult result = RunCli("report --threshold=2 --threads=" +
                                  std::string(threads) + " --out=" + out_path +
                                  " " + std::string(kOrderLog));
    ASSERT_EQ(result.exit_code, 0) << result.output;
    std::string json = ReadFileOrEmpty(out_path);
    ASSERT_FALSE(json.empty());
    if (baseline.empty()) {
      baseline = json;
    } else {
      EXPECT_EQ(json, baseline) << "--threads=" << threads;
    }
  }
}

TEST_F(CliTest, ReportCyclicLogUsesOccurrenceLabels) {
  std::string out_path = dir_ + "/loan.json";
  CommandResult result =
      RunCli("report --out=" + out_path + " " + std::string(kLoanLog));
  EXPECT_EQ(result.exit_code, 0) << result.output;
  std::string json = ReadFileOrEmpty(out_path);
  EXPECT_NE(json.find("\"occurrence_labeled\": true"), std::string::npos);
  EXPECT_NE(json.find("Review#2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"base_from\""), std::string::npos);
}

TEST_F(CliTest, ExplainCyclicLogNamesLabelledEdges) {
  // explain mines as `mine` does, so kAuto picks Algorithm 3 and the
  // narration speaks the occurrence-labelled names the report records.
  CommandResult result = RunCli("explain " + std::string(kLoanLog));
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("Algorithm 3"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("Review#2"), std::string::npos)
      << result.output;
  CommandResult edge =
      RunCli("explain --edge=Review#2,Approve#1 " + std::string(kLoanLog));
  EXPECT_EQ(edge.exit_code, 0) << edge.output;
  EXPECT_NE(edge.output.find("is in the model (kept)"), std::string::npos)
      << edge.output;
}

TEST_F(CliTest, ExplainEdgeVerdictsOnOrderLog) {
  const std::string log = " " + std::string(kOrderLog);
  CommandResult kept = RunCli("explain --edge=Receive,CreditCheck" + log);
  EXPECT_EQ(kept.exit_code, 0) << kept.output;
  EXPECT_NE(kept.output.find("is in the model (kept): observed in 11 "
                             "executions, first in o1"),
            std::string::npos)
      << kept.output;
  CommandResult pair =
      RunCli("explain --edge=CreditCheck,InventoryCheck" + log);
  EXPECT_EQ(pair.exit_code, 0) << pair.output;
  EXPECT_NE(pair.output.find("step 3 (two_cycle)"), std::string::npos)
      << pair.output;
  CommandResult reduced = RunCli("explain --edge=Receive,Ship" + log);
  EXPECT_EQ(reduced.exit_code, 0) << reduced.output;
  EXPECT_NE(reduced.output.find("steps 5-6 (transitive_reduction)"),
            std::string::npos)
      << reduced.output;
}

TEST_F(CliTest, ExplainUnknownActivityIsADataError) {
  CommandResult result =
      RunCli("explain --edge=Receive,Nowhere " + std::string(kOrderLog));
  EXPECT_EQ(result.exit_code, 3) << result.output;
  EXPECT_NE(result.output.find("Nowhere"), std::string::npos)
      << result.output;
}

TEST_F(CliTest, ExplainBytesIdenticalAcrossThreadCounts) {
  for (const std::string& args :
       {std::string(" ") + kOrderLog, " --edge=Receive,CreditCheck " +
                                           std::string(kOrderLog),
        std::string(" ") + log_path_}) {
    std::string baseline;
    for (const char* threads : {"1", "2", "4"}) {
      CommandResult result =
          RunCli("explain --threads=" + std::string(threads) + args);
      ASSERT_EQ(result.exit_code, 0) << result.output;
      if (baseline.empty()) {
        baseline = result.output;
      } else {
        EXPECT_EQ(result.output, baseline) << "--threads=" << threads << args;
      }
    }
  }
}

/// Writes a hostile log: clean executions interleaved with malformed lines
/// and executions that cannot pair.
std::string WriteGarbageLog(const std::string& dir) {
  std::string path = dir + "/hostile.log";
  std::ofstream out(path, std::ios::binary);
  for (int i = 0; i < 24; ++i) {
    std::string g = "g" + std::to_string(i);
    out << g << " A START " << i << "\n" << g << " A END " << i + 1 << "\n";
    out << g << " B START " << i + 2 << "\n"
        << g << " B END " << i + 4 << " 7\n";
    out << "garbage line " << i << "\n";
    out << "lost" << i << " C END 9\n";
  }
  return path;
}

TEST_F(CliTest, StrictMiningOfHostileLogIsADataError) {
  std::string path = WriteGarbageLog(dir_);
  CommandResult result = RunCli("mine " + path);
  EXPECT_EQ(result.exit_code, 3) << result.output;
}

TEST_F(CliTest, QuarantineMiningIsByteIdenticalAcrossThreadCounts) {
  std::string path = WriteGarbageLog(dir_);
  std::string baseline_dot;
  std::string baseline_quarantine;
  for (const char* threads : {"1", "2", "8"}) {
    std::string dot_path = dir_ + "/hostile_" + threads + ".dot";
    std::string q_path = dir_ + "/hostile_" + threads + ".quarantine";
    CommandResult result = RunCli(
        "mine --recovery=quarantine --quarantine-out=" + q_path +
        " --threads=" + std::string(threads) + " --dot=" + dot_path + " " +
        path);
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("skipped"), std::string::npos)
        << result.output;
    std::string dot = ReadFileOrEmpty(dot_path);
    std::string quarantine = ReadFileOrEmpty(q_path);
    ASSERT_FALSE(dot.empty());
    ASSERT_EQ(quarantine.find("# procmine quarantine"), 0u);
    if (baseline_dot.empty()) {
      baseline_dot = dot;
      baseline_quarantine = quarantine;
    } else {
      EXPECT_EQ(dot, baseline_dot) << "--threads=" << threads;
      EXPECT_EQ(quarantine, baseline_quarantine) << "--threads=" << threads;
    }
  }
}

TEST_F(CliTest, QuarantineOutWithContradictoryRecoveryIsRejected) {
  CommandResult result = RunCli("mine --recovery=skip --quarantine-out=" +
                                dir_ + "/q.txt " + log_path_);
  EXPECT_EQ(result.exit_code, 3);
  EXPECT_NE(result.output.find("--quarantine-out requires"),
            std::string::npos)
      << result.output;
}

TEST_F(CliTest, ZeroDeadlineDegradesReportWithValidJson) {
  std::string out_path = dir_ + "/degraded.json";
  CommandResult result =
      RunCli("report --deadline-ms=0 --out=" + out_path + " " + log_path_);
  EXPECT_EQ(result.exit_code, 4) << result.output;
  EXPECT_NE(result.output.find("DEGRADED"), std::string::npos)
      << result.output;
  // The partial report is still a complete artifact naming the cut phase.
  std::string json = ReadFileOrEmpty(out_path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"degraded\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cut_phase\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"resource\": \"deadline\""), std::string::npos)
      << json;
}

TEST_F(CliTest, MaxExecutionsDegradesMiningButStillEmitsAModel) {
  CommandResult result = RunCli("mine --max-executions=10 " + log_path_);
  EXPECT_EQ(result.exit_code, 4) << result.output;
  EXPECT_NE(result.output.find("digraph"), std::string::npos);
  EXPECT_NE(result.output.find("DEGRADED"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("executions"), std::string::npos);
}

TEST_F(CliTest, CrashFailpointLeavesNoTornReport) {
  std::string out_path = dir_ + "/crashed.json";
  CommandResult result =
      RunCliEnv("PROCMINE_FAILPOINTS=atomic_write.rename=crash",
                "report --out=" + out_path + " " + log_path_);
  // The injected crash aborts the process before the rename commits; the
  // target path must not exist (no torn JSON).
  EXPECT_EQ(result.exit_code, 134) << result.output;
  EXPECT_TRUE(ReadFileOrEmpty(out_path).empty());
}

TEST_F(CliTest, InjectedWriteErrorMapsToDataExit) {
  std::string out_path = dir_ + "/faulted.json";
  CommandResult result =
      RunCliEnv("PROCMINE_FAILPOINTS=report.write=error",
                "report --out=" + out_path + " " + log_path_);
  EXPECT_EQ(result.exit_code, 3) << result.output;
  EXPECT_NE(result.output.find("report.write"), std::string::npos)
      << result.output;
  EXPECT_TRUE(ReadFileOrEmpty(out_path).empty());
}

TEST_F(CliTest, DiffJsonModeEmitsMachineReadableReport) {
  std::string model_path = dir_ + "/designed.model";
  std::ofstream(model_path) << "A B\n";
  std::string json_path = dir_ + "/diff.json";
  CommandResult result =
      RunCli("diff --model=" + model_path + " --json=" + json_path + " " +
             log_path_);
  // Discrepancies still map to the mismatch exit even in JSON mode.
  EXPECT_EQ(result.exit_code, 1) << result.output;
  std::string json = ReadFileOrEmpty(json_path);
  EXPECT_NE(json.find("\"model_diff_schema\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"structurally_equal\": false"), std::string::npos);
  EXPECT_NE(json.find("\"discrepancies\": ["), std::string::npos);
}

class MonitorCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/monitor_cli_" + std::to_string(getpid());
    std::string mkdir = "rm -rf " + dir_ + " && mkdir -p " + dir_;
    ASSERT_EQ(std::system(mkdir.c_str()), 0);
    log_path_ = dir_ + "/flip.log";
    CommandResult synth = RunCli(
        "synth --drift=condition_flipped --executions=400 --cut=200 "
        "--seed=3 --out=" + log_path_);
    ASSERT_EQ(synth.exit_code, 0) << synth.output;
  }

  // Runs `monitor` into its own subdirectory; returns the alert feed bytes.
  std::string MonitorInto(const std::string& tag, const std::string& flags,
                          int expect_exit = 1) {
    std::string sub = dir_ + "/" + tag;
    CommandResult result = RunCli(
        "monitor " + log_path_ + " --window-executions=100 --registry-dir=" +
        sub + "/reg --alerts-out=" + sub + "/alerts.jsonl --report-out=" +
        sub + "/report.json " + flags);
    EXPECT_EQ(result.exit_code, expect_exit) << result.output;
    return ReadFileOrEmpty(sub + "/alerts.jsonl");
  }

  std::string dir_;
  std::string log_path_;
};

TEST_F(MonitorCliTest, DetectsFlipAndWritesAllArtifacts) {
  std::string alerts = MonitorInto("base", "");
  EXPECT_NE(alerts.find("\"alert\": \"direction_flipped\""),
            std::string::npos);
  EXPECT_NE(alerts.find("\"witness_name\": \"drift_000200\""),
            std::string::npos);

  std::string report = ReadFileOrEmpty(dir_ + "/base/report.json");
  EXPECT_NE(report.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_NE(report.find("\"report\": \"drift\""), std::string::npos);
  EXPECT_NE(report.find("\"drift_detected\": true"), std::string::npos);

  // Four tumbling windows -> registry versions 1..4 plus CURRENT.
  for (int v = 1; v <= 4; ++v) {
    char name[32];
    std::snprintf(name, sizeof(name), "/base/reg/v%06d.json", v);
    EXPECT_FALSE(ReadFileOrEmpty(dir_ + name).empty()) << name;
  }
  std::string current = ReadFileOrEmpty(dir_ + "/base/reg/CURRENT");
  EXPECT_EQ(current.substr(0, 2), "4 ");
}

TEST_F(MonitorCliTest, OutputsBytesIdenticalAcrossThreadsChunksAndStream) {
  std::string reference = MonitorInto("t1", "--threads=1");
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(MonitorInto("t4", "--threads=4"), reference);
  EXPECT_EQ(MonitorInto("t7c3", "--threads=7 --chunk-size=3"), reference);
  EXPECT_EQ(MonitorInto("stream", "--stream"), reference);

  // Reports differ only in the registry-dir they name; everything else —
  // windows, alerts, counters — must be byte-identical.
  auto normalized = [this](const std::string& tag) {
    std::string report = ReadFileOrEmpty(dir_ + "/" + tag + "/report.json");
    size_t start = report.find("  \"registry\": ");
    EXPECT_NE(start, std::string::npos) << tag;
    size_t end = report.find('\n', start);
    report.erase(start, end - start);
    return report;
  };
  std::string ref_report = normalized("t1");
  EXPECT_EQ(normalized("t4"), ref_report);
  EXPECT_EQ(normalized("stream"), ref_report);
  EXPECT_EQ(ReadFileOrEmpty(dir_ + "/t4/reg/v000002.json"),
            ReadFileOrEmpty(dir_ + "/t1/reg/v000002.json"));
  EXPECT_EQ(ReadFileOrEmpty(dir_ + "/stream/reg/v000004.json"),
            ReadFileOrEmpty(dir_ + "/t1/reg/v000004.json"));
}

TEST_F(MonitorCliTest, StreamWindowsInFileOrderBatchInNameOrder) {
  // synth names executions drift_000000, drift_000001, ...: name order is
  // file order, so both paths see the same windows.
  std::string edge_log = dir_ + "/edge.log";
  CommandResult synth = RunCli(
      "synth --drift=edge_added --executions=400 --cut=200 --seed=3 --out=" +
      edge_log);
  ASSERT_EQ(synth.exit_code, 0) << synth.output;
  auto alerts = [this](const std::string& log, const std::string& tag,
                       const std::string& flags) {
    std::string out = dir_ + "/" + tag + ".jsonl";
    CommandResult result =
        RunCli("monitor " + log + " --window-executions=100 --alerts-out=" +
               out + " " + flags);
    EXPECT_EQ(result.exit_code, 1) << result.output;
    return ReadFileOrEmpty(out);
  };
  const std::string reference = alerts(edge_log, "edge", "");
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(alerts(edge_log, "edge_stream", "--stream"), reference);

  // Renamed x1..x400 in file order, name order (x1, x10, x100, ...) is no
  // longer file order: --stream still windows in file order, the default
  // path windows in name order and sees other windows.
  std::string renamed_log = dir_ + "/renamed.log";
  {
    std::ifstream in(edge_log);
    std::ofstream out(renamed_log);
    std::string line, last, renamed;
    int next = 0;
    while (std::getline(in, line)) {
      size_t space = line.find(' ');
      std::string name = line.substr(0, space);
      if (name != last) {
        last = name;
        renamed = "x" + std::to_string(++next);
      }
      out << renamed << line.substr(space) << "\n";
    }
  }
  std::string expected = reference;
  const std::string witness = "\"witness_name\": \"drift_000200\"";
  size_t at = expected.find(witness);
  ASSERT_NE(at, std::string::npos) << expected;
  expected.replace(at, witness.size(), "\"witness_name\": \"x201\"");
  EXPECT_EQ(alerts(renamed_log, "renamed_stream", "--stream"), expected);
  EXPECT_NE(alerts(renamed_log, "renamed", ""), expected);
}

TEST_F(MonitorCliTest, DriftFreeNoisyLogExitsZero) {
  std::string quiet_log = dir_ + "/quiet.log";
  CommandResult synth = RunCli(
      "synth --drift=none --executions=600 --swap-rate=0.05 --seed=9 "
      "--out=" + quiet_log);
  ASSERT_EQ(synth.exit_code, 0) << synth.output;
  CommandResult result = RunCli("monitor " + quiet_log +
                                " --window-executions=100 --epsilon=0.05");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("0 alerts"), std::string::npos)
      << result.output;
}

TEST_F(MonitorCliTest, SlidingWindowsAndRegistryVersionCount) {
  std::string sub = dir_ + "/slide";
  CommandResult result = RunCli(
      "monitor " + log_path_ + " --window-executions=100 --slide=50 "
      "--registry-dir=" + sub + "/reg");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  // Windows close at 100, 150, ..., 400 -> 7 registry versions.
  EXPECT_NE(result.output.find("7 windows"), std::string::npos)
      << result.output;
  std::string current = ReadFileOrEmpty(sub + "/reg/CURRENT");
  EXPECT_EQ(current.substr(0, 2), "7 ");
}

TEST_F(MonitorCliTest, CrashFailpointLeavesNoTornRegistryVersion) {
  std::string sub = dir_ + "/crash";
  // Crash on the 5th atomic rename: versions 1-2 and their CURRENT commits
  // land, version 3 dies mid-publish.
  CommandResult result = RunCliEnv(
      "PROCMINE_FAILPOINTS=atomic_write.rename=crash@4",
      "monitor " + log_path_ + " --window-executions=100 --registry-dir=" +
          sub + "/reg");
  EXPECT_EQ(result.exit_code, 134) << result.output;
  EXPECT_FALSE(ReadFileOrEmpty(sub + "/reg/v000001.json").empty());
  EXPECT_FALSE(ReadFileOrEmpty(sub + "/reg/v000002.json").empty());
  // The interrupted version never appears at its final path (its .tmp may
  // survive the crash; Open ignores it and the next write replaces it).
  EXPECT_TRUE(ReadFileOrEmpty(sub + "/reg/v000003.json").empty());

  // A rerun into the surviving directory resumes after the durable prefix.
  CommandResult rerun = RunCli(
      "monitor " + log_path_ + " --window-executions=100 --registry-dir=" +
      sub + "/reg");
  EXPECT_EQ(rerun.exit_code, 1) << rerun.output;
  std::string current = ReadFileOrEmpty(sub + "/reg/CURRENT");
  EXPECT_EQ(current.substr(0, 2), "6 ");  // 2 recovered + 4 new
}

TEST_F(MonitorCliTest, UsageAndDataErrors) {
  EXPECT_EQ(RunCli("monitor").exit_code, 2);
  EXPECT_EQ(RunCli("monitor --window-executions=0 " + log_path_).exit_code,
            2);
  EXPECT_EQ(RunCli("monitor " + dir_ + "/absent.log").exit_code, 3);
}

// ---------------------------------------------------------------------------
// Segment-store commands: synth --stream-out, mine on a store directory,
// mine --spill-dir, stats on a store, convert --to-store.

class StoreCliTest : public CliTest {
 protected:
  void SetUp() override {
    CliTest::SetUp();
    // Stores are immutable once finished (Create refuses a directory with a
    // manifest), so key by test name instead of reusing one directory.
    store_dir_ =
        dir_ + "/store_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_EQ(std::system(("rm -rf " + store_dir_).c_str()), 0);
    CommandResult stream = RunCli(
        "synth --activities=8 --executions=120 --seed=5 --segment-events=64 "
        "--stream-out=" + store_dir_);
    ASSERT_EQ(stream.exit_code, 0) << stream.output;
  }

  std::string store_dir_;
};

TEST_F(StoreCliTest, StreamedSynthMatchesInMemorySynth) {
  // Same flags, two paths: the streamed store and the in-memory log must
  // mine to the same model.
  CommandResult from_store = RunCli("mine " + store_dir_);
  ASSERT_EQ(from_store.exit_code, 0) << from_store.output;
  EXPECT_NE(from_store.output.find("mined out of core"), std::string::npos)
      << from_store.output;
  EXPECT_NE(from_store.output.find("cache: "), std::string::npos);
  CommandResult from_log = RunCli("mine " + log_path_);
  ASSERT_EQ(from_log.exit_code, 0) << from_log.output;
  auto dot = [](const std::string& s) {
    return s.substr(s.find("digraph"));
  };
  ASSERT_NE(from_store.output.find("digraph"), std::string::npos);
  ASSERT_NE(from_log.output.find("digraph"), std::string::npos);
  EXPECT_EQ(dot(from_store.output), dot(from_log.output));
}

TEST_F(StoreCliTest, SpillDirMinesTextThroughStore) {
  std::string spill = dir_ + "/spill_store";
  CommandResult spilled =
      RunCli("mine --spill-dir=" + spill + " " + log_path_);
  ASSERT_EQ(spilled.exit_code, 0) << spilled.output;
  EXPECT_NE(spilled.output.find("spilled"), std::string::npos);
  EXPECT_NE(spilled.output.find("mined out of core"), std::string::npos);
  CommandResult direct = RunCli("mine " + log_path_);
  ASSERT_EQ(direct.exit_code, 0);
  auto dot = [](const std::string& s) {
    return s.substr(s.find("digraph"));
  };
  EXPECT_EQ(dot(spilled.output), dot(direct.output));
}

/// `mine <log> --spill-dir=D` streams the text into a store before mining
/// it; the model, the exit code and the error message must be the ones
/// `mine <log>` gives.
void ExpectSpillAgreesWithMine(const std::string& dir, const std::string& tag,
                               const std::string& text) {
  const std::string log = dir + "/" + tag + ".log";
  {
    std::ofstream out(log, std::ios::binary);
    out << text;
  }
  CommandResult direct = RunCli("mine " + log);
  CommandResult spilled =
      RunCli("mine --spill-dir=" + dir + "/" + tag + "_store " + log);
  ASSERT_EQ(spilled.exit_code, direct.exit_code)
      << "mine: " << direct.output << "\nspill: " << spilled.output;
  if (direct.exit_code != 0) {
    EXPECT_EQ(spilled.output, direct.output);
    return;
  }
  size_t direct_dot = direct.output.find("digraph");
  size_t spilled_dot = spilled.output.find("digraph");
  ASSERT_NE(direct_dot, std::string::npos) << direct.output;
  ASSERT_NE(spilled_dot, std::string::npos) << spilled.output;
  EXPECT_EQ(spilled.output.substr(spilled_dot),
            direct.output.substr(direct_dot));
}

TEST_F(StoreCliTest, SpillAgreesWithMineOnLinesOutOfTimeOrder) {
  // One instance's END precedes its START in the file: pairing follows the
  // timestamps, not the line order.
  ExpectSpillAgreesWithMine(dir_, "out_of_order",
                            "p1 A END 5\np1 A START 3\n"
                            "p1 B START 6\np1 B END 7\n"
                            "p2 A START 0\np2 A END 1\n"
                            "p2 B START 2\np2 B END 3\n");
}

TEST_F(StoreCliTest, SpillAgreesWithMineOnOutputOnStart) {
  // Outputs appear only on END events (Definition 2).
  ExpectSpillAgreesWithMine(dir_, "output_on_start",
                            "p1 A START 3 42\np1 A END 5\n"
                            "p1 B START 6\np1 B END 7\n");
}

TEST_F(StoreCliTest, SpillAgreesWithMineOnSwappedEndLines) {
  // Two pairs of A with their END lines swapped: by time, A ran [1,2] and
  // then [3,4].
  ExpectSpillAgreesWithMine(dir_, "swapped_ends",
                            "p1 A START 1\np1 A END 4\n"
                            "p1 A START 3\np1 A END 2\n"
                            "p1 B START 5\np1 B END 6\n"
                            "p2 A START 0\np2 A END 1\n"
                            "p2 B START 2\np2 B END 3\n");
}

TEST_F(StoreCliTest, SpillQuarantineMatchesDirectMine) {
  // The sidecar of a spill holds what the spill's scan rejected, the same
  // records `mine <log>` quarantines.
  const std::string log = dir_ + "/hostile_spill.log";
  {
    std::ofstream out(log, std::ios::binary);
    out << "g A START 0\ng A END 1\njunk\ng B START 2\ng B END 3\n"
           "h A START 0\nh A END 1\nh B START 5\n";
  }
  const std::string flags = "mine --recovery=quarantine --quarantine-out=";
  CommandResult direct = RunCli(flags + dir_ + "/q_direct.txt " + log);
  ASSERT_EQ(direct.exit_code, 0) << direct.output;
  const std::string spill = dir_ + "/q_spill_store";
  ASSERT_EQ(std::system(("rm -rf " + spill).c_str()), 0);
  CommandResult spilled = RunCli(flags + dir_ + "/q_spill.txt --spill-dir=" +
                                 spill + " " + log);
  ASSERT_EQ(spilled.exit_code, 0) << spilled.output;
  const std::string expected = ReadFileOrEmpty(dir_ + "/q_direct.txt");
  EXPECT_NE(expected.find("short_line"), std::string::npos) << expected;
  EXPECT_EQ(ReadFileOrEmpty(dir_ + "/q_spill.txt"), expected);
}

TEST_F(StoreCliTest, FailedSpillRemovesOnlyTheDirectoryItCreated) {
  const std::string bad = dir_ + "/bad.log";
  {
    std::ofstream out(bad, std::ios::binary);
    out << "x A START 0\nbroken\n";
  }
  auto exists = [](const std::string& path) {
    return std::system(("test -d " + path).c_str()) == 0;
  };
  const std::string fresh = dir_ + "/fresh_spill";
  ASSERT_EQ(std::system(("rm -rf " + fresh).c_str()), 0);
  CommandResult created = RunCli("mine --spill-dir=" + fresh + " " + bad);
  EXPECT_EQ(created.exit_code, 3) << created.output;
  EXPECT_FALSE(exists(fresh)) << "a failed spill left " << fresh;

  const std::string existing = dir_ + "/existing_spill";
  ASSERT_EQ(std::system(("rm -rf " + existing + " && mkdir " + existing)
                            .c_str()),
            0);
  CommandResult kept = RunCli("mine --spill-dir=" + existing + " " + bad);
  EXPECT_EQ(kept.exit_code, 3) << kept.output;
  EXPECT_TRUE(exists(existing)) << "a failed spill removed " << existing;
}

TEST_F(StoreCliTest, StatsReportsStoreFootprint) {
  CommandResult result = RunCli("stats " + store_dir_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("segment store"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("segments:"), std::string::npos);
  EXPECT_NE(result.output.find("120"), std::string::npos);
  EXPECT_NE(result.output.find("on-disk bytes:"), std::string::npos);
  EXPECT_NE(result.output.find("resident bound:"), std::string::npos);
}

TEST_F(StoreCliTest, ConvertStoreRoundTrip) {
  // text -> store -> text: byte-identical to text -> text.
  std::string store2 = dir_ + "/convert_store";
  CommandResult to_store =
      RunCli("convert --to-store --segment-events=64 " + log_path_ + " " +
             store2);
  ASSERT_EQ(to_store.exit_code, 0) << to_store.output;
  std::string from_store_txt = dir_ + "/from_store.log";
  CommandResult back = RunCli("convert " + store2 + " " + from_store_txt);
  ASSERT_EQ(back.exit_code, 0) << back.output;
  std::string direct_txt = dir_ + "/direct.log";
  CommandResult direct = RunCli("convert " + log_path_ + " " + direct_txt);
  ASSERT_EQ(direct.exit_code, 0) << direct.output;
  EXPECT_EQ(ReadFileOrEmpty(from_store_txt), ReadFileOrEmpty(direct_txt));
  EXPECT_NE(ReadFileOrEmpty(from_store_txt), "");
}

TEST_F(StoreCliTest, MineStoreRejectsWholeLogFeatures) {
  CommandResult report =
      RunCli("mine --report-out=" + dir_ + "/r.json " + store_dir_);
  EXPECT_NE(report.exit_code, 0);
  EXPECT_NE(report.output.find("whole log in memory"), std::string::npos)
      << report.output;

  // A spill source is refused the same way, before it writes a store.
  const std::string spill = dir_ + "/refused_spill";
  ASSERT_EQ(std::system(("rm -rf " + spill).c_str()), 0);
  for (const auto& [flag, exit_code] :
       {std::pair<std::string, int>{"--report-out=" + dir_ + "/r.json", 2},
        std::pair<std::string, int>{"--threshold=auto", 3}}) {
    CommandResult refused =
        RunCli("mine --spill-dir=" + spill + " " + flag + " " + log_path_);
    EXPECT_EQ(refused.exit_code, exit_code) << flag << ": " << refused.output;
    EXPECT_NE(refused.output.find("whole log in memory"), std::string::npos)
        << refused.output;
    EXPECT_EQ(refused.output.find("spilled"), std::string::npos)
        << refused.output;
    EXPECT_NE(access(spill.c_str(), F_OK), 0) << flag << " created " << spill;
  }
}

TEST_F(StoreCliTest, SynthStreamRequiresSizeFlag) {
  EXPECT_EQ(RunCli("synth --activities=8 --stream-out=" + dir_ + "/x")
                .exit_code,
            2);
}

TEST_F(CliTest, TraceSummaryIncludesHistogramPercentiles) {
  std::string trace_path = dir_ + "/trace.json";
  CommandResult result =
      RunCli("mine --trace-out=" + trace_path + " " + log_path_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("p50="), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("p99="), std::string::npos);
  EXPECT_NE(result.output.find("mine.execution_instances"), std::string::npos)
      << result.output;
}

// ---------------------------------------------------------------------------
// Continuous telemetry: --telemetry-out / --metrics-openmetrics /
// --status-file, `procmine top`, and the flush-on-degradation guarantee.

TEST_F(CliTest, TelemetryFlagsWriteAllThreeArtifacts) {
  std::string jsonl = dir_ + "/telemetry.jsonl";
  std::string om = dir_ + "/metrics.om";
  std::string status = dir_ + "/status.json";
  CommandResult result = RunCli("mine --telemetry-out=" + jsonl +
                                " --metrics-openmetrics=" + om +
                                " --status-file=" + status + " " + log_path_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("wrote telemetry-out"), std::string::npos)
      << result.output;

  // JSONL: at least the startup and final samples, schema-stamped.
  std::string lines = ReadFileOrEmpty(jsonl);
  EXPECT_NE(lines.find("\"schema_version\":1"), std::string::npos) << lines;
  EXPECT_NE(lines.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(lines.find("\"phase\""), std::string::npos);
  // OpenMetrics: sealed exposition with the mining counters.
  std::string exposition = ReadFileOrEmpty(om);
  EXPECT_NE(exposition.find("procmine_log_executions_read_total"),
            std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("process_resident_memory_bytes"),
            std::string::npos);
  ASSERT_GE(exposition.size(), 6u);
  EXPECT_EQ(exposition.substr(exposition.size() - 6), "# EOF\n");
  // Status: command/source labels and progress counters.
  std::string heartbeat = ReadFileOrEmpty(status);
  EXPECT_NE(heartbeat.find("\"command\":\"mine\""), std::string::npos)
      << heartbeat;
  EXPECT_NE(heartbeat.find("demo.log"), std::string::npos);
  EXPECT_NE(heartbeat.find("\"executions_read\":120"), std::string::npos);
}

TEST_F(CliTest, ModelIsByteIdenticalWithTelemetryOnAndOff) {
  auto dot = [](const std::string& s) { return s.substr(s.find("digraph")); };
  for (const std::string threads : {"1", "4"}) {
    for (const std::string chunk : {"1", "16"}) {
      std::string variant = " --threads=" + threads + " --chunk-size=" + chunk;
      CommandResult off = RunCli("mine" + variant + " " + log_path_);
      ASSERT_EQ(off.exit_code, 0) << off.output;
      CommandResult on = RunCli(
          "mine --telemetry-out=" + dir_ + "/t.jsonl --status-file=" + dir_ +
          "/s.json --telemetry-interval-ms=10" + variant + " " + log_path_);
      ASSERT_EQ(on.exit_code, 0) << on.output;
      ASSERT_NE(off.output.find("digraph"), std::string::npos);
      ASSERT_NE(on.output.find("digraph"), std::string::npos);
      EXPECT_EQ(dot(off.output), dot(on.output))
          << "threads=" << threads << " chunk=" << chunk;
    }
  }
}

TEST_F(CliTest, DegradedRunStillFlushesEveryObservabilityArtifact) {
  // Regression pin: a budget-exhausted run (exit 4) must leave behind the
  // same artifacts a clean run would — the degraded runs are exactly the
  // ones an operator needs to debug.
  std::string metrics = dir_ + "/m.json";
  std::string trace = dir_ + "/t.json";
  std::string jsonl = dir_ + "/tel.jsonl";
  std::string status = dir_ + "/status.json";
  CommandResult result = RunCli(
      "mine --deadline-ms=0 --metrics-out=" + metrics +
      " --trace-out=" + trace + " --telemetry-out=" + jsonl +
      " --status-file=" + status + " " + log_path_);
  EXPECT_EQ(result.exit_code, 4) << result.output;
  EXPECT_NE(ReadFileOrEmpty(metrics), "");
  EXPECT_NE(ReadFileOrEmpty(trace), "");
  EXPECT_NE(ReadFileOrEmpty(jsonl), "");
  std::string heartbeat = ReadFileOrEmpty(status);
  EXPECT_NE(heartbeat, "");
  // The final sample records the exhausted budget resource.
  EXPECT_NE(heartbeat.find("\"exhausted\":\"deadline\""), std::string::npos)
      << heartbeat;
}

TEST_F(CliTest, TopPrintsStatusAndFlagsStaleness) {
  std::string status = dir_ + "/status.json";
  CommandResult run = RunCli("mine --status-file=" + status + " " + log_path_);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  // The run is over, so its heartbeat is by definition not fresh — but with
  // an interval of 250ms the staleness floor (2s) keeps a just-finished file
  // fresh long enough to read.
  CommandResult top = RunCli("top " + status);
  EXPECT_TRUE(top.exit_code == 0 || top.exit_code == 1) << top.output;
  EXPECT_NE(top.output.find("procmine pid"), std::string::npos) << top.output;
  EXPECT_NE(top.output.find("phase:"), std::string::npos);
  EXPECT_NE(top.output.find("120 executions read"), std::string::npos);

  // Stale heartbeat -> exit 1 with a warning.
  std::string stale_file = dir_ + "/stale.json";
  std::string doctored = ReadFileOrEmpty(status);
  size_t pos = doctored.find("\"heartbeat_unix_ms\":");
  ASSERT_NE(pos, std::string::npos);
  size_t val_start = pos + std::string("\"heartbeat_unix_ms\":").size();
  size_t val_end = doctored.find_first_of(",}", val_start);
  doctored.replace(val_start, val_end - val_start, "1000");
  std::ofstream(stale_file) << doctored;
  CommandResult stale = RunCli("top " + stale_file);
  EXPECT_EQ(stale.exit_code, 1) << stale.output;
  EXPECT_NE(stale.output.find("STALE"), std::string::npos) << stale.output;

  // Unreadable / unparseable -> exit 3.
  EXPECT_EQ(RunCli("top " + dir_ + "/absent.json").exit_code, 3);
  std::ofstream(dir_ + "/garbage.json") << "not json{";
  EXPECT_EQ(RunCli("top " + dir_ + "/garbage.json").exit_code, 3);
  EXPECT_EQ(RunCli("top").exit_code, 2);
}

TEST_F(StoreCliTest, StatsListsSegmentsAndVerifiesChecksums) {
  CommandResult result = RunCli("stats --verify-crc " + store_dir_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("reader cache:"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("recovery=strict"), std::string::npos);
  EXPECT_NE(result.output.find("seg-000000.seg"), std::string::npos);
  EXPECT_NE(result.output.find(" ok"), std::string::npos);
  EXPECT_EQ(result.output.find("DAMAGED"), std::string::npos);

  // Truncate one segment: the table must call it out without salvage flags.
  std::string victim = store_dir_ + "/seg-000000.seg";
  std::ifstream in(victim, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 10u);
  std::ofstream(victim, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() / 2);
  CommandResult damaged = RunCli("stats --verify-crc " + store_dir_);
  EXPECT_EQ(damaged.exit_code, 0) << damaged.output;
  EXPECT_NE(damaged.output.find("size-mismatch"), std::string::npos)
      << damaged.output;
  EXPECT_NE(damaged.output.find("--recovery=skip"), std::string::npos);
}

TEST_F(StoreCliTest, SpillMineWithTelemetryTracksCacheAndWindows) {
  std::string spill = dir_ + "/spill_telemetry";
  std::string status = dir_ + "/spill_status.json";
  CommandResult result =
      RunCli("mine --spill-dir=" + spill + " --segment-events=64 " +
             "--status-file=" + status + " --telemetry-interval-ms=10 " +
             log_path_);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  std::string heartbeat = ReadFileOrEmpty(status);
  // The final sample has seen the whole out-of-core run: windows visited
  // and the segment cache counters are non-zero.
  EXPECT_NE(heartbeat.find("\"windows_total\":"), std::string::npos)
      << heartbeat;
  EXPECT_EQ(heartbeat.find("\"windows_visited\":0,"), std::string::npos)
      << heartbeat;
  EXPECT_EQ(heartbeat.find("\"loads\":0,"), std::string::npos) << heartbeat;
  // The planned visit total is exact once the run is over.
  auto field = [&](const std::string& key) {
    size_t at = heartbeat.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key << " in " << heartbeat;
    if (at == std::string::npos) return std::string();
    at += key.size() + 3;
    return heartbeat.substr(at, heartbeat.find_first_of(",}", at) - at);
  };
  EXPECT_EQ(field("windows_visited"), field("windows_total")) << heartbeat;
}

}  // namespace
}  // namespace procmine
