#!/bin/sh
# Run-report smoke gate: mines a log with --report-out/--report-dot, checks
# the JSON parses, and validates the report invariants that matter:
#   * every kept edge's support reaches the mined threshold,
#   * the kept candidates are exactly the model's edges,
#   * the sensitivity table has >= 5 distinct sorted thresholds whose
#     kept+dropped always partition the candidate set,
#   * one verdict per execution, inconsistent ones naming a violation,
#   * the memo counters count the distinct activity sets and executions,
#   * report bytes are identical for --threads=1 and --threads=4,
#   * `procmine explain --edge` states each candidate's report fate at
#     thresholds 1 and the given one, and explain's kept edges are the
#     mined model (merged to base activities on the cyclic path).
#
# Registered as the `report_smoke` ctest (tests/CMakeLists.txt) with the
# built CLI and examples/logs/order_fulfillment.log, and as
# `report_smoke_cyclic` with examples/logs/loan_review.log. Standalone usage:
#   scripts/report-smoke.sh <procmine-binary> <log> [threshold]

set -eu

PROCMINE="${1:?usage: report-smoke.sh <procmine-binary> <log> [threshold]}"
LOG="${2:?usage: report-smoke.sh <procmine-binary> <log> [threshold]}"
THRESHOLD="${3:-2}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$PROCMINE" mine "$LOG" --threshold="$THRESHOLD" \
  --report-out="$TMP/report.json" --report-dot="$TMP/report.dot" \
  > "$TMP/model.dot"
"$PROCMINE" mine "$LOG" --threshold="$THRESHOLD" --threads=1 \
  --report-out="$TMP/report_t1.json" > /dev/null
"$PROCMINE" mine "$LOG" --threshold="$THRESHOLD" --threads=4 \
  --report-out="$TMP/report_t4.json" > /dev/null

cmp "$TMP/report_t1.json" "$TMP/report_t4.json" || {
  echo "FAIL: report bytes differ between --threads=1 and --threads=4" >&2
  exit 1
}

grep -q 'style=dashed' "$TMP/report.dot" || {
  echo "FAIL: annotated DOT has no dashed dropped edges" >&2
  exit 1
}

python3 - "$TMP/report.json" "$THRESHOLD" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)  # raises on malformed JSON -> nonzero exit
threshold = int(sys.argv[2])

edges = report["edges"]
assert edges, "no candidate edges recorded"
kept = [(e["from"], e["to"]) for e in edges if e["status"] == "kept"]
for e in edges:
    assert e["support"] >= 1, e
    assert 0 <= e["first_witness"] <= e["last_witness"], e
    assert e["last_witness"] < report["num_executions"], e
    if e["status"] == "kept":
        assert e["support"] >= threshold, f"kept edge below threshold: {e}"

model_edges = [(e["from"], e["to"]) for e in report["model"]["edges"]]
if not report["occurrence_labeled"]:
    assert sorted(kept) == sorted(model_edges), (
        "kept candidates != model edges")

rows = report["sensitivity"]
assert len(rows) >= 5, f"sensitivity table too small: {len(rows)} rows"
thresholds = [r["threshold"] for r in rows]
assert thresholds == sorted(set(thresholds)), "thresholds not sorted/unique"
for row in rows:
    assert row["edges_kept"] + row["edges_dropped"] == len(edges), row
    assert 0.0 <= row["spurious_bound"] <= 1.0, row
    assert 0.0 <= row["lost_bound"] <= 1.0, row

verdicts = report["conformance"]["verdicts"]
assert len(verdicts) == report["num_executions"], "one verdict per execution"
for v in verdicts:
    if not v["consistent"]:
        assert v["violation"], v

# The steps 5-6 memo counters are the same at every thread count (the cmp
# above compares --threads=1 and 4), so the report carries them: misses
# counts the distinct activity sets, hits + misses the executions.
counters = report["metrics"]["counters"]
hits = counters["general_dag.memo_hits"]
misses = counters["general_dag.memo_misses"]
assert 1 <= misses <= report["num_executions"], counters
assert hits + misses == report["num_executions"], counters

print(f"report smoke OK: {len(edges)} candidates, {len(kept)} kept, "
      f"{len(rows)} sweep rows, {len(verdicts)} verdicts")
PYEOF

# explain and the report read the same recorder: for every candidate, the
# per-edge verdict names the report's status, and explain's kept set is the
# model the same mine emits.
python3 - "$PROCMINE" "$LOG" "$THRESHOLD" "$TMP" <<'PYEOF'
import json
import subprocess
import sys

procmine, log, threshold, tmp = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4]
for t in sorted({1, int(threshold)}):
    path = f"{tmp}/explain_report_{t}.json"
    subprocess.run([procmine, "mine", log, f"--threshold={t}",
                    f"--report-out={path}"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    with open(path) as f:
        report = json.load(f)
    explained_kept = []
    for e in report["edges"]:
        out = subprocess.run(
            [procmine, "explain", log, f"--edge={e['from']},{e['to']}",
             f"--threshold={t}"], check=True, capture_output=True,
            text=True).stdout
        assert f"({e['status']})" in out, (
            f"T={t}: explain disagrees with the report on {e}: {out!r}")
        if "(kept)" in out:
            explained_kept.append(e)
    if report["occurrence_labeled"]:
        kept = {(e["base_from"], e["base_to"]) for e in explained_kept
                if e["base_from"] != e["base_to"]}
    else:
        kept = {(e["from"], e["to"]) for e in explained_kept}
    model = {(e["from"], e["to"]) for e in report["model"]["edges"]}
    assert kept == model, f"T={t}: explain kept {kept} but mined {model}"
    print(f"explain agrees with the report at T={t}: "
          f"{len(report['edges'])} candidates, {len(explained_kept)} kept")
PYEOF
