#!/usr/bin/env bash
# Parent-vs-change gate on the repository benchmark (perfbench plus
# BENCHMARK.json):
#
#   scripts/ci/perf_gate.sh [PARENT]        # PARENT defaults to HEAD~1
#
# Builds perfbench at PARENT (in a temporary git worktree) and in the
# working tree, then runs every BENCHMARK.json workload for PAIRS
# alternating pairs of runs (parent first in odd pairs, change first in
# even ones) at one seed and a short --seconds. It fails when
#   - any run's result line has `failed` > 0 or `correct` false, or is
#     missing;
#   - for any workload, the median over the change's runs of an
#     end-to-end metric is worse than the parent's median by more than
#     that metric's `bound` in BENCHMARK.json.
# The table is written to target/perf-gate/table.md (and printed), the
# result lines to target/perf-gate/runs.jsonl, each run's output to
# target/perf-gate/<side>-<workload>-<pair>.log.
set -euo pipefail

PAIRS=5
RUN_SECONDS=10
SEED=1

ROOT=$(git rev-parse --show-toplevel)
cd "$ROOT"
PARENT=$(git rev-parse --verify "${1:-HEAD~1}^{commit}")
OUT="$ROOT/target/perf-gate"
TREE="$OUT/parent"

cleanup() {
  git worktree remove --force "$TREE" 2>/dev/null || true
  rm -rf "$TREE"
  git worktree prune
}
trap cleanup EXIT
cleanup
mkdir -p "$OUT"
rm -f "$OUT"/*.log "$OUT/runs.jsonl" "$OUT/table.md"
git worktree add --detach --quiet "$TREE" "$PARENT"

echo "building perfbench at parent $PARENT and in the working tree..."
cargo build --release --offline --quiet --manifest-path "$TREE/perfbench/Cargo.toml" \
  --target-dir "$OUT/parent-target"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
PARENT_BIN="$OUT/parent-target/release/avf-perfbench"
CHANGE_BIN="$ROOT/perfbench/target/release/avf-perfbench"

WORKLOADS=$(python3 -c \
  'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

# One run from its own tree (perfbench keeps scratch files under the
# working directory); a nonzero exit is judged from the result line.
run() {
  local side=$1 workload=$2 pair=$3 tree bin
  if [ "$side" = parent ]; then tree=$TREE bin=$PARENT_BIN; else tree=$ROOT bin=$CHANGE_BIN; fi
  echo "pair $pair: $side $workload"
  (cd "$tree" && "$bin" --workload "$workload" --seed "$SEED" --seconds "$RUN_SECONDS" \
    --trace 0) > "$OUT/$side-$workload-$pair.log" 2>&1 || true
}

for pair in $(seq 1 "$PAIRS"); do
  for workload in $WORKLOADS; do
    if [ $((pair % 2)) -eq 1 ]; then
      run parent "$workload" "$pair"
      run change "$workload" "$pair"
    else
      run change "$workload" "$pair"
      run parent "$workload" "$pair"
    fi
  done
done

python3 - "$OUT" "$PARENT" "$(git rev-parse HEAD)" "$PAIRS" "$RUN_SECONDS" "$SEED" "$(nproc)" <<'PY'
import json
import statistics
import sys

out, parent, head, pairs, seconds, seed, nproc = sys.argv[1:]
pairs = int(pairs)
bench = json.load(open("BENCHMARK.json"))
problems = []
results = {}
with open(f"{out}/runs.jsonl", "w") as jsonl:
    for workload in (w["name"] for w in bench["workloads"]):
        for side in ("parent", "change"):
            for pair in range(1, pairs + 1):
                log = f"{out}/{side}-{workload}-{pair}.log"
                lines = [l for l in open(log).read().splitlines() if l.strip()]
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    result = None
                    problems.append(f"{side} {workload} pair {pair}: no result line ({log})")
                if result is not None and (
                    result.get("failed", 1) > 0 or result.get("correct") is not True
                ):
                    problems.append(
                        f"{side} {workload} pair {pair}: {result.get('failed')} of "
                        f"{result.get('attempted')} operation(s) failed, "
                        f"correct={str(result.get('correct')).lower()}"
                    )
                row = {"side": side, "workload": workload, "pair": pair, "result": result}
                jsonl.write(json.dumps(row) + "\n")
                if result is not None:
                    results.setdefault((workload, side), []).append(result)

table = [
    f"# perf gate: working tree (HEAD {head[:12]}) vs parent {parent[:12]}",
    "",
    f"nproc={nproc}; {pairs} alternating pairs per workload; seed {seed}; "
    f"--seconds {seconds}; medians over each side's runs.",
    "",
    "| workload | metric | bound | parent | change | change vs parent | verdict |",
    "|---|---|---|---|---|---|---|",
]
def fmt(v):
    return "-" if v is None else f"{v:.4g}"


for workload in (w["name"] for w in bench["workloads"]):
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = {}
        for side in ("parent", "change"):
            values = [r["metrics"][name]["value"] for r in results.get((workload, side), [])]
            medians[side] = statistics.median(values) if values else None
        p, c = medians["parent"], medians["change"]
        if p is None or c is None or p <= 0:
            verdict, delta = "no data", "-"
            problems.append(f"{workload} {name}: no median to compare")
        else:
            ratio = c / p - 1
            delta = f"{ratio:+.1%}"
            worse = ratio > bound if metric["better"] == "lower" else -ratio > bound
            verdict = f"WORSE than {bound:.0%}" if worse else "ok"
            if worse:
                problems.append(f"{workload} {name}: {p:.4g} -> {c:.4g} ({delta}, bound {bound:.0%})")
        table.append(f"| `{workload}` | `{name}` | {bound} | {fmt(p)} | {fmt(c)} | {delta} | {verdict} |")
table.append("")
table.extend(f"- FAIL: {p}" for p in problems)
table.append("result: " + ("FAIL" if problems else "PASS"))
text = "\n".join(table) + "\n"
open(f"{out}/table.md", "w").write(text)
print(text, end="")
sys.exit(1 if problems else 0)
PY
