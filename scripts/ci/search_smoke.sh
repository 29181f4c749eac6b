#!/usr/bin/env bash
# Release-mode distributed-search smoke: two authenticated `serve`
# workers score GA generations for `search --workers`, and the full
# report (knobs, SER breakdown, per-generation history) must be
# bit-identical to the same-seed local run — scores are pure functions
# of (machine, fitness, budget, genome), so the venue may never leak
# into the result. The workers' /metrics must also show the genome
# cache taking hits: elite genomes re-scored across generations are
# cache hits, not re-simulations.
set -euo pipefail
. "$(dirname "$0")/lib.sh"

BIN=./target/release/avf-stressmark
[ -x "$BIN" ] || { echo "error: $BIN not built (run cargo build --release --locked first)" >&2; exit 1; }

W1_PORT=7711
W2_PORT=7712
W1_METRICS_PORT=7713
W2_METRICS_PORT=7714

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# One shared key for the fleet, as --auth-key-file documents.
od -An -tx1 -N16 /dev/urandom | tr -d ' \n' > "$WORK/fleet.key"

"$BIN" serve --listen "127.0.0.1:$W1_PORT" --threads 1 --auth-key-file "$WORK/fleet.key" \
  --metrics "127.0.0.1:$W1_METRICS_PORT" &
W1_PID=$!
"$BIN" serve --listen "127.0.0.1:$W2_PORT" --threads 1 --auth-key-file "$WORK/fleet.key" \
  --metrics "127.0.0.1:$W2_METRICS_PORT" &
W2_PID=$!
trap 'kill $W1_PID $W2_PID 2>/dev/null || true; rm -rf "$WORK"' EXIT
wait_port "$W1_PORT" "$W1_PID"
wait_port "$W2_PORT" "$W2_PID"

SEARCH_ARGS="--population 8 --generations 6 --eval 20000 --final 100000 --seed 42"

# The local reference at the same seed.
"$BIN" search $SEARCH_ARGS --threads 2 > "$WORK/local.txt"

# The same search fanned out across the keyed fleet.
"$BIN" search $SEARCH_ARGS \
  --workers "127.0.0.1:$W1_PORT,127.0.0.1:$W2_PORT" \
  --auth-key-file "$WORK/fleet.key" > "$WORK/remote.txt"
assert_alive "$W1_PID" "worker 1"
assert_alive "$W2_PID" "worker 2"

if ! diff "$WORK/local.txt" "$WORK/remote.txt"; then
  echo "error: distributed search diverged from the local same-seed run" >&2
  exit 1
fi
echo "ok: 2-worker search report is bit-identical to the local run"

# Elite genomes survive into the next generation and are re-submitted;
# the worker-side genome cache must serve those re-evaluations. Both
# workers must answer the scrape.
HITS=0
for port in "$W1_METRICS_PORT" "$W2_METRICS_PORT"; do
  if ! PAGE=$(curl -sf "http://127.0.0.1:$port/metrics"); then
    echo "error: the /metrics scrape of the worker on port $port failed" >&2
    exit 1
  fi
  HITS=$((HITS + $(awk '$1 == "avf_eval_cache_hits" { n += $2 } END { print n + 0 }' <<< "$PAGE")))
done
if [ "$HITS" -le 0 ]; then
  echo "error: no worker cache hits — elite re-evaluations were re-simulated" >&2
  exit 1
fi
echo "ok: worker genome cache served $HITS elite re-evaluation(s)"

trap 'rm -rf "$WORK"' EXIT
reap "$W1_PID" "worker 1"
reap "$W2_PID" "worker 2"
