#!/usr/bin/env bash
# Release-mode distributed-campaign smoke: a long-running `serve`
# worker plus `validate --workers` over the wire protocol, diffed
# against the same campaign run locally. Strict CLI flags mean a typo
# here fails the job instead of silently running a default campaign;
# the explicit alive/reap checks mean a crashed backgrounded worker
# can never leave the step green.
set -euo pipefail
. "$(dirname "$0")/lib.sh"

BIN=./target/release/avf-stressmark
[ -x "$BIN" ] || { echo "error: $BIN not built (run cargo build --release --locked first)" >&2; exit 1; }
PORT=7411
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

CAMPAIGN=(--ci-target 0.1 --injections 2000 --seed 42 --instructions 8000)

"$BIN" serve --listen "127.0.0.1:$PORT" --threads 2 &
SERVE_PID=$!
trap 'kill $SERVE_PID 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

wait_port "$PORT" "$SERVE_PID"
"$BIN" validate --workers "127.0.0.1:$PORT" "${CAMPAIGN[@]}" | tee "$WORKDIR/remote.out"
assert_alive "$SERVE_PID" "serve worker"

trap 'rm -rf "$WORKDIR"' EXIT
reap "$SERVE_PID" "serve worker"

# The same campaign in-process: the worker's golden pass and trials
# must reproduce the local report exactly, modulo venue metadata (the
# worker count and the throughput figure).
"$BIN" validate --threads 1 "${CAMPAIGN[@]}" > "$WORKDIR/local.out"
filter() {
  sed -E 's/[0-9]+ worker\(s\)//; s/\([0-9]+ inj\/s\)//' "$1" | grep -v "re-dispatched"
}
if ! diff <(filter "$WORKDIR/remote.out") <(filter "$WORKDIR/local.out"); then
  echo "error: the remote campaign diverged from the local run" >&2
  exit 1
fi
echo "remote report is bit-identical to the local run ✓"
