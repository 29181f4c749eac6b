#!/usr/bin/env bash
# Release-mode end-to-end smoke of the fault-injection subsystem: a
# fixed campaign plus an adaptive sequential-sampling campaign (the
# latter exercises the checkpoint-restore path and the explicit
# unreached-trial classification, not just its debug_assert shadow),
# then the fixed campaign again at a dense checkpoint interval.
set -euo pipefail

BIN=./target/release/avf-stressmark
[ -x "$BIN" ] || { echo "error: $BIN not built (run cargo build --release --locked first)" >&2; exit 1; }
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

CAMPAIGN=(--injections 240 --seed 42 --instructions 8000)

"$BIN" validate "${CAMPAIGN[@]}" | tee "$WORKDIR/auto.out"
"$BIN" validate --ci-target 0.1 --injections 2000 --seed 42 --instructions 8000

# Checkpoint-interval invariance: the checkpoint a trial restores from
# and the checkpoints it reconverges at must never change a verdict, so
# a run with a checkpoint every 64 cycles reproduces the report of the
# automatic interval, modulo throughput and the checkpoint count.
"$BIN" validate "${CAMPAIGN[@]}" --checkpoint-interval 64 > "$WORKDIR/dense.out"
filter() {
  sed -E 's/\([0-9]+ inj\/s\)//; s/[0-9]+ checkpoint\(s\)//' "$1"
}
if ! diff <(filter "$WORKDIR/auto.out") <(filter "$WORKDIR/dense.out"); then
  echo "error: a dense checkpoint interval changed the campaign report" >&2
  exit 1
fi
echo "dense-checkpoint report is identical to the automatic interval ✓"
