#!/usr/bin/env bash
# Release-mode end-to-end smoke of the fault-injection subsystem: a
# fixed campaign plus an adaptive sequential-sampling campaign (the
# latter exercises the checkpoint-restore path and the explicit
# unreached-trial classification, not just its debug_assert shadow),
# then the fixed campaign again at a dense checkpoint interval, under
# both fault models and on both machines.
#
# Three reports are also diffed against references committed under
# scripts/ci/reference/: the fixed replay campaign, an adaptive
# trap-model campaign with pruning on, and a fixed replay campaign at
# the benchmark's 30k instructions, where many more trials are settled
# by the oracle tail than at 8k. Only the throughput figure and
# the host-dependent worker count are masked, so a change meant only to
# make the simulator faster proves here that no verdict, count, CI or
# batch moved. Regenerate a reference only in a change that means to
# alter reports, and say so in CHANGES.md.
set -euo pipefail

BIN=./target/release/avf-stressmark
[ -x "$BIN" ] || { echo "error: $BIN not built (run cargo build --release --locked first)" >&2; exit 1; }
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

CAMPAIGN=(--injections 240 --seed 42 --instructions 8000)

"$BIN" validate "${CAMPAIGN[@]}" | tee "$WORKDIR/auto.out"
"$BIN" validate --ci-target 0.1 --injections 2000 --seed 42 --instructions 8000
"$BIN" validate --fault-model trap --prune on --ci-target 0.1 --injections 2000 \
  --seed 42 --instructions 8000 | tee "$WORKDIR/trap_prune.out"
"$BIN" validate --injections 1000 --seed 7 --instructions 30000 | tee "$WORKDIR/replay_30k.out"

# Reports against the committed references.
REFERENCE="$(dirname "$0")/reference"
mask() {
  sed -E 's/[0-9]+ worker\(s\)/N worker(s)/; s/ \([0-9]+ inj\/s\)//' "$1"
}
for pair in "validate_replay:auto" "validate_trap_prune:trap_prune" \
  "validate_replay_30k:replay_30k"; do
  ref="$REFERENCE/${pair%%:*}.txt"
  if ! diff "$ref" <(mask "$WORKDIR/${pair##*:}.out"); then
    echo "error: the report differs from $ref" >&2
    exit 1
  fi
done
echo "reports are identical to the committed references ✓"

# Checkpoint-interval invariance: the checkpoint a trial restores from
# and the checkpoints it is settled at (rejoined, or decided because it
# differs only in state the golden future never reads) must never change
# a verdict, so a run with a checkpoint every 64 cycles reproduces the
# report of the automatic interval, modulo throughput and the checkpoint
# count. Checked under both fault models and on the scaled machine,
# whose DTLB is twice the size.
filter() {
  sed -E 's/\([0-9]+ inj\/s\)//; s/[0-9]+ checkpoint\(s\)//' "$1"
}
dense_matches() {
  local name=$1 auto=$2
  shift 2
  "$BIN" validate "${CAMPAIGN[@]}" "$@" --checkpoint-interval 64 > "$WORKDIR/$name.dense"
  if ! diff <(filter "$auto") <(filter "$WORKDIR/$name.dense"); then
    echo "error: a dense checkpoint interval changed the $name campaign report" >&2
    exit 1
  fi
  echo "dense-checkpoint $name report is identical to the automatic interval ✓"
}
dense_matches replay "$WORKDIR/auto.out"
"$BIN" validate "${CAMPAIGN[@]}" --fault-model trap > "$WORKDIR/trap.auto"
dense_matches trap "$WORKDIR/trap.auto" --fault-model trap
"$BIN" validate "${CAMPAIGN[@]}" --machine config-a > "$WORKDIR/config-a.auto"
dense_matches config-a "$WORKDIR/config-a.auto" --machine config-a
