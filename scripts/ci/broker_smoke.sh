#!/usr/bin/env bash
# Release-mode broker smoke: a real `broker` process fronting two
# authenticated `serve` workers, exercised three ways —
#
#   1. two tenants run `validate --broker` concurrently and each report
#      must be identical (modulo venue metadata: worker count and
#      throughput) to a direct `validate --workers` run at the same
#      seed;
#   2. the queued plane: `submit --detach` prints a durable id and a
#      separate `attach` retrieves the finished report;
#   3. the metrics endpoint answers /metrics with live queue/worker
#      counters and /healthz with ok, and worker 1's own /metrics says
#      how its trials ended: some armed trials were decided at a golden
#      checkpoint instead of running their whole tail.
#
# Auth is on end-to-end: drivers sign frames to the broker, the broker
# signs frames to the workers.
set -euo pipefail
. "$(dirname "$0")/lib.sh"

BIN=./target/release/avf-stressmark
[ -x "$BIN" ] || { echo "error: $BIN not built (run cargo build --release --locked first)" >&2; exit 1; }

W1_PORT=7621
W2_PORT=7622
BROKER_PORT=7620
METRICS_PORT=7629
W1_METRICS_PORT=7628

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# One shared key for the whole fleet, as --auth-key-file documents.
od -An -tx1 -N16 /dev/urandom | tr -d ' \n' > "$WORK/fleet.key"

# Venue metadata is the only legitimate difference between a brokered
# and a direct report: the worker count in the header and the
# throughput figure (plus any re-dispatch note).
fingerprint() {
  sed -E 's/[0-9]+ worker\(s\)//; s/\([0-9]+ inj\/s\)//' "$1" | grep -v "re-dispatched" || true
}

"$BIN" serve --listen "127.0.0.1:$W1_PORT" --threads 1 --auth-key-file "$WORK/fleet.key" \
  --metrics "127.0.0.1:$W1_METRICS_PORT" &
W1_PID=$!
"$BIN" serve --listen "127.0.0.1:$W2_PORT" --threads 1 --auth-key-file "$WORK/fleet.key" &
W2_PID=$!
trap 'kill $W1_PID $W2_PID 2>/dev/null || true; rm -rf "$WORK"' EXIT
wait_port "$W1_PORT" "$W1_PID"
wait_port "$W2_PORT" "$W2_PID"

"$BIN" broker --listen "127.0.0.1:$BROKER_PORT" \
  --workers "127.0.0.1:$W1_PORT,127.0.0.1:$W2_PORT" \
  --store "$WORK/campaigns.log" \
  --auth-key-file "$WORK/fleet.key" \
  --metrics "127.0.0.1:$METRICS_PORT" &
BROKER_PID=$!
trap 'kill $BROKER_PID $W1_PID $W2_PID 2>/dev/null || true; rm -rf "$WORK"' EXIT
wait_port "$BROKER_PORT" "$BROKER_PID"

# --- 1. two concurrent tenants vs direct runs at the same seeds -------------
"$BIN" validate --broker "127.0.0.1:$BROKER_PORT" --tenant team-a \
  --auth-key-file "$WORK/fleet.key" \
  --ci-target 0.12 --injections 1500 --seed 42 --instructions 8000 \
  > "$WORK/brokered-a.txt" &
TENANT_A_PID=$!
"$BIN" validate --broker "127.0.0.1:$BROKER_PORT" --tenant team-b \
  --auth-key-file "$WORK/fleet.key" \
  --ci-target 0.12 --injections 1500 --seed 7 --instructions 8000 \
  > "$WORK/brokered-b.txt" &
TENANT_B_PID=$!
wait "$TENANT_A_PID"
wait "$TENANT_B_PID"
assert_alive "$BROKER_PID" "broker"
assert_alive "$W1_PID" "worker 1"
assert_alive "$W2_PID" "worker 2"

# Direct same-seed references through the workers (no broker).
"$BIN" validate --workers "127.0.0.1:$W1_PORT,127.0.0.1:$W2_PORT" \
  --auth-key-file "$WORK/fleet.key" \
  --ci-target 0.12 --injections 1500 --seed 42 --instructions 8000 \
  > "$WORK/direct-a.txt"
"$BIN" validate --workers "127.0.0.1:$W1_PORT,127.0.0.1:$W2_PORT" \
  --auth-key-file "$WORK/fleet.key" \
  --ci-target 0.12 --injections 1500 --seed 7 --instructions 8000 \
  > "$WORK/direct-b.txt"

for t in a b; do
  if ! diff <(fingerprint "$WORK/brokered-$t.txt") <(fingerprint "$WORK/direct-$t.txt"); then
    echo "error: tenant $t's brokered report diverged from the direct run" >&2
    exit 1
  fi
done
echo "ok: both tenants' brokered reports match their direct same-seed runs"

# --- 2. submit --detach / attach through the durable queue ------------------
ID=$("$BIN" submit --broker "127.0.0.1:$BROKER_PORT" --tenant team-a \
  --auth-key-file "$WORK/fleet.key" \
  --injections 400 --seed 9 --instructions 4000 --detach)
case "$ID" in
  ''|*[!0-9]*) echo "error: submit --detach printed \`$ID\`, not a campaign id" >&2; exit 1 ;;
esac
"$BIN" attach --broker "127.0.0.1:$BROKER_PORT" --tenant team-a \
  --auth-key-file "$WORK/fleet.key" --id "$ID" > "$WORK/attached.txt"
grep -q "400 injections" "$WORK/attached.txt" || {
  echo "error: attached report does not describe the submitted campaign:" >&2
  cat "$WORK/attached.txt" >&2
  exit 1
}
echo "ok: submit --detach printed id $ID and attach retrieved its report"

# --- 3. the metrics plane ---------------------------------------------------
curl -sf "http://127.0.0.1:$METRICS_PORT/healthz" | grep -q ok
METRICS=$(curl -sf "http://127.0.0.1:$METRICS_PORT/metrics")
echo "$METRICS"
# The two validate runs used the interactive plane (4 programs each =
# 8 mux sessions); the submit/attach pair used the queued spec plane
# (1 accepted, 1 completed).
for metric in \
  "avf_broker_up 1" \
  "avf_broker_workers 2" \
  "avf_broker_accepted_total 1" \
  "avf_broker_completed_total 1" \
  "avf_broker_mux_sessions_total 8" \
  "avf_broker_auth_rejects_total 0" \
  "avf_worker_up{worker=\"127.0.0.1:$W1_PORT\"} 1" \
  "avf_worker_up{worker=\"127.0.0.1:$W2_PORT\"} 1"; do
  if ! grep -qF "$metric" <<< "$METRICS"; then
    echo "error: /metrics is missing \`$metric\`" >&2
    exit 1
  fi
done
echo "ok: metrics endpoint reports a healthy fleet"

# How worker 1's trials ended (avf_serve_trials_*, avf_serve_tail_cycles).
ENDS=$(curl -sf "http://127.0.0.1:$W1_METRICS_PORT/metrics" | grep -E '^avf_serve_(trials_|tail_cycles)')
echo "$ENDS"
DECIDED=$(awk '/^avf_serve_trials_decided_/ { n += $2 } END { print n + 0 }' <<< "$ENDS")
if [ "$DECIDED" -le 0 ]; then
  echo "error: worker 1 decided no trial at a golden checkpoint" >&2
  exit 1
fi
echo "ok: worker 1 decided $DECIDED trial(s) at golden checkpoints"

trap 'rm -rf "$WORK"' EXIT
reap "$BROKER_PID" "broker"
reap "$W1_PID" "worker 1"
reap "$W2_PID" "worker 2"
