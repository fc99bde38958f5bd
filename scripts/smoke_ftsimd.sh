#!/usr/bin/env bash
# smoke_ftsimd.sh — end-to-end smoke test for the ftsimd campaign
# service, exercised through the real binaries the way an operator
# would:
#
#   1. build ftsimd + ftsimc
#   2. start a daemon on a random port, submit a tiny campaign from a
#      ftsim/testdata golden config, stream its SSE feed to completion
#   3. durability: submit a slow multi-trial campaign, SIGKILL the
#      daemon mid-grid, restart it on the same data directory, and
#      assert the resumed run's aggregate stats are byte-identical to
#      an uninterrupted control run of the same submission
#   4. observability: scrape GET /metrics on the restarted daemon and
#      assert the documented core families carry sane values (a resumed
#      job must show up in ftsim_trials_resumed_total), plus /healthz
#      readiness and ftsimc -o json output
#
# Run from the repository root: scripts/smoke_ftsimd.sh
set -euo pipefail

work=$(mktemp -d)
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

say() { echo "smoke: $*"; }
die() { echo "smoke: FAIL: $*" >&2; exit 1; }

# start_daemon <data-dir> — launches ftsimd on a random port; sets
# $addr and $daemon_pid.
start_daemon() {
  rm -f "$work/addr.txt" # a stale address would race the new daemon's
  "$work/ftsimd" -addr 127.0.0.1:0 -data-dir "$1" -flush-every 1 \
    > "$work/addr.txt" 2>> "$work/daemon.log" &
  daemon_pid=$!
  for _ in $(seq 1 100); do
    addr=$(head -1 "$work/addr.txt" 2>/dev/null || true)
    [ -n "$addr" ] && break
    sleep 0.1
  done
  [ -n "$addr" ] || die "daemon never printed its address"
  addr="http://$addr"
}

stop_daemon_hard() {
  kill -9 "$daemon_pid" 2>/dev/null || true
  wait "$daemon_pid" 2>/dev/null || true
  daemon_pid=""
}

# wait_for <job-id> <grep-pattern> — polls ftsimc status until the
# summary line matches.
wait_for() {
  for _ in $(seq 1 600); do
    if "$work/ftsimc" -addr "$addr" status "$1" | grep -qE "$2"; then
      return 0
    fi
    sleep 0.1
  done
  die "job $1 never matched '$2'; last: $("$work/ftsimc" -addr "$addr" status "$1")"
}

say "building ftsimd and ftsimc"
go build -o "$work" ./cmd/ftsimd ./cmd/ftsimc

# ---------------------------------------------------------------- 1.
# Tiny campaign from a golden config, SSE streamed to completion.
say "phase 1: golden-config campaign over HTTP"
start_daemon "$work/data1"
config=$(ls ftsim/testdata/*.json | head -1)
id=$("$work/ftsimc" -addr "$addr" submit -max-insts 5000 "$config")
say "submitted $id from $config"
"$work/ftsimc" -addr "$addr" watch "$id" > "$work/watch1.log"
grep -q "state: running" "$work/watch1.log" || die "SSE stream carried no running state"
grep -qE "  done  " <<< "$("$work/ftsimc" -addr "$addr" status "$id")" \
  || die "phase-1 job did not finish: $("$work/ftsimc" -addr "$addr" status "$id")"
"$work/ftsimc" -addr "$addr" status -stats "$id" > /dev/null || die "no stats on finished job"
stop_daemon_hard

# ---------------------------------------------------------------- 2.
# Durability: kill the daemon mid-campaign, restart, compare against
# an uninterrupted control run.
say "phase 2: SIGKILL mid-campaign, restart, compare aggregates"
cat > "$work/req.json" <<'EOF'
{"name":"smoke-durability","seed":7,"workers":1,"trials":[
EOF
# Trials 3-5 carry no label: the daemon names their programs from the
# labels it generates, which must survive the restart for the journal
# to resume.
for i in 0 1 2 3 4 5; do
  comma=$([ "$i" = 5 ] && echo "" || echo ",")
  label=$([ "$i" -lt 3 ] && echo "\"label\":\"t$i\"," || echo "")
  cat >> "$work/req.json" <<EOF
 {$label"asm":"li r1, 400000\nloop: addi r1, r1, -1\n bne r1, r0, loop\n halt\n","config":{"max_insts":99000000,"max_cycles":990000000}}$comma
EOF
done
echo ']}' >> "$work/req.json"

start_daemon "$work/data2"
id=$("$work/ftsimc" -addr "$addr" submit "$work/req.json")
say "submitted $id; waiting for a mid-grid snapshot"
wait_for "$id" ' [1-5]/6 trials'
say "killing daemon mid-campaign (SIGKILL)"
stop_daemon_hard
[ -s "$work/data2/$id.ckpt" ] || die "killed daemon left no checkpoint journal"
[ "$(ls "$work/data2")" = "$id.ckpt" ] || die "data dir holds more than the job's journal: $(ls "$work/data2")"

say "restarting daemon on the same data dir"
start_daemon "$work/data2"
wait_for "$id" '  done  '
# A job that finished before the kill would come back as history with
# nothing resumed; one whose six trials were all journaled would resume
# all six. Either way the kill proved nothing.
resumed=$("$work/ftsimc" -addr "$addr" status "$id" | grep -oE '[0-9]+ resumed' | cut -d' ' -f1 || true)
[ -n "$resumed" ] && [ "$resumed" -ge 1 ] && [ "$resumed" -lt 6 ] \
  || die "restarted job resumed ${resumed:-0} of 6 trials, want 1-5: $("$work/ftsimc" -addr "$addr" status "$id")"
"$work/ftsimc" -addr "$addr" status -stats "$id" > "$work/resumed.json"

# ---------------------------------------------------------------- 3.
# Observability: the restarted daemon's /metrics must document what
# just happened — a recovered job, resumed trials, checkpoint fsyncs —
# and /healthz must report ready.
say "phase 3: scraping /metrics on the restarted daemon"
curl -fsS "$addr/metrics" > "$work/metrics.txt" || die "GET /metrics failed"

# metric_ge <regex> <min> — asserts one exposition line matches and its
# value is >= min.
metric_ge() {
  local line
  line=$(grep -E "^$1 " "$work/metrics.txt" | head -1)
  [ -n "$line" ] || die "metrics: no line matching '$1'"
  awk -v min="$2" '{ exit ($NF >= min) ? 0 : 1 }' <<< "$line" \
    || die "metrics: '$line' below expected minimum $2"
}
metric_ge 'ftsimd_http_requests_total\{route="GET /v1/campaigns/\{id\}",code="200"\}' 1
metric_ge 'ftsimd_jobs_total\{state="done"\}' 1
metric_ge 'ftsimd_jobs_running' 0
metric_ge 'ftsimd_queue_wait_seconds_count' 1
metric_ge 'ftsim_trials_total\{outcome="ok"\}' 1
metric_ge 'ftsim_trials_resumed_total' 1
metric_ge 'ftsim_checkpoint_syncs_total' 1
grep -q '^ftsim_trial_seconds_bucket' "$work/metrics.txt" \
  || die "metrics: no ftsim_trial_seconds histogram buckets"
grep -qE '^ftsimd_queue_depth 0$' "$work/metrics.txt" \
  || die "metrics: queue depth of an idle daemon is not 0"
say "core metric families present with sane values"

health_code=$(curl -s -o "$work/health.json" -w '%{http_code}' "$addr/healthz")
[ "$health_code" = 200 ] || die "healthz returned $health_code: $(cat "$work/health.json")"
grep -q '"status": "ok"' "$work/health.json" || die "healthz not ok: $(cat "$work/health.json")"

"$work/ftsimc" -addr "$addr" status -o json "$id" | grep -q '"state": "done"' \
  || die "ftsimc status -o json did not report the done job"
"$work/ftsimc" -addr "$addr" list -o json | grep -q "\"id\": \"$id\"" \
  || die "ftsimc list -o json did not include $id"
say "healthz ready, ftsimc -o json OK"
stop_daemon_hard

say "control: uninterrupted run of the same submission"
start_daemon "$work/data3"
id2=$("$work/ftsimc" -addr "$addr" submit "$work/req.json")
"$work/ftsimc" -addr "$addr" watch "$id2" > /dev/null
"$work/ftsimc" -addr "$addr" status -stats "$id2" > "$work/control.json"
stop_daemon_hard

if ! cmp -s "$work/resumed.json" "$work/control.json"; then
  diff "$work/resumed.json" "$work/control.json" | head -40 >&2 || true
  die "resumed aggregate stats differ from the uninterrupted run"
fi
say "resumed aggregate is byte-identical to the uninterrupted run"
say "OK"
