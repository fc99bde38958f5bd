#!/usr/bin/env bash
# Run the simulator's tracking benchmarks and record them in the bench
# trajectory file (BENCH_PR26.json and predecessors) under a label
# (default "after"), optionally gating the fresh numbers against a
# recorded baseline.
#
# Usage:
#   scripts/bench.sh [label] [out.json]
#
# Environment:
#   BENCH_TIME             go test -benchtime value (default 2s; CI uses 1x)
#   BENCH_PATTERN          benchmark regexp (default
#                          Campaign|PipelineHot|SimulatorThroughput|Fig6FaultSweep)
#   BENCH_GATE             baseline JSON to gate against (empty = no gate)
#   BENCH_GATE_LABEL       label inside the baseline file (default after)
#   BENCH_ALLOC_THRESHOLD  max fractional allocs/op growth (default 0.10)
#   BENCH_SPEED_THRESHOLD  max fractional */s-metric drop (default 0.10;
#                          CI uses a looser value — wall-clock throughput
#                          varies with runner hardware, allocation counts
#                          do not)
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:-after}"
out="${2:-BENCH_PR26.json}"
benchtime="${BENCH_TIME:-2s}"
pattern="${BENCH_PATTERN:-Campaign|PipelineHot|SimulatorThroughput|Fig6FaultSweep}"

gate_args=()
if [ -n "${BENCH_GATE:-}" ]; then
  gate_args=(-gate "$BENCH_GATE"
             -gate-label "${BENCH_GATE_LABEL:-after}"
             -alloc-threshold "${BENCH_ALLOC_THRESHOLD:-0.10}"
             -speed-threshold "${BENCH_SPEED_THRESHOLD:-0.10}")
fi

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run='^$' -bench="$pattern" -benchmem -benchtime="$benchtime" . | tee "$tmp"
go run ./cmd/benchparse -label "$label" -out "$out" "${gate_args[@]}" < "$tmp"
