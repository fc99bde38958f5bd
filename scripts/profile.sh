#!/usr/bin/env bash
# Profile the simulator's hot benchmarks and print, for each pipeline
# stage, its cumulative share of CPU: the fraction of profile samples
# whose stack passes through the stage's function.
#
# Usage:
#   scripts/profile.sh [Name...]
#
# Each Name is a benchmark in the root package without its "Benchmark"
# prefix (default: PipelineHot Fig6FaultSweep). Each one runs alone
# under -cpuprofile and gets one column of the table.
#
# Environment:
#   BENCH_TIME   go test -benchtime value (default 2s; CI uses 1x)
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCH_TIME:-2s}"
benches=("$@")
if [ ${#benches[@]} -eq 0 ]; then
  benches=(PipelineHot Fig6FaultSweep)
fi

# stage label and pprof -focus regexp, one pair per table row.
stages=(
  "fetch"          'cpu\.\(\*Machine\)\.fetch$'
  "dispatch"       'cpu\.\(\*Machine\)\.dispatch$'
  "issueEvent"     'cpu\.\(\*Machine\)\.issueEvent$'
  "writebackEvent" 'cpu\.\(\*Machine\)\.writebackEvent$'
  "commit"         'cpu\.\(\*Machine\)\.commit$'
  "ecc.*"          'internal/ecc\.'
)

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go test -c -o "$tmp/repro.test" .
for b in "${benches[@]}"; do
  "$tmp/repro.test" -test.run='^$' -test.bench="^Benchmark$b\$" \
    -test.benchtime="$benchtime" -test.cpuprofile="$tmp/$b.prof" >/dev/null
done

# share prints the percentage of the profile's samples that pass
# through a function matching the regexp.
share() {
  local pct
  pct="$(go tool pprof -top -nodefraction=0 -focus="$2" "$tmp/repro.test" "$1" 2>/dev/null |
    sed -n 's/^Showing nodes accounting for [^,]*, \([0-9.]*%\) of .*/\1/p')"
  echo "${pct:-0%}"
}

printf '%-16s' "cum CPU share"
for b in "${benches[@]}"; do printf '%16s' "$b"; done
echo
for ((i = 0; i < ${#stages[@]}; i += 2)); do
  printf '%-16s' "${stages[i]}"
  for b in "${benches[@]}"; do printf '%16s' "$(share "$tmp/$b.prof" "${stages[i + 1]}")"; done
  echo
done
