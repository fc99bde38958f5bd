#!/usr/bin/env bash
# smoke_ftexp.sh — end-to-end smoke test for ftexp's flag wiring,
# exercised through the real binary:
#
#   1. build ftexp once
#   2. -exp fig6 with -checkpoint, then again with -resume: stdout is
#      byte-identical and stderr reports all 20 trials resumed
#   3. a third run without -resume is refused (non-zero exit)
#   4. -seed 0 and -seed 1 print identical tables (0 maps to 1)
#   5. -exp all -quiet exits 0
#   6. -trial-timeout 1ns -contain: every trial fails, the run exits
#      non-zero, and the error manifest lists all 20 as timed out
#
# Run from the repository root: scripts/smoke_ftexp.sh
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

say() { echo "smoke-ftexp: $*"; }
die() { echo "smoke-ftexp: FAIL: $*" >&2; exit 1; }

go build -o "$work/ftexp" ./cmd/ftexp
ftexp="$work/ftexp"
ckpt="$work/ckpt"

say "fig6 with a checkpoint journal, then resumed"
"$ftexp" -exp fig6 -insts 5000 -checkpoint "$ckpt" > "$work/first.txt" 2> "$work/first.err"
"$ftexp" -exp fig6 -insts 5000 -checkpoint "$ckpt" -resume > "$work/resumed.txt" 2> "$work/resumed.err"
cmp -s "$work/first.txt" "$work/resumed.txt" || die "resumed fig6 output differs from the first run"
grep -q "resumed 20 completed trial(s)" "$work/resumed.err" ||
  die "resumed run did not report 20 resumed trials: $(cat "$work/resumed.err")"

say "rerun without -resume is refused"
if "$ftexp" -exp fig6 -insts 5000 -checkpoint "$ckpt" > /dev/null 2> "$work/refused.err"; then
  die "rerun over an existing journal without -resume exited 0"
fi

say "-seed 0 maps to -seed 1"
"$ftexp" -exp fig6 -insts 5000 -seed 0 -quiet > "$work/seed0.txt"
"$ftexp" -exp fig6 -insts 5000 -seed 1 -quiet > "$work/seed1.txt"
cmp -s "$work/seed0.txt" "$work/seed1.txt" || die "-seed 0 and -seed 1 differ"

say "-exp all"
"$ftexp" -exp all -insts 2000 -quiet > /dev/null

say "failure manifest: every trial times out under -contain"
if "$ftexp" -exp fig6 -insts 5000 -trial-timeout 1ns -contain -quiet > /dev/null 2> "$work/timeout.err"; then
  die "a grid of timed-out trials exited 0"
fi
grep -q "20 trial(s) failed" "$work/timeout.err" ||
  die "manifest does not report 20 failed trials: $(cat "$work/timeout.err")"
grep '^  #' "$work/timeout.err" > "$work/manifest.txt"
[ "$(wc -l < "$work/manifest.txt")" -eq 20 ] || die "manifest has $(wc -l < "$work/manifest.txt") lines, want 20"
if grep -v "trial deadline exceeded" "$work/manifest.txt"; then
  die "manifest lines above are not trial timeouts"
fi

say "PASS"
